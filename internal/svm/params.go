package svm

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/relational"
)

// Params is the serializable state of a fitted SVM: the kernel
// configuration and the support set. A single-class fit keeps its kernel
// with an empty support set and the class sign in B; a kernel-less model
// stores only the class sign in B (matching Predict's fallback).
type Params struct {
	Kernel KernelKind
	Gamma  float64
	// Dims is the categorical feature count d the kernel was built with.
	Dims int
	// HasKernel distinguishes a trained support set from the kernel-less
	// single-class model.
	HasKernel bool
	// SVRows holds the support vectors' categorical codes, row-major
	// (len = NumSV × Dims).
	SVRows []relational.Value
	// SVAlphaY holds α_i·y_i per support vector.
	SVAlphaY []float64
	B        float64
}

// ExportParams snapshots the fitted support set (slices are copies).
func (s *SVM) ExportParams() (Params, error) {
	p := Params{Kernel: s.cfg.Kernel, Gamma: s.cfg.Gamma, B: s.b}
	if s.kernel == nil {
		// Only FromParams of a kernel-less Params leaves kernel == nil with
		// a class sign in b; an SVM that was never fitted has neither.
		if s.svBlock != nil || s.svAlphaY != nil {
			return Params{}, fmt.Errorf("svm: inconsistent degenerate state")
		}
		if s.b != 1 && s.b != -1 {
			return Params{}, fmt.Errorf("svm: export before Fit")
		}
		return p, nil
	}
	p.HasKernel = true
	p.Dims = s.kernel.dims
	p.SVAlphaY = append([]float64(nil), s.svAlphaY...)
	p.SVRows = append(make([]relational.Value, 0, len(s.svBlock)), s.svBlock...)
	return p, nil
}

// FromParams reconstructs a fitted SVM from an exported support set over
// features. The kernel kind must be one this package defines, Dims must
// equal the feature count, and every support code must lie inside its
// feature's domain; the kernel's table is built only once Dims is checked.
func FromParams(features []ml.Feature, p Params) (*SVM, error) {
	if !p.Kernel.known() {
		return nil, fmt.Errorf("svm: unknown kernel kind %d", int(p.Kernel))
	}
	s := &SVM{cfg: Config{Kernel: p.Kernel, C: 1, Gamma: p.Gamma}, b: p.B}
	if !p.HasKernel {
		if p.B != 1 && p.B != -1 {
			return nil, fmt.Errorf("svm: degenerate model must store a class sign, got b=%v", p.B)
		}
		return s, nil
	}
	d := len(features)
	if p.Dims != d {
		return nil, fmt.Errorf("svm: kernel over %d features, artifact has %d", p.Dims, d)
	}
	if d == 0 || len(p.SVRows)%d != 0 {
		return nil, fmt.Errorf("svm: support block of %d values is not a multiple of dims %d", len(p.SVRows), d)
	}
	nSV := len(p.SVRows) / d
	if nSV != len(p.SVAlphaY) {
		return nil, fmt.Errorf("svm: %d support rows but %d multipliers", nSV, len(p.SVAlphaY))
	}
	for at, v := range p.SVRows {
		if f := features[at%d]; v < 0 || int(v) >= f.Cardinality {
			return nil, fmt.Errorf("svm: support vector %d feature %q: code %d outside domain of size %d", at/d, f.Name, v, f.Cardinality)
		}
	}
	k, err := NewKernel(p.Kernel, p.Gamma, d)
	if err != nil {
		return nil, err
	}
	s.kernel = k
	s.svAlphaY = append([]float64(nil), p.SVAlphaY...)
	s.svBlock = append([]relational.Value(nil), p.SVRows...)
	s.packSupport()
	return s, nil
}

// ExportLinear implements ml.LinearExporter for the linear kernel: the
// decision Σ_i α_i y_i (x_i·x) + b over one-hot vectors folds into one
// weight per (feature, value) pair, w[j,v] = Σ_{i: x_i[j]=v} α_i y_i —
// which is what lets serving score without touching the support set. The
// fold iterates support vectors in retention order, so an encode/decode
// round trip exports bit-identical weights. Non-linear kernels return
// ok == false; the degenerate single-class model exports zero weights with
// the class sign as bias.
func (s *SVM) ExportLinear(features []ml.Feature) (float64, []float64, bool) {
	enc := ml.NewEncoder(features)
	if s.kernel == nil {
		if s.svBlock == nil && (s.b == 1 || s.b == -1) {
			return s.b, make([]float64, enc.Dims), true
		}
		return 0, nil, false
	}
	if s.cfg.Kernel != Linear || s.kernel.dims != len(features) {
		return 0, nil, false
	}
	w := make([]float64, enc.Dims)
	d := s.kernel.dims
	for i, ay := range s.svAlphaY {
		for j, v := range s.svBlock[i*d : (i+1)*d] {
			w[enc.Index(j, v)] += ay
		}
	}
	return s.b, w, true
}
