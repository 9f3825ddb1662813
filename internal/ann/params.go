package ann

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/ml"
)

// Params is the serializable state of a fitted MLP: layer shapes and all
// weight blocks. Optimizer state (Adam moments) is training-only and not
// persisted; a decoded model predicts identically but cannot resume
// training.
type Params struct {
	Hidden1, Hidden2 int
	W1, B1           []float64
	W2, B2           []float64
	W3               []float64
	B3               float64
}

// ExportParams snapshots the fitted network (slices are copies).
func (m *MLP) ExportParams() (Params, error) {
	if m.enc == nil {
		return Params{}, fmt.Errorf("ann: export before Fit")
	}
	return Params{
		Hidden1: m.cfg.Hidden1,
		Hidden2: m.cfg.Hidden2,
		W1:      append([]float64(nil), m.w1...),
		B1:      append([]float64(nil), m.b1...),
		W2:      append([]float64(nil), m.w2...),
		B2:      append([]float64(nil), m.b2...),
		W3:      append([]float64(nil), m.w3...),
		B3:      m.b3,
	}, nil
}

// FromParams reconstructs a fitted network; block lengths are validated
// against the layer shapes and the encoder implied by the feature list.
func FromParams(features []ml.Feature, p Params) (*MLP, error) {
	enc := ml.NewEncoder(features)
	h1, h2 := p.Hidden1, p.Hidden2
	if h1 <= 0 || h2 <= 0 {
		return nil, fmt.Errorf("ann: hidden sizes must be positive, got %d/%d", h1, h2)
	}
	check := func(name string, got, want int) error {
		if got != want {
			return fmt.Errorf("ann: %s has %d entries, want %d", name, got, want)
		}
		return nil
	}
	if err := check("w1", len(p.W1), enc.Dims*h1); err != nil {
		return nil, err
	}
	if err := check("b1", len(p.B1), h1); err != nil {
		return nil, err
	}
	if err := check("w2", len(p.W2), h1*h2); err != nil {
		return nil, err
	}
	if err := check("b2", len(p.B2), h2); err != nil {
		return nil, err
	}
	if err := check("w3", len(p.W3), h2); err != nil {
		return nil, err
	}
	m := New(Config{Hidden1: h1, Hidden2: h2})
	m.enc = enc
	m.w1 = append([]float64(nil), p.W1...)
	m.b1 = append([]float64(nil), p.B1...)
	m.w2 = append([]float64(nil), p.W2...)
	m.b2 = append([]float64(nil), p.B2...)
	m.w3 = append([]float64(nil), p.W3...)
	m.b3 = p.B3
	return m, nil
}

// ExportHiddenLinear implements ml.HiddenLinearExporter: the MLP's input
// layer is exactly the exported form — one Hidden1-wide embedding row per
// one-hot dimension plus the layer bias — and everything after it is a dense
// function of that hidden vector. The returned slices are copies.
func (m *MLP) ExportHiddenLinear(features []ml.Feature) ([]float64, []float64, int, bool) {
	if m.enc == nil || len(features) != len(m.enc.Offsets) || ml.NewEncoder(features).Dims != m.enc.Dims {
		return nil, nil, 0, false
	}
	return append([]float64(nil), m.b1...), append([]float64(nil), m.w1...), m.cfg.Hidden1, true
}

// ClassifyHidden implements ml.HiddenLinearExporter: given n first-layer
// pre-activations packed row-major in z (clobbered as scratch), it applies
// ReLU, the dense layers (mat.Gemm/Gemv, whose sequential k-accumulation
// makes each output element bit-identical to Probability's loops for
// identical z), and classifies by Predict's own test, sigmoid(z3) >= 0.5.
// The logit's sign is not that test: for z3 in (-2^-54, 0), math.Exp(z3)
// rounds to 1 and the sigmoid to exactly 0.5, which Predict calls class 1.
// It is the MLP's one dense tail: PredictBatch ends in it too.
func (m *MLP) ClassifyHidden(dst []int8, z []float64, n int) {
	if n == 0 {
		return
	}
	h1, h2 := m.cfg.Hidden1, m.cfg.Hidden2
	for i, v := range z[:n*h1] {
		if v < 0 {
			z[i] = 0
		}
	}
	z2 := make([]float64, n*h2)
	for t := 0; t < n; t++ {
		copy(z2[t*h2:(t+1)*h2], m.b2)
	}
	mat.Gemm(z2, h2, z, h1, m.w2, h2, n, h2, h1)
	for i, v := range z2 {
		if v < 0 {
			z2[i] = 0
		}
	}
	z3 := make([]float64, n)
	for t := range z3 {
		z3[t] = m.b3
	}
	mat.Gemv(z3, z2, h2, m.w3, n, h2)
	for t := 0; t < n; t++ {
		dst[t] = 0
		if sigmoid(z3[t]) >= 0.5 {
			dst[t] = 1
		}
	}
}
