package svm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

func feats(cards ...int) []ml.Feature {
	out := make([]ml.Feature, len(cards))
	for i, c := range cards {
		out[i] = ml.Feature{Name: "f", Cardinality: c}
	}
	return out
}

func TestKernelsMatchExplicitOneHot(t *testing.T) {
	// Property: match-count kernels equal kernels computed on explicit
	// one-hot encodings.
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw%6) + 1
		r := rng.New(seed)
		fs := make([]ml.Feature, d)
		for j := range fs {
			fs[j] = ml.Feature{Name: "f", Cardinality: r.Intn(4) + 2}
		}
		enc := ml.NewEncoder(fs)
		a := make([]relational.Value, d)
		b := make([]relational.Value, d)
		for j := range a {
			a[j] = relational.Value(r.Intn(fs[j].Cardinality))
			b[j] = relational.Value(r.Intn(fs[j].Cardinality))
		}
		oneHot := func(row []relational.Value) []float64 {
			v := make([]float64, enc.Dims)
			for j, val := range row {
				v[enc.Index(j, val)] = 1
			}
			return v
		}
		va, vb := oneHot(a), oneHot(b)
		dot, sq := 0.0, 0.0
		for i := range va {
			dot += float64(va[i] * vb[i])
			diff := va[i] - vb[i]
			sq += float64(diff * diff)
		}
		gamma := 0.3
		lin, _ := NewKernel(Linear, 0, d)
		quad, _ := NewKernel(Quadratic, gamma, d)
		rbf, _ := NewKernel(RBF, gamma, d)
		ok := math.Abs(lin.Eval(a, b)-dot) < 1e-12 &&
			math.Abs(quad.Eval(a, b)-float64((gamma*dot)*(gamma*dot))) < 1e-12 &&
			math.Abs(rbf.Eval(a, b)-math.Exp(-gamma*sq)) < 1e-12
		// Self-consistency.
		ok = ok && math.Abs(lin.Self()-lin.Eval(a, a)) < 1e-12 &&
			math.Abs(quad.Self()-quad.Eval(a, a)) < 1e-12 &&
			math.Abs(rbf.Self()-rbf.Eval(a, a)) < 1e-12
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewKernel(RBF, 0, 3); err == nil {
		t.Fatal("RBF needs gamma > 0")
	}
	if _, err := NewKernel(Linear, 0, 0); err == nil {
		t.Fatal("d must be positive")
	}
	if _, err := New(Config{Kernel: Linear, C: 0}); err == nil {
		t.Fatal("C must be positive")
	}
}

func TestLinearlySeparable(t *testing.T) {
	// y = (x0 == 1): separable by a linear kernel on one-hot features.
	var xs []relational.Value
	var ys []int8
	r := rng.New(1)
	for i := 0; i < 60; i++ {
		x0 := relational.Value(i % 2)
		xs = append(xs, x0, relational.Value(r.Intn(3)))
		ys = append(ys, int8(x0))
	}
	ds := mustRows(feats(2, 3), xs, ys)
	for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
		cfg := Config{Kernel: kind, C: 10, Gamma: 0.5, Seed: 7}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if acc := ml.Accuracy(s, ds); acc != 1.0 {
			t.Fatalf("%v: separable accuracy %v, want 1.0", kind, acc)
		}
	}
}

func TestRBFLearnsXOR(t *testing.T) {
	// XOR: not linearly separable on one-hot features of 2 binary features
	// (one-hot makes it 4 dims where it IS separable... so use matching
	// parity over two trinary features to require a nonlinear boundary on
	// match counts). Simpler: verify RBF gets XOR right with enough C.
	pts := [][]relational.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int8{0, 1, 1, 0}
	var xs []relational.Value
	var ys []int8
	for rep := 0; rep < 10; rep++ {
		for i, p := range pts {
			xs = append(xs, p...)
			ys = append(ys, labels[i])
		}
	}
	ds := mustRows(feats(2, 2), xs, ys)
	s, err := New(Config{Kernel: RBF, C: 100, Gamma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(s, ds); acc != 1.0 {
		t.Fatalf("RBF XOR accuracy %v, want 1.0", acc)
	}
}

func TestSingleClassDegenerate(t *testing.T) {
	ds := mustRows(feats(2), []relational.Value{0, 1, 0}, []int8{1, 1, 1})
	s, err := New(Config{Kernel: RBF, C: 1, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if s.Predict([]relational.Value{1}) != 1 {
		t.Fatal("single-class fit must predict that class")
	}
}

// noisyDataset builds a mostly-separable two-feature set: feature 0 carries
// the label with flip-noise, feature 1 is irrelevant. Tiny domains and many
// examples guarantee duplicated rows, so zero-curvature pairs occur.
func noisyDataset(n int, seed uint64) *ml.Dataset {
	var xs []relational.Value
	var ys []int8
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Float64() < 0.1 {
			y = 1 - y
		}
		xs = append(xs, x0, relational.Value(r.Intn(4)))
		ys = append(ys, y)
	}
	return mustRows(feats(2, 4), xs, ys)
}

// TestOnDemandKernelMatchesGramCache drops the cache threshold below n so
// Fit evaluates kernel values on demand, and checks that fit against the
// cached one. The cache holds float32 values and the on-demand branch
// float64 ones, so the multipliers may differ in low bits; the predictions
// on the training set must not.
func TestOnDemandKernelMatchesGramCache(t *testing.T) {
	ds := noisyDataset(200, 5)
	fit := func(kind KernelKind) *SVM {
		s, err := New(Config{Kernel: kind, C: 10, Gamma: 0.5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return s
	}
	kinds := []KernelKind{RBF, Linear}
	var cached []*SVM
	for _, kind := range kinds {
		cached = append(cached, fit(kind))
	}
	old := gramCacheCap
	gramCacheCap = 8
	defer func() { gramCacheCap = old }()
	for k, kind := range kinds {
		onDemand := fit(kind)
		rows, _ := rowsOf(ds)
		for i, row := range rows {
			if a, b := cached[k].Predict(row), onDemand.Predict(row); a != b {
				t.Fatalf("%v: example %d: cached fit predicts %d, on-demand fit %d", kind, i, a, b)
			}
		}
	}
}

// TestMaxIterBoundsSupportSet pins the safety valve: a one-iteration budget
// terminates at once, and one pair step moves at most two multipliers. The
// seed is one whose first example violates KKT, so the step is taken.
func TestMaxIterBoundsSupportSet(t *testing.T) {
	ds := noisyDataset(100, 5)
	s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if sv := s.NumSupportVectors(); sv > 2 {
		t.Fatalf("MaxIter=1 retained %d support vectors, want ≤2", sv)
	}
}

func TestEmptyTrainRejected(t *testing.T) {
	s, err := New(Config{Kernel: Linear, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(mustRows(feats(2), nil, nil)); err == nil {
		t.Fatal("expected empty-train error")
	}
}

func TestSubsampleCap(t *testing.T) {
	r := rng.New(5)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 500; i++ {
		x0 := relational.Value(i % 2)
		xs = append(xs, x0, relational.Value(r.Intn(4)))
		ys = append(ys, int8(x0))
	}
	ds := mustRows(feats(2, 4), xs, ys)
	s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, SubsampleCap: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if s.NumSupportVectors() > 100 {
		t.Fatalf("cap violated: %d support vectors", s.NumSupportVectors())
	}
	if acc := ml.Accuracy(s, ds); acc < 0.99 {
		t.Fatalf("capped fit should still separate: accuracy %v", acc)
	}
}

func TestFKMemorization(t *testing.T) {
	// The §5 mechanism: FK functionally determines the label (via hidden
	// Xr); with several training examples per FK value, the RBF-SVM on
	// [FK] alone classifies seen FK values correctly.
	r := rng.New(13)
	const nR = 20
	labelOf := make([]int8, nR)
	for i := range labelOf {
		labelOf[i] = int8(r.Intn(2))
	}
	// ensure both classes exist
	labelOf[0], labelOf[1] = 0, 1
	var xs []relational.Value
	var ys []int8
	for i := 0; i < nR*8; i++ {
		fk := relational.Value(i % nR)
		xs = append(xs, fk)
		ys = append(ys, labelOf[fk])
	}
	ds := mustRows([]ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}, xs, ys)
	s, err := New(Config{Kernel: RBF, C: 100, Gamma: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(ds); err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for v := 0; v < nR; v++ {
		if s.Predict([]relational.Value{relational.Value(v)}) != labelOf[v] {
			wrong++
		}
	}
	if wrong > 0 {
		t.Fatalf("FK memorization failed on %d/%d values", wrong, nR)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	r := rng.New(19)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 80; i++ {
		a, b := r.Intn(3), r.Intn(3)
		xs = append(xs, relational.Value(a), relational.Value(b))
		ys = append(ys, int8((a+b)%2))
	}
	ds := mustRows(feats(3, 3), xs, ys)
	fit := func() []int8 {
		s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(ds); err != nil {
			t.Fatal(err)
		}
		var preds []int8
		rows, _ := rowsOf(ds)
		for _, row := range rows {
			preds = append(preds, s.Predict(row))
		}
		return preds
	}
	a, b := fit(), fit()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce predictions")
		}
	}
}

func TestNameAndKindString(t *testing.T) {
	s, _ := New(Config{Kernel: Quadratic, C: 1, Gamma: 1})
	if s.Name() != "SVM(quadratic)" {
		t.Fatalf("Name = %q", s.Name())
	}
	if Linear.String() != "linear" || RBF.String() != "rbf" || KernelKind(9).String() == "" {
		t.Fatal("kind names wrong")
	}
}

// GramRows fills the n×n row-major Gram matrix dst with k evaluated on every
// row pair through per-pair Eval calls — the historical row-at-a-time build
// (diagonal from Self, strict upper triangle mirrored as it is computed),
// kept as the oracle GramBlocked is pinned against.
func (k *Kernel) GramRows(dst []float32, rows [][]relational.Value) {
	n := len(rows)
	for i := 0; i < n; i++ {
		dst[i*n+i] = float32(k.Self())
		for j := i + 1; j < n; j++ {
			v := float32(k.Eval(rows[i], rows[j]))
			dst[i*n+j] = v
			dst[j*n+i] = v
		}
	}
}

func TestGramBlockedMatchesGramRows(t *testing.T) {
	// The blocked match-count Gram build (mat.MatchCounts + lookup table,
	// parallel i-blocks, panel layout) must reproduce the per-pair Eval
	// build bit for bit at every panel index for every kernel kind, across
	// sizes that exercise partial blocks and every short last panel.
	r := rng.New(97)
	for _, n := range []int{1, 2, 3, 5, 31, 70} {
		const d = 6
		block := make([]relational.Value, n*d)
		for i := range block {
			block[i] = relational.Value(r.Intn(4))
		}
		rows := make([][]relational.Value, n)
		for i := range rows {
			rows[i] = block[i*d : (i+1)*d]
		}
		for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
			k, err := NewKernel(kind, 0.3, d)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float32, n*n)
			k.GramRows(want, rows)
			got := make([]float32, GramLen(n))
			k.GramBlocked(got, block, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if g, w := got[gramAt(i, j, n)], want[i*n+j]; g != w {
						t.Fatalf("%v n=%d: entry (%d,%d) diverged: blocked %v vs rows %v",
							kind, n, i, j, g, w)
					}
				}
			}
		}
	}
}

// mustRows is ml.FromRows for test blocks that are valid by construction.
func mustRows(features []ml.Feature, x []relational.Value, y []int8) *ml.Dataset {
	d, err := ml.FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// rowsOf pins d's examples with ml.ScanRowMajor: rows[i] is example i's
// codes and labels[i] its class.
func rowsOf(d *ml.Dataset) (rows [][]relational.Value, labels []int8) {
	x, y := ml.ScanRowMajor(d)
	k := d.NumFeatures()
	rows = make([][]relational.Value, len(y))
	for i := range rows {
		rows[i] = x[i*k : (i+1)*k]
	}
	return rows, y
}
