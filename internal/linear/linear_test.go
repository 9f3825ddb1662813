package linear

import (
	"math"
	"testing"

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

func TestLogRegRejectsEmpty(t *testing.T) {
	if err := NewLogReg(LogRegConfig{}).Fit(mustRows(feats(2), nil, nil)); err == nil {
		t.Fatal("expected error")
	}
}

func TestLogRegSeparable(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		x0 := relational.Value(i % 2)
		xs = append(xs, x0, relational.Value(r.Intn(3)))
		ys = append(ys, int8(x0))
	}
	ds := mustRows(feats(2, 3), xs, ys)
	m := NewLogReg(LogRegConfig{Lambda: 1e-4, Seed: 2})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc != 1.0 {
		t.Fatalf("separable accuracy %v, want 1.0", acc)
	}
}

func TestLogRegNoisySignal(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Bernoulli(0.1) {
			y = 1 - y
		}
		xs = append(xs, x0, relational.Value(r.Intn(5)))
		ys = append(ys, y)
	}
	ds := mustRows(feats(2, 5), xs, ys)
	m := NewLogReg(LogRegConfig{Lambda: 1e-3, Seed: 4})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc < 0.85 {
		t.Fatalf("noisy accuracy %v, want >= 0.85 (Bayes is 0.9)", acc)
	}
}

func TestL1SparsifiesNoiseWeights(t *testing.T) {
	// With strong L1, pure-noise features' weights should be driven to
	// (near) zero much more than with weak L1.
	build := func() *ml.Dataset {
		var xs []relational.Value
		var ys []int8
		r := rng.New(5)
		for i := 0; i < 2000; i++ {
			x0 := relational.Value(r.Intn(2))
			xs = append(xs, x0, relational.Value(r.Intn(50)))
			ys = append(ys, int8(x0))
		}
		return mustRows(feats(2, 50), xs, ys)
	}
	strong := NewLogReg(LogRegConfig{Lambda: 0.05, Seed: 6})
	weak := NewLogReg(LogRegConfig{Lambda: 0, Seed: 6})
	if err := strong.Fit(build()); err != nil {
		t.Fatal(err)
	}
	if err := weak.Fit(build()); err != nil {
		t.Fatal(err)
	}
	if strong.NonZeroWeights() >= weak.NonZeroWeights() {
		t.Fatalf("L1 should sparsify: strong=%d weak=%d nonzeros",
			strong.NonZeroWeights(), weak.NonZeroWeights())
	}
	if acc := ml.Accuracy(strong, build()); acc < 0.95 {
		t.Fatalf("strong-L1 accuracy %v dropped too far", acc)
	}
}

func TestLogRegDeterministic(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		v := relational.Value(r.Intn(4))
		xs = append(xs, v)
		ys = append(ys, int8(int(v)%2))
	}
	ds := mustRows(feats(4), xs, ys)
	fit := func() float64 {
		m := NewLogReg(LogRegConfig{Lambda: 1e-3, Seed: 9})
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return m.Decision(xs[:ds.NumFeatures()])
	}
	if fit() != fit() {
		t.Fatal("same seed must reproduce the model")
	}
}

func TestLogRegFKOverfitsAtLowTupleRatio(t *testing.T) {
	// The prior-work phenomenon the paper builds on: a linear model given a
	// huge-domain FK with few examples per value overfits — training
	// accuracy is far above test accuracy on fresh samples from the same
	// distribution. This is the "extra overfitting" the tuple ratio guards.
	const nR = 400
	const nTrain = 800 // tuple ratio 2
	xr := make([]int8, nR)
	r := rng.New(11)
	for i := range xr {
		xr[i] = int8(r.Intn(2))
	}
	gen := func(n int, rr *rng.RNG) *ml.Dataset {
		var xs []relational.Value
		var ys []int8
		for i := 0; i < n; i++ {
			fk := relational.Value(rr.Intn(nR))
			y := xr[fk]
			if rr.Bernoulli(0.2) {
				y = 1 - y
			}
			xs = append(xs, fk)
			ys = append(ys, y)
		}
		return mustRows([]ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}, xs, ys)
	}
	train := gen(nTrain, rng.New(13))
	test := gen(4000, rng.New(17))
	m := NewLogReg(LogRegConfig{Lambda: 0, Seed: 19})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	trainAcc := ml.Accuracy(m, train)
	testAcc := ml.Accuracy(m, test)
	if trainAcc-testAcc < 0.03 {
		t.Fatalf("expected visible overfitting gap at tuple ratio 2: train %v test %v", trainAcc, testAcc)
	}
}

func TestName(t *testing.T) {
	if NewLogReg(LogRegConfig{}).Name() != "LogisticRegression(L1)" {
		t.Fatal("name wrong")
	}
}

func TestL2ShrinksWeightNorm(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(81)
	for i := 0; i < 500; i++ {
		x0 := relational.Value(r.Intn(2))
		xs = append(xs, x0, relational.Value(r.Intn(5)))
		ys = append(ys, int8(x0))
	}
	ds := mustRows(feats(2, 5), xs, ys)
	norm := func(l2 float64) float64 {
		m := NewLogReg(LogRegConfig{L2: l2, Seed: 83})
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, w := range m.w {
			s += float64(w * w)
		}
		return s
	}
	if norm(1) >= norm(0) {
		t.Fatalf("L2 must shrink weight norm: %v vs %v", norm(1), norm(0))
	}
	// Accuracy should survive mild L2.
	m := NewLogReg(LogRegConfig{L2: 1e-3, Seed: 83})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc < 0.95 {
		t.Fatalf("mild-L2 accuracy %v", acc)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	// The SpGemmOneHot batch scorer must classify exactly as the per-row
	// Predict path — same bias-first fold in feature order — including on a
	// remapped Subset view, where the active-index scan goes through the
	// dataset's row remap.
	r := rng.New(71)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 300; i++ {
		a, b, c := r.Intn(3), r.Intn(4), r.Intn(2)
		xs = append(xs, relational.Value(a), relational.Value(b), relational.Value(c))
		ys = append(ys, int8((a+b)%2))
	}
	base := mustRows(feats(3, 4, 2), xs, ys)
	m := NewLogReg(LogRegConfig{Lambda: 1e-3, Seed: 73})
	if err := m.Fit(base); err != nil {
		t.Fatal(err)
	}
	sub := make([]int, 120)
	for i := range sub {
		sub[i] = r.Intn(300)
	}
	for name, ds := range map[string]*ml.Dataset{"table": base, "subset": base.Subset(sub)} {
		got := m.PredictBatch(ds)
		if len(got) != ds.NumExamples() {
			t.Fatalf("%s: PredictBatch returned %d classes for %d examples", name, len(got), ds.NumExamples())
		}
		x, _ := ml.ScanRowMajor(ds)
		k := ds.NumFeatures()
		for i := range got {
			if want := m.Predict(x[i*k : (i+1)*k]); got[i] != want {
				t.Fatalf("%s: example %d: batch class %d != Predict %d", name, i, got[i], want)
			}
		}
		if ml.Accuracy(m, ds) != accuracySequential(m, ds) {
			t.Fatalf("%s: batched Accuracy diverged from the sequential loop", name)
		}
	}
}

// softThresholdSwitch is the historical three-way L1 proximal step, kept as
// the oracle for the branch-free softThreshold.
func softThresholdSwitch(wk, shrink float64) float64 {
	switch {
	case wk > shrink:
		return wk - shrink
	case wk < -shrink:
		return wk + shrink
	default:
		return 0
	}
}

// TestSoftThresholdMatchesSwitch pins softThreshold to the switch bit for bit
// over a grid of weights (±0, subnormals, values at and either side of
// ±shrink, huge, ±Inf, NaN) and shrinks (0, subnormal, ordinary, huge, Inf).
func TestSoftThresholdMatchesSwitch(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	shrinks := []float64{0, tiny, 1e-300, 1e-4, 0.5, 1, 3, 1e300, math.MaxFloat64, math.Inf(1)}
	var ws []float64
	for _, v := range []float64{0, tiny, 2 * tiny, 1e-300, 1e-4, 0.25, 0.5, 1, 2.5, 3, 1e300, math.MaxFloat64, math.Inf(1)} {
		ws = append(ws, v, -v)
	}
	for _, s := range shrinks {
		ws = append(ws, s, -s, math.Nextafter(s, 0), -math.Nextafter(s, 0),
			math.Nextafter(s, math.Inf(1)), -math.Nextafter(s, math.Inf(1)))
	}
	ws = append(ws, math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8000000000123))
	for _, s := range shrinks {
		for _, w := range ws {
			got, want := softThreshold(w, s), softThresholdSwitch(w, s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("softThreshold(%v, %v) = %v (%#x), switch gives %v (%#x)",
					w, s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// fitSwitch is LogReg.Fit with the historical switch as its proximal step:
// the whole-fit oracle TestFitMatchesSwitchOracle compares against. It
// returns how many steps the switch thresholded to 0.
func fitSwitch(m *LogReg, train *ml.Dataset) (zeroed int) {
	m.enc = ml.NewEncoder(train.Features)
	m.w = make([]float64, m.enc.Dims)
	m.b = 0
	n := train.NumExamples()
	r := rng.New(m.cfg.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	d := train.NumFeatures()
	idxMat, labels := ml.ScanActiveIndices(train, m.enc)
	t := 1.0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		r.ShuffleInts(order)
		for _, i := range order {
			idx, y := idxMat[i*d:(i+1)*d], float64(labels[i])
			z := m.b
			for _, k := range idx {
				z += m.w[k]
			}
			g := sigmoid(z) - y
			eta := m.cfg.LearningRate / math.Sqrt(t)
			t++
			m.b -= float64(eta * g)
			shrink := float64(eta * m.cfg.Lambda)
			decay := 1 - float64(eta*m.cfg.L2)
			if decay < 0 {
				decay = 0
			}
			for _, k := range idx {
				m.w[k] = softThresholdSwitch(float64((m.w[k]-float64(eta*g))*decay), shrink)
				if m.w[k] == 0 {
					zeroed++
				}
			}
		}
	}
	return zeroed
}

// TestFitMatchesSwitchOracle requires Fit to produce the switch oracle's
// weights and bias bit for bit, with L1 off, light and strong, with and
// without the ridge term. At the strong L1 some steps must land inside
// ±shrink, so the thresholded-to-0 case is exercised too.
func TestFitMatchesSwitchOracle(t *testing.T) {
	r := rng.New(11)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 600; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Bernoulli(0.15) {
			y = 1 - y
		}
		xs = append(xs, x0, relational.Value(r.Intn(40)), relational.Value(r.Intn(3)))
		ys = append(ys, y)
	}
	ds := mustRows(feats(2, 40, 3), xs, ys)
	for _, lambda := range []float64{0, 1e-4, 1e-2} {
		for _, l2 := range []float64{0, 1e-3} {
			cfg := LogRegConfig{Lambda: lambda, L2: l2, Seed: 13}
			got, want := NewLogReg(cfg), NewLogReg(cfg)
			if err := got.Fit(ds); err != nil {
				t.Fatal(err)
			}
			zeroed := fitSwitch(want, ds)
			if math.Float64bits(got.b) != math.Float64bits(want.b) {
				t.Fatalf("lambda=%g l2=%g: bias %v, oracle %v", lambda, l2, got.b, want.b)
			}
			for k := range want.w {
				if math.Float64bits(got.w[k]) != math.Float64bits(want.w[k]) {
					t.Fatalf("lambda=%g l2=%g: w[%d] = %v, oracle %v", lambda, l2, k, got.w[k], want.w[k])
				}
			}
			if lambda == 1e-2 && zeroed == 0 {
				t.Fatalf("lambda=%g l2=%g: no step thresholded to 0, so the inner case went untested", lambda, l2)
			}
		}
	}
}

// accuracySequential is the historical per-row Accuracy loop, kept here as
// the reference the BatchPredictor fast path is pinned against.
func accuracySequential(c ml.Classifier, ds *ml.Dataset) float64 {
	x, y := ml.ScanRowMajor(ds)
	k := ds.NumFeatures()
	correct := 0
	for i := range y {
		if c.Predict(x[i*k:(i+1)*k]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.NumExamples())
}

// mustRows is ml.FromRows for test blocks that are valid by construction.
func mustRows(features []ml.Feature, x []relational.Value, y []int8) *ml.Dataset {
	d, err := ml.FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}
