package linear

import (
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
	if err := NewLogReg(LogRegConfig{}).Fit(&ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLogRegSeparable(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2, 3)}
	r := rng.New(1)
	for i := 0; i < 200; i++ {
		x0 := relational.Value(i % 2)
		ds.X = append(ds.X, x0, relational.Value(r.Intn(3)))
		ds.Y = append(ds.Y, int8(x0))
	}
	m := NewLogReg(LogRegConfig{Lambda: 1e-4, Seed: 2})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc != 1.0 {
		t.Fatalf("separable accuracy %v, want 1.0", acc)
	}
}

func TestLogRegNoisySignal(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2, 5)}
	r := rng.New(3)
	for i := 0; i < 1000; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Bernoulli(0.1) {
			y = 1 - y
		}
		ds.X = append(ds.X, x0, relational.Value(r.Intn(5)))
		ds.Y = append(ds.Y, y)
	}
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
		ds := &ml.Dataset{Features: feats(2, 50)}
		r := rng.New(5)
		for i := 0; i < 2000; i++ {
			x0 := relational.Value(r.Intn(2))
			ds.X = append(ds.X, x0, relational.Value(r.Intn(50)))
			ds.Y = append(ds.Y, int8(x0))
		}
		return ds
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
	ds := &ml.Dataset{Features: feats(4)}
	r := rng.New(7)
	for i := 0; i < 100; i++ {
		v := relational.Value(r.Intn(4))
		ds.X = append(ds.X, v)
		ds.Y = append(ds.Y, int8(int(v)%2))
	}
	fit := func() float64 {
		m := NewLogReg(LogRegConfig{Lambda: 1e-3, Seed: 9})
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return m.Decision(ds.Row(0))
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
		ds := &ml.Dataset{Features: []ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}}
		for i := 0; i < n; i++ {
			fk := relational.Value(rr.Intn(nR))
			y := xr[fk]
			if rr.Bernoulli(0.2) {
				y = 1 - y
			}
			ds.X = append(ds.X, fk)
			ds.Y = append(ds.Y, y)
		}
		return ds
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
	ds := &ml.Dataset{Features: feats(2, 5)}
	r := rng.New(81)
	for i := 0; i < 500; i++ {
		x0 := relational.Value(r.Intn(2))
		ds.X = append(ds.X, x0, relational.Value(r.Intn(5)))
		ds.Y = append(ds.Y, int8(x0))
	}
	norm := func(l2 float64) float64 {
		m := NewLogReg(LogRegConfig{L2: l2, Seed: 83})
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, w := range m.w {
			s += w * w
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
	base := &ml.Dataset{Features: feats(3, 4, 2)}
	for i := 0; i < 300; i++ {
		a, b, c := r.Intn(3), r.Intn(4), r.Intn(2)
		base.X = append(base.X, relational.Value(a), relational.Value(b), relational.Value(c))
		base.Y = append(base.Y, int8((a+b)%2))
	}
	m := NewLogReg(LogRegConfig{Lambda: 1e-3, Seed: 73})
	if err := m.Fit(base); err != nil {
		t.Fatal(err)
	}
	sub := make([]int, 120)
	for i := range sub {
		sub[i] = r.Intn(300)
	}
	for name, ds := range map[string]*ml.Dataset{"dense": base, "view": base.Subset(sub)} {
		got := m.PredictBatch(ds)
		if len(got) != ds.NumExamples() {
			t.Fatalf("%s: PredictBatch returned %d classes for %d examples", name, len(got), ds.NumExamples())
		}
		buf := make([]relational.Value, ds.NumFeatures())
		for i := range got {
			if want := m.Predict(ds.RowInto(buf, i)); got[i] != want {
				t.Fatalf("%s: example %d: batch class %d != Predict %d", name, i, got[i], want)
			}
		}
		if ml.Accuracy(m, ds) != accuracySequential(m, ds) {
			t.Fatalf("%s: batched Accuracy diverged from the sequential loop", name)
		}
	}
}

// accuracySequential is the historical per-row Accuracy loop, kept here as
// the reference the BatchPredictor fast path is pinned against.
func accuracySequential(c ml.Classifier, ds *ml.Dataset) float64 {
	buf := make([]relational.Value, ds.NumFeatures())
	correct := 0
	for i := 0; i < ds.NumExamples(); i++ {
		if c.Predict(ds.RowInto(buf, i)) == ds.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(ds.NumExamples())
}
