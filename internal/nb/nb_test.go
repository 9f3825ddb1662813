package nb

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

func TestFitRejectsEmpty(t *testing.T) {
	if err := New(Config{}).Fit(&ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLearnsConditionalSignal(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2, 3)}
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		x0 := relational.Value(r.Intn(2))
		y := int8(x0)
		if r.Bernoulli(0.1) {
			y = 1 - y
		}
		ds.X = append(ds.X, x0, relational.Value(r.Intn(3)))
		ds.Y = append(ds.Y, y)
	}
	m := New(Config{})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc < 0.85 {
		t.Fatalf("accuracy %v, want >= 0.85", acc)
	}
}

func TestLaplaceSmoothingHandlesUnseenValue(t *testing.T) {
	// Value 2 of feature 0 never appears in training; prediction must not
	// blow up (no -Inf) and should follow the prior.
	ds := &ml.Dataset{
		Features: feats(3),
		X:        []relational.Value{0, 0, 1, 1, 1},
		Y:        []int8{0, 0, 1, 1, 1},
	}
	m := New(Config{Alpha: 1})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got := m.Predict([]relational.Value{2})
	if got != 1 {
		t.Fatalf("unseen value should fall back to prior-dominant class 1, got %d", got)
	}
}

func TestPosteriorMatchesHandComputation(t *testing.T) {
	// 4 examples, 1 binary feature; verify the smoothed posterior decision
	// boundary against hand-computed values.
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 0, 1, 1},
		Y:        []int8{0, 0, 1, 1},
	}
	m := New(Config{Alpha: 1})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// P(Y=0)=P(Y=1)=0.5; P(x=0|Y=0) = (2+1)/(2+2) = 0.75;
	// P(x=0|Y=1) = (0+1)/(2+2) = 0.25. So x=0 → class 0, x=1 → class 1.
	if m.Predict([]relational.Value{0}) != 0 || m.Predict([]relational.Value{1}) != 1 {
		t.Fatal("hand-computed posterior decision violated")
	}
}

func TestSetActiveSuppressesFeature(t *testing.T) {
	// Feature 0 predicts perfectly; feature 1 carries a weaker opposite
	// association on the input we probe. Deactivating the dominant feature
	// must flip the prediction for {0, 0}.
	ds := &ml.Dataset{
		Features: feats(2, 2),
		X: []relational.Value{
			0, 1,
			0, 1,
			0, 1,
			0, 0,
			1, 0,
			1, 0,
			1, 0,
			1, 1,
		},
		Y: []int8{0, 0, 0, 0, 1, 1, 1, 1},
	}
	m := New(Config{})
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	before := m.Predict([]relational.Value{0, 0})
	m.SetActive(0, false)
	after := m.Predict([]relational.Value{0, 0})
	if before == after {
		t.Fatal("deactivating the dominant feature should flip the prediction")
	}
	if got := m.ActiveFeatures(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ActiveFeatures = %v", got)
	}
}

func TestBackwardSelectDropsNoise(t *testing.T) {
	// Build train/validation where feature 0 is pure signal and features
	// 1..4 are noise that hurts validation slightly; BFS should keep
	// accuracy at least at the all-features level and typically drop noise.
	r := rng.New(5)
	gen := func(n int, rr *rng.RNG) *ml.Dataset {
		ds := &ml.Dataset{Features: feats(2, 8, 8, 8, 8)}
		for i := 0; i < n; i++ {
			x0 := relational.Value(rr.Intn(2))
			y := int8(x0)
			if rr.Bernoulli(0.05) {
				y = 1 - y
			}
			ds.X = append(ds.X, x0,
				relational.Value(rr.Intn(8)), relational.Value(rr.Intn(8)),
				relational.Value(rr.Intn(8)), relational.Value(rr.Intn(8)))
			ds.Y = append(ds.Y, y)
		}
		return ds
	}
	train := gen(400, r)
	val := gen(200, r)
	m, valAcc, err := BackwardSelect(Config{}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	full := New(Config{})
	if err := full.Fit(train); err != nil {
		t.Fatal(err)
	}
	if fullAcc := ml.Accuracy(full, val); valAcc < fullAcc {
		t.Fatalf("BFS validation accuracy %v must be >= full-model %v", valAcc, fullAcc)
	}
	// Signal feature must survive.
	kept := m.ActiveFeatures()
	has0 := false
	for _, j := range kept {
		if j == 0 {
			has0 = true
		}
	}
	if !has0 {
		t.Fatalf("BFS dropped the signal feature; kept %v", kept)
	}
}

func TestBackwardSelectNeverDropsLastFeature(t *testing.T) {
	ds := &ml.Dataset{
		Features: feats(2),
		X:        []relational.Value{0, 1, 0, 1},
		Y:        []int8{1, 0, 0, 1}, // pure noise
	}
	m, _, err := BackwardSelect(Config{}, ds, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ActiveFeatures()) != 1 {
		t.Fatalf("must keep >= 1 feature, kept %d", len(m.ActiveFeatures()))
	}
}

func TestBackwardSelectEmptyValidation(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2), X: []relational.Value{0}, Y: []int8{1}}
	if _, _, err := BackwardSelect(Config{}, ds, &ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected empty-validation error")
	}
}

func TestAlphaDefaultAndName(t *testing.T) {
	m := New(Config{Alpha: -3})
	if m.cfg.Alpha != 1 {
		t.Fatalf("alpha default not applied: %v", m.cfg.Alpha)
	}
	if m.Name() != "NaiveBayes" {
		t.Fatal("name wrong")
	}
	if math.IsNaN(ln(1)) || ln(1) != 0 {
		t.Fatal("ln broken")
	}
}

// rowCounts is the historical example-at-a-time counting loop, kept as the
// oracle the batched counting path is pinned against.
func rowCounts(train *ml.Dataset, enc *ml.Encoder) (classN [2]float64, counts []float64) {
	counts = make([]float64, enc.Dims*2)
	buf := make([]relational.Value, train.NumFeatures())
	for i := 0; i < train.NumExamples(); i++ {
		c := int(train.Label(i))
		classN[c]++
		for j, v := range train.RowInto(buf, i) {
			counts[enc.Index(j, v)*2+c]++
		}
	}
	return classN, counts
}

// TestBatchFitMatchesRowAtATime pins the batch counting path to the
// example-at-a-time oracle: the fitted priors and conditional tables must
// equal the ones the oracle's counts yield, on dense and on subset-view
// datasets.
func TestBatchFitMatchesRowAtATime(t *testing.T) {
	r := rng.New(17)
	ds := &ml.Dataset{Features: feats(4, 7, 2, 300)}
	n := 3000
	for i := 0; i < n; i++ {
		x := []relational.Value{
			relational.Value(r.Intn(4)), relational.Value(r.Intn(7)),
			relational.Value(r.Intn(2)), relational.Value(r.Intn(300)),
		}
		ds.X = append(ds.X, x...)
		y := int8(0)
		if int(x[0])+int(x[3])%3 > 2 {
			y = 1
		}
		ds.Y = append(ds.Y, y)
	}
	sub := make([]int, 0, n/2)
	for i := 0; i < n; i += 2 {
		sub = append(sub, i)
	}
	for name, train := range map[string]*ml.Dataset{
		"dense":         ds,
		"subset-view":   ds.Subset(sub),
		"feature-remap": ds.SelectFeatures([]int{3, 0, 1}),
	} {
		batch := New(Config{})
		if err := batch.Fit(train); err != nil {
			t.Fatalf("%s: batch fit: %v", name, err)
		}
		classN, counts := rowCounts(train, batch.enc)
		alpha, n := batch.cfg.Alpha, float64(train.NumExamples())
		for c := 0; c < 2; c++ {
			if want := logf((classN[c] + alpha) / (n + 2*alpha)); batch.logPrior[c] != want {
				t.Fatalf("%s: logPrior[%d] = %v, oracle %v", name, c, batch.logPrior[c], want)
			}
		}
		for j, f := range train.Features {
			card := float64(f.Cardinality)
			for v := 0; v < f.Cardinality; v++ {
				for c, k := 0, batch.enc.Index(j, relational.Value(v)); c < 2; c++ {
					want := logf((counts[k*2+c] + alpha) / (classN[c] + alpha*card))
					if batch.logLik[k*2+c] != want {
						t.Fatalf("%s: logLik[%d] = %v, oracle %v", name, k*2+c, batch.logLik[k*2+c], want)
					}
				}
			}
		}
	}
}
