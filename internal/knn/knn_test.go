package knn

import (
	"sync"
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

// mustRows is ml.FromRows for test blocks that are valid by construction.
func mustRows(features []ml.Feature, x []relational.Value, y []int8) *ml.Dataset {
	d, err := ml.FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}

func TestFitRejectsEmpty(t *testing.T) {
	if err := New().Fit(mustRows(feats(2), nil, nil)); err == nil {
		t.Fatal("expected error")
	}
}

func TestExactMatchWins(t *testing.T) {
	ds := mustRows(feats(3, 3), []relational.Value{0, 0, 1, 1, 2, 2}, []int8{0, 1, 0})
	k := New()
	if err := k.Fit(ds); err != nil {
		t.Fatal(err)
	}
	x, y := ml.ScanRowMajor(ds)
	for i := 0; i < 3; i++ {
		if k.Predict(x[i*2:(i+1)*2]) != y[i] {
			t.Fatalf("1-NN must have perfect training accuracy, wrong at %d", i)
		}
	}
}

func TestTrainAccuracyIsPerfectOnDistinctRows(t *testing.T) {
	// Paper Table 5: 1-NN training accuracy is 1 whenever rows are distinct.
	r := rng.New(3)
	var x []relational.Value
	var y []int8
	for i := 0; i < 40; i++ {
		x = append(x, relational.Value(i), relational.Value(r.Intn(50)))
		y = append(y, int8(r.Intn(2)))
	}
	ds := mustRows(feats(50, 50), x, y)
	k := New()
	if err := k.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(k, ds); acc != 1.0 {
		t.Fatalf("train accuracy %v, want 1.0", acc)
	}
}

func TestNearestByHamming(t *testing.T) {
	ds := mustRows(feats(4, 4, 4), []relational.Value{
		0, 0, 0,
		3, 3, 3,
	}, []int8{0, 1})
	k := New()
	if err := k.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if k.Predict([]relational.Value{0, 0, 3}) != 0 {
		t.Fatal("closer to all-zeros row")
	}
	if k.Predict([]relational.Value{0, 3, 3}) != 1 {
		t.Fatal("closer to all-threes row")
	}
}

func TestTieBreaksToEarliest(t *testing.T) {
	ds := mustRows(feats(4, 4), []relational.Value{
		0, 1,
		1, 0,
	}, []int8{1, 0})
	k := New()
	if err := k.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// {0,0} matches each stored row on one feature: tie → earliest (label 1).
	if k.Predict([]relational.Value{0, 0}) != 1 {
		t.Fatal("tie must break to the earliest training example")
	}
}

func TestFKMemorizationProperty(t *testing.T) {
	// The paper's §5 insight: when X_S is empty and FK functionally
	// determines the (discarded) X_R that defines Y, 1-NN with NoJoin
	// memorizes FK and still generalizes to test rows whose FK was seen.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nR := r.Intn(20) + 5
		labelOf := make([]int8, nR)
		for i := range labelOf {
			labelOf[i] = int8(r.Intn(2))
		}
		var x []relational.Value
		var y []int8
		for i := 0; i < nR*4; i++ {
			fk := relational.Value(i % nR)
			x = append(x, fk)
			y = append(y, labelOf[fk])
		}
		ds := mustRows(feats(nR), x, y)
		k := New()
		if err := k.Fit(ds); err != nil {
			return false
		}
		for v := 0; v < nR; v++ {
			if k.Predict([]relational.Value{relational.Value(v)}) != labelOf[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestName(t *testing.T) {
	if New().Name() != "1-NN" {
		t.Fatal("name wrong")
	}
}

// TestFromParamsValidates pins the artifact checks: malformed params are an
// error, and valid params round-trip through ExportParams.
func TestFromParamsValidates(t *testing.T) {
	fs := feats(3, 2)
	bad := map[string]Params{
		"ragged block":         {X: []relational.Value{0, 1, 2}, Y: []int8{0, 1}},
		"rows vs labels":       {X: []relational.Value{0, 1}, Y: []int8{0, 1}},
		"empty":                {},
		"label 2":              {X: []relational.Value{0, 1}, Y: []int8{2}},
		"code past its domain": {X: []relational.Value{0, 1, 2, 2}, Y: []int8{0, 1}},
		"negative code":        {X: []relational.Value{-1, 0}, Y: []int8{0}},
	}
	for name, p := range bad {
		if _, err := FromParams(fs, p); err == nil {
			t.Errorf("%s: FromParams accepted the params", name)
		}
	}
	k := New()
	if err := k.Fit(mustRows(fs, []relational.Value{2, 1, 0, 0}, []int8{1, 0})); err != nil {
		t.Fatal(err)
	}
	p, err := k.ExportParams()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromParams(fs, p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Predict([]relational.Value{2, 1}) != 1 || back.Predict([]relational.Value{0, 0}) != 0 {
		t.Fatal("round-tripped classifier predicts differently")
	}
	if _, err := New().ExportParams(); err == nil {
		t.Fatal("export before Fit must fail")
	}
}

// TestPredictConcurrent fits on a row-remapped view and predicts from
// several goroutines at once: Predict reads only the rows pinned at Fit, so
// every concurrent answer equals the sequential one (run under -race).
func TestPredictConcurrent(t *testing.T) {
	r := rng.New(9)
	var x []relational.Value
	var y []int8
	for i := 0; i < 200; i++ {
		x = append(x, relational.Value(r.Intn(6)), relational.Value(r.Intn(5)), relational.Value(r.Intn(4)))
		y = append(y, int8(r.Intn(2)))
	}
	fs := feats(6, 5, 4)
	idx := make([]int, 0, 100)
	for i := 199; i >= 0; i -= 2 {
		idx = append(idx, i)
	}
	k := New()
	if err := k.Fit(mustRows(fs, x, y).Subset(idx)); err != nil {
		t.Fatal(err)
	}
	queries := make([][]relational.Value, 60)
	want := make([]int8, len(queries))
	for q := range queries {
		queries[q] = []relational.Value{relational.Value(r.Intn(6)), relational.Value(r.Intn(5)), relational.Value(r.Intn(4))}
		want[q] = k.Predict(queries[q])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q, row := range queries {
				if got := k.Predict(row); got != want[q] {
					t.Errorf("query %d: concurrent prediction %d, sequential %d", q, got, want[q])
				}
			}
		}()
	}
	wg.Wait()
}
