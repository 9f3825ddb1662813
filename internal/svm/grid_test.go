package svm

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// requireGridMatches fits cfgs with FitGrid and requires every model to
// export the bits an independent New+Fit exports, and every accuracy to be
// ml.Accuracy of that independent model.
func requireGridMatches(t *testing.T, name string, cfgs []Config, train, val *ml.Dataset) {
	t.Helper()
	models, accs, err := FitGrid(cfgs, train, val)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, cfg := range cfgs {
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Fit(train); err != nil {
			t.Fatal(err)
		}
		gp, err := models[i].ExportParams()
		if err != nil {
			t.Fatal(err)
		}
		wp, err := want.ExportParams()
		if err != nil {
			t.Fatal(err)
		}
		sameParams(t, name, gp, wp)
		if wantAcc := ml.Accuracy(want, val); accs[i] != wantAcc {
			t.Fatalf("%s point %d: validation accuracy %v, independent fit %v", name, i, accs[i], wantAcc)
		}
	}
}

// kernelGrid is one kernel's C (× γ) grid at the given seed and cap.
func kernelGrid(kind KernelKind, capN int, seed uint64) []Config {
	var cfgs []Config
	for _, c := range []float64{1, 100} {
		if kind == Linear {
			cfgs = append(cfgs, Config{Kernel: kind, C: c, SubsampleCap: capN, Seed: seed})
			continue
		}
		for _, g := range []float64{0.01, 0.1, 1} {
			cfgs = append(cfgs, Config{Kernel: kind, C: c, Gamma: g, SubsampleCap: capN, Seed: seed})
		}
	}
	return cfgs
}

// TestFitGridMatchesIndependentFits pins FitGrid's shared subsample, Gram
// rows and validation counts to one independent fit per point, for every
// kernel: over a spilled relation with a subsample and several validation
// morsels, without a subsample, without the Gram cache, on the int32 match
// fallback, and for a single-class training set.
func TestFitGridMatchesIndependentFits(t *testing.T) {
	jv, cols, target := flightsJoin(t, 48, 7)
	st, err := relational.MaterializeSegmented(jv, "spilled", relational.SegmentOptions{
		SegmentSize: 64, SpillDir: t.TempDir(), CacheBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	all, err := ml.FromRelation(st, cols, target)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(3).Perm(all.NumExamples())
	half := len(perm) / 2
	train, val := all.Subset(perm[:half]), all.Subset(perm[half:])
	if val.NumExamples() < 2*predictMorsel {
		t.Fatalf("validation split of %d examples spans fewer than two morsels", val.NumExamples())
	}
	noisy, noisyVal := noisyDataset(200, 5), noisyDataset(3*predictMorsel+77, 6)
	var xs []relational.Value
	var ys []int8
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		x0 := relational.Value(r.Intn(2) << 16)
		xs = append(xs, x0, relational.Value(r.Intn(4)))
		ys = append(ys, int8(x0>>16))
	}
	wide := mustRows([]ml.Feature{{Name: "big", Cardinality: 1 << 17}, {Name: "f", Cardinality: 4}}, xs, ys)
	one := mustRows(feats(2, 4), []relational.Value{0, 1, 1, 2}, []int8{1, 1})
	for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
		requireGridMatches(t, kind.String()+"/spilled-subsample", kernelGrid(kind, 150, 7), train, val)
		requireGridMatches(t, kind.String()+"/uncapped", kernelGrid(kind, 0, 7), noisy, noisyVal)
		requireGridMatches(t, kind.String()+"/int32", kernelGrid(kind, 0, 7), wide, wide)
		requireGridMatches(t, kind.String()+"/single-class", kernelGrid(kind, 0, 7), one, noisyVal)
	}
	old := gramCacheCap
	gramCacheCap = 8
	defer func() { gramCacheCap = old }()
	requireGridMatches(t, "rbf/cacheless", kernelGrid(RBF, 0, 7), noisy, noisyVal)
}

// TestGridSearchMatchesMLGridSearch pins the winner: svm.GridSearch must
// pick ml.GridSearch's point, accuracy and model.
func TestGridSearchMatchesMLGridSearch(t *testing.T) {
	train, val := noisyDataset(300, 1), noisyDataset(200, 2)
	grid := ml.NewGrid().Axis("C", 1, 10, 100).Axis("gamma", 0.01, 0.5, 2)
	config := func(p ml.GridPoint) Config {
		return Config{Kernel: RBF, C: p["C"], Gamma: p["gamma"], SubsampleCap: 250, Seed: 4}
	}
	got, err := GridSearch(grid, config, train, val)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ml.GridSearch(grid, func(p ml.GridPoint) (ml.Classifier, error) { return New(config(p)) }, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestPoint.String() != want.BestPoint.String() || got.BestValAcc != want.BestValAcc || got.PointsTried != want.PointsTried {
		t.Fatalf("winner %v (%v of %d), ml.GridSearch %v (%v of %d)",
			got.BestPoint, got.BestValAcc, got.PointsTried, want.BestPoint, want.BestValAcc, want.PointsTried)
	}
	gp, _ := got.Best.(*SVM).ExportParams()
	wp, _ := want.Best.(*SVM).ExportParams()
	sameParams(t, "winner", gp, wp)
}

// TestFitGridRejectsMixedSamples: points that would draw different
// subsamples cannot share one.
func TestFitGridRejectsMixedSamples(t *testing.T) {
	ds := noisyDataset(50, 1)
	for _, cfgs := range [][]Config{
		{{Kernel: Linear, C: 1, Seed: 1}, {Kernel: Linear, C: 1, Seed: 2}},
		{{Kernel: Linear, C: 1, SubsampleCap: 10}, {Kernel: Linear, C: 1}},
		{{Kernel: Linear, C: 0}},
		{},
	} {
		if _, _, err := FitGrid(cfgs, ds, ds); err == nil {
			t.Fatalf("FitGrid(%v) accepted", cfgs)
		}
	}
}
