package tree

import (
	"reflect"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// gridDataset is a noisy label over a wide foreign-key-like feature and
// three small ones, deep enough for every minsplit and cp of the paper's
// grid to cut a different tree.
func gridDataset(n int, seed uint64) *ml.Dataset {
	r := rng.New(seed)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < n; i++ {
		fk, a, b, c := r.Intn(60), r.Intn(3), r.Intn(4), r.Intn(2)
		y := int8((fk%3 + a*b + c) % 2)
		if r.Intn(6) == 0 {
			y = 1 - y
		}
		xs = append(xs, relational.Value(fk), relational.Value(a), relational.Value(b), relational.Value(c))
		ys = append(ys, y)
	}
	return mustRows(feats(60, 3, 4, 2), xs, ys)
}

// gridConfigs is the minsplit × cp cross product at a criterion.
func gridConfigs(criterion Criterion, minSplits []int, cps []float64) []Config {
	var cfgs []Config
	for _, m := range minSplits {
		for _, cp := range cps {
			cfgs = append(cfgs, Config{Criterion: criterion, MinSplit: m, CP: cp})
		}
	}
	return cfgs
}

// TestFitGridMatchesIndependentFits pins the grow-once walk: at every point
// of the paper's full and reduced grids (and the simulation grid, whose
// loosest point is cp = 0), for every criterion, FitGrid's tree must export
// exactly what an independent Fit exports — node numbering, cut leaves and
// all — and its validation accuracy must be ml.Accuracy's.
func TestFitGridMatchesIndependentFits(t *testing.T) {
	train, val := gridDataset(3000, 1), gridDataset(1500, 2)
	grids := map[string][2]any{
		"full": {[]int{1, 10, 100, 1000}, []float64{1e-4, 1e-3, 0.01, 0.1, 0}},
		"fast": {[]int{10, 100}, []float64{1e-3, 0.01}},
		"sim":  {[]int{1, 10, 100}, []float64{1e-3, 0.01, 0}},
	}
	for _, criterion := range []Criterion{Gini, InfoGain, GainRatio} {
		for name, g := range grids {
			cfgs := gridConfigs(criterion, g[0].([]int), g[1].([]float64))
			cfgs[0].Unseen = UnseenSmooth // prediction-time settings ride along
			trees, accs, err := FitGrid(cfgs, train, val)
			if err != nil {
				t.Fatal(err)
			}
			sizes := map[int]bool{}
			for i, cfg := range cfgs {
				want := New(cfg)
				if err := want.Fit(train); err != nil {
					t.Fatal(err)
				}
				gp, err := trees[i].ExportParams()
				if err != nil {
					t.Fatal(err)
				}
				wp, err := want.ExportParams()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gp, wp) {
					t.Fatalf("%v/%s point %d (%+v): derived tree (%d nodes) differs from a direct grow (%d nodes)",
						criterion, name, i, cfg, len(gp.Nodes), len(wp.Nodes))
				}
				if wantAcc := ml.Accuracy(want, val); accs[i] != wantAcc {
					t.Fatalf("%v/%s point %d: validation accuracy %v, independent fit %v", criterion, name, i, accs[i], wantAcc)
				}
				sizes[len(wp.Nodes)] = true
			}
			if len(sizes) < 3 {
				t.Fatalf("%v/%s: only %d distinct tree sizes; the grid cuts too little to test the walk", criterion, name, len(sizes))
			}
		}
	}
}

// TestGridSearchMatchesMLGridSearch pins the winner: tree.GridSearch must
// pick ml.GridSearch's point, accuracy and tree.
func TestGridSearchMatchesMLGridSearch(t *testing.T) {
	train, val := gridDataset(2000, 3), gridDataset(800, 4)
	grid := ml.NewGrid().Axis("minsplit", 1, 10, 100).Axis("cp", 1e-3, 0.01, 0)
	config := func(p ml.GridPoint) Config {
		return Config{Criterion: InfoGain, MinSplit: int(p["minsplit"]), CP: p["cp"]}
	}
	got, err := GridSearch(grid, config, train, val)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ml.GridSearch(grid, func(p ml.GridPoint) (ml.Classifier, error) { return New(config(p)), nil }, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestPoint.String() != want.BestPoint.String() || got.BestValAcc != want.BestValAcc || got.PointsTried != want.PointsTried {
		t.Fatalf("winner %v (%v of %d), ml.GridSearch %v (%v of %d)",
			got.BestPoint, got.BestValAcc, got.PointsTried, want.BestPoint, want.BestValAcc, want.PointsTried)
	}
	gp, _ := got.Best.(*Tree).ExportParams()
	wp, _ := want.Best.(*Tree).ExportParams()
	if !reflect.DeepEqual(gp, wp) {
		t.Fatal("winning trees differ")
	}
}

// TestFitGridRejectsMixedGrowth: points that grow differently cannot share
// one grow.
func TestFitGridRejectsMixedGrowth(t *testing.T) {
	ds := gridDataset(50, 1)
	for _, cfgs := range [][]Config{
		{{Criterion: Gini}, {Criterion: InfoGain}},
		{{Criterion: Gini}, {Criterion: Gini, MaxDepth: 3}},
		{},
	} {
		if _, _, err := FitGrid(cfgs, ds, ds); err == nil {
			t.Fatalf("FitGrid(%v) accepted", cfgs)
		}
	}
}
