package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
	"repro/internal/svm"
	"repro/internal/tree"
)

// encoded returns c's model artifact bytes over features.
func encoded(t *testing.T, c ml.Classifier, features []ml.Feature) []byte {
	t.Helper()
	m, err := model.New(c, features, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// backwardSelectOracle is the historical backward-selection loop, kept as
// the reference nb.BackwardSelect is pinned against: every candidate is
// scored by a fresh ml.Accuracy pass over the validation split.
func backwardSelectOracle(t *testing.T, train, val *ml.Dataset) (*nb.NaiveBayes, float64) {
	t.Helper()
	m := nb.New(nb.Config{})
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	best := ml.Accuracy(m, val)
	for {
		p, err := m.ExportParams()
		if err != nil {
			t.Fatal(err)
		}
		var active []int
		for j, on := range p.Active {
			if on {
				active = append(active, j)
			}
		}
		bestDrop, bestAcc := -1, best
		for _, j := range active {
			if len(active) == 1 {
				break
			}
			m.SetActive(j, false)
			acc := ml.Accuracy(m, val)
			m.SetActive(j, true)
			if acc > bestAcc+1e-12 {
				bestAcc, bestDrop = acc, j
			}
		}
		if bestDrop < 0 {
			return m, best
		}
		m.SetActive(bestDrop, false)
		best = bestAcc
	}
}

// requireGridPoints requires every shared-path model to encode to the
// bytes of an independent fit at its point, and its validation accuracy
// to be ml.Accuracy of that fit.
func requireGridPoints(t *testing.T, name string, points []ml.GridPoint, models []ml.Classifier, accs []float64,
	independent func(ml.GridPoint) ml.Classifier, train, val *ml.Dataset) {
	t.Helper()
	for i, p := range points {
		want := independent(p)
		if err := want.Fit(train); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encoded(t, models[i], train.Features), encoded(t, want, train.Features)) {
			t.Fatalf("%s at %v: shared-path model differs from an independent fit", name, p)
		}
		if wantAcc := ml.Accuracy(want, val); accs[i] != wantAcc {
			t.Fatalf("%s at %v: validation accuracy %v, independent fit %v", name, p, accs[i], wantAcc)
		}
	}
}

// requireWinner requires spec's tuned model, point and validation accuracy
// to equal ml.GridSearch's over independent fits.
func requireWinner(t *testing.T, spec Spec, grid *ml.Grid, independent func(ml.GridPoint) ml.Classifier, train, val *ml.Dataset) {
	t.Helper()
	got, point, acc, err := spec.Train(train, val, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ml.GridSearch(grid, func(p ml.GridPoint) (ml.Classifier, error) { return independent(p), nil }, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if point.String() != want.BestPoint.String() || acc != want.BestValAcc {
		t.Fatalf("%s: winner %v (%v), independent grid %v (%v)", spec.Name, point, acc, want.BestPoint, want.BestValAcc)
	}
	if !bytes.Equal(encoded(t, got, train.Features), encoded(t, want.Best, train.Features)) {
		t.Fatalf("%s: winning models differ", spec.Name)
	}
}

// TestSharedGridFitsMatchIndependentFits is the acceptance pin of the
// shared grid fitters: at every point of the tree grids (every criterion,
// both efforts) and the SVM grids (every kernel), and for Naive Bayes
// backward selection, the shared path's artifact bytes, validation
// accuracies and winner equal independent fits' — on Flights and Movies,
// in memory and spilled, for JoinAll and NoJoin, at GOMAXPROCS 1 and 2.
func TestSharedGridFitsMatchIndependentFits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, scale := range map[string]int{"Flights": 32, "Movies": 512} {
		dspec, err := dataset.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dataset.Generate(dspec, scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		mem, err := NewEnv(ss, 7)
		if err != nil {
			t.Fatal(err)
		}
		withSegmentDefaults(t, relational.SegmentOptions{SegmentSize: 128, SpillDir: t.TempDir(), CacheBytes: 8 << 10})
		spilled, err := NewEnvEngine(ss, 7, EngineSegmented)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { spilled.Close() })
		if st, ok := spilled.Joined.(*relational.SegmentedTable); !ok || !st.Spilled() {
			t.Fatalf("joined is %T, want a spilled *relational.SegmentedTable", spilled.Joined)
		}
		for engine, env := range map[string]*Env{"in-memory": mem, "spilled": spilled} {
			for _, view := range []ml.View{ml.JoinAll, ml.NoJoin} {
				train, val, _, err := env.ViewSplits(view, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, procs := range []int{1, 2} {
					runtime.GOMAXPROCS(procs)
					where := fmt.Sprintf("%s/%s/%v/GOMAXPROCS=%d", name, engine, view, procs)
					requireSharedGrids(t, where, train, val)
				}
			}
		}
	}
}

// requireSharedGrids runs every shared-path check of
// TestSharedGridFitsMatchIndependentFits on one split.
func requireSharedGrids(t *testing.T, where string, train, val *ml.Dataset) {
	t.Helper()
	for _, criterion := range []tree.Criterion{tree.Gini, tree.InfoGain, tree.GainRatio} {
		config := treeConfig(criterion)
		independent := func(p ml.GridPoint) ml.Classifier { return tree.New(config(p)) }
		for _, effort := range []Effort{EffortFast, EffortFull} {
			points := treeGrid(effort).Points()
			cfgs := make([]tree.Config, len(points))
			for i, p := range points {
				cfgs[i] = config(p)
			}
			trees, accs, err := tree.FitGrid(cfgs, train, val)
			if err != nil {
				t.Fatal(err)
			}
			models := make([]ml.Classifier, len(trees))
			for i, tr := range trees {
				models[i] = tr
			}
			name := fmt.Sprintf("%s tree(%v) effort %d", where, criterion, effort)
			requireGridPoints(t, name, points, models, accs, independent, train, val)
			requireWinner(t, TreeSpec(criterion, effort), treeGrid(effort), independent, train, val)
		}
	}
	const svmCap = 100
	for _, kind := range []svm.KernelKind{svm.Linear, svm.Quadratic, svm.RBF} {
		config := svmConfig(kind, svmCap, 7)
		independent := func(p ml.GridPoint) ml.Classifier {
			s, err := svm.New(config(p))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		grid := svmGrid(kind, EffortFast)
		points := grid.Points()
		cfgs := make([]svm.Config, len(points))
		for i, p := range points {
			cfgs[i] = config(p)
		}
		fitted, accs, err := svm.FitGrid(cfgs, train, val)
		if err != nil {
			t.Fatal(err)
		}
		models := make([]ml.Classifier, len(fitted))
		for i, s := range fitted {
			models[i] = s
		}
		requireGridPoints(t, where+" svm("+kind.String()+")", points, models, accs, independent, train, val)
		requireWinner(t, SVMSpec(kind, EffortFast, svmCap), grid, independent, train, val)
	}
	got, acc, err := nb.BackwardSelect(nb.Config{}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	want, wantAcc := backwardSelectOracle(t, train, val)
	if acc != wantAcc || !bytes.Equal(encoded(t, got, train.Features), encoded(t, want, train.Features)) {
		t.Fatalf("%s NaiveBayes(BFS): selection (val %v) differs from the ml.Accuracy oracle's (val %v)", where, acc, wantAcc)
	}
}
