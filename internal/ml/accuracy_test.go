package ml

import (
	"testing"

	"repro/internal/relational"
)

// accuracyOracle is the reference Accuracy is pinned against: one per-row
// exampleOf read per example, no batching.
func accuracyOracle(c Classifier, ds *Dataset) float64 {
	n := ds.NumExamples()
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if row, y := exampleOf(ds, i); c.Predict(row) == y {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// parityClassifier predicts from every feature of the row, so a feature
// read from the wrong example or column changes its answers.
type parityClassifier struct{}

func (parityClassifier) Fit(*Dataset) error { return nil }
func (parityClassifier) Predict(row []relational.Value) int8 {
	h := 0
	for j, v := range row {
		h += (j + 1) * int(v)
	}
	return int8(h>>1) & 1
}

// batchParity is parityClassifier with a BatchPredictor, so Accuracy takes
// its batch branch: PredictBatch classifies example by example through
// exampleOf.
type batchParity struct{ parityClassifier }

func (b batchParity) PredictBatch(ds *Dataset) []int8 {
	out := make([]int8, ds.NumExamples())
	for i := range out {
		out[i] = b.Predict(rowOf(ds, i))
	}
	return out
}

// TestAccuracyMatchesPerExampleOracle pins the batched Accuracy, and
// Accuracies over a mixed list, to the per-example oracle, exactly, on every batch backing and on split views
// several scoring morsels long, in memory and spilled under a cache of a
// few segments — both the morsel gather and, through batchParity, the
// BatchPredictor branch and its label scan.
func TestAccuracyMatchesPerExampleOracle(t *testing.T) {
	backings := batchBackings(t)
	_, jv := viewStar(t, 3*scoreMorsel+500, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	idx := make([]int, 0, jv.NumRows())
	for i := jv.NumRows() - 1; i >= 0; i -= 2 {
		idx = append(idx, i)
	}
	for i := 0; i < jv.NumRows(); i += 2 {
		idx = append(idx, i)
	}
	for name, opts := range map[string]relational.SegmentOptions{
		"long-split":         {SegmentSize: 256},
		"long-spilled-split": {SegmentSize: 64, SpillDir: t.TempDir(), CacheBytes: 2048},
	} {
		st, err := relational.MaterializeSegmented(jv, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		sel, err := relational.NewSelectView(st, idx)
		if err != nil {
			t.Fatal(err)
		}
		if backings[name], err = FromRelation(sel, cols, 0); err != nil {
			t.Fatal(err)
		}
	}
	for name, ds := range backings {
		cs := []Classifier{parityClassifier{}, batchParity{}, &ConstantClassifier{Class: 1}}
		all := Accuracies(cs, ds)
		for i, c := range cs {
			want := accuracyOracle(c, ds)
			if got := Accuracy(c, ds); got != want {
				t.Fatalf("%s %T: Accuracy = %v, per-example oracle = %v", name, c, got, want)
			}
			if all[i] != want {
				t.Fatalf("%s %T: Accuracies = %v, per-example oracle = %v", name, c, all[i], want)
			}
		}
	}
}
