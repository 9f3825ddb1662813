package tree

import (
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// TestRelabelInvariance checks a defining property of categorical learners:
// renaming a feature's value codes by any permutation must not change any
// prediction, because categorical codes carry no order. This is exactly why
// a foreign key — an arbitrary identifier — can act as a feature at all.
func TestRelabelInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const card = 8
		n := r.Intn(120) + 40
		fs := []ml.Feature{
			{Name: "a", Cardinality: card},
			{Name: "b", Cardinality: 3},
		}
		var xs []relational.Value
		var ys []int8
		for i := 0; i < n; i++ {
			a := r.Intn(card)
			xs = append(xs, relational.Value(a), relational.Value(r.Intn(3)))
			y := int8(a % 2)
			if r.Bernoulli(0.1) {
				y = 1 - y
			}
			ys = append(ys, y)
		}
		ds := mustRows(fs, xs, ys)
		// Permute feature 0's codes.
		perm := r.Perm(card)
		for i := 0; i < n; i++ {
			xs[i*2] = relational.Value(perm[xs[i*2]])
		}
		relabeled := mustRows(fs, xs, ys)

		t1 := New(Config{Criterion: Gini, MinSplit: 5, CP: 1e-3})
		t2 := New(Config{Criterion: Gini, MinSplit: 5, CP: 1e-3})
		if err := t1.Fit(ds); err != nil {
			return false
		}
		if err := t2.Fit(relabeled); err != nil {
			return false
		}
		// Every original row and its relabeled twin must classify alike.
		rows, _ := rowsOf(ds)
		twins, _ := rowsOf(relabeled)
		for i := 0; i < n; i++ {
			if t1.Predict(rows[i]) != t2.Predict(twins[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictionsMatchLeafMajorities: every training example must land in a
// leaf predicting that leaf's training majority — the structural invariant
// the grow procedure maintains.
func TestPredictionsMatchLeafMajorities(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(150) + 30
		var xs []relational.Value
		var ys []int8
		for i := 0; i < n; i++ {
			xs = append(xs, relational.Value(r.Intn(6)), relational.Value(r.Intn(4)))
			ys = append(ys, int8(r.Intn(2)))
		}
		ds := mustRows([]ml.Feature{
			{Name: "a", Cardinality: 6},
			{Name: "b", Cardinality: 4},
		}, xs, ys)
		tr := New(Config{Criterion: InfoGain, MinSplit: 1, CP: 0})
		if err := tr.Fit(ds); err != nil {
			return false
		}
		// Group examples by predicted leaf outcome: with cp=0/minsplit=1 the
		// tree partitions until purity or indistinguishability, so within any
		// set of identical rows the prediction must be that set's majority.
		type key [2]relational.Value
		counts := map[key][2]int{}
		rows, labels := rowsOf(ds)
		for i := 0; i < n; i++ {
			k := key{rows[i][0], rows[i][1]}
			c := counts[k]
			c[labels[i]]++
			counts[k] = c
		}
		for k, c := range counts {
			row := []relational.Value{k[0], k[1]}
			pred := tr.Predict(row)
			if c[pred] < c[1-pred] {
				return false // predicted the minority of an identical-row group
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
