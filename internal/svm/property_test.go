package svm

import (
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// TestDecisionSignMatchesPredict: Predict must be exactly the sign of the
// decision function (≥ 0 → class 1) for every fitted model and input.
func TestDecisionSignMatchesPredict(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(60) + 20
		var xs []relational.Value
		var ys []int8
		hasBoth := false
		for i := 0; i < n; i++ {
			a := r.Intn(4)
			xs = append(xs, relational.Value(a), relational.Value(r.Intn(3)))
			y := int8(a % 2)
			ys = append(ys, y)
			if i > 0 && y != ys[0] {
				hasBoth = true
			}
		}
		ds := mustRows(feats(4, 3), xs, ys)
		if !hasBoth {
			return true // degenerate sample; nothing to check
		}
		s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, Seed: seed})
		if err != nil {
			return false
		}
		if err := s.Fit(ds); err != nil {
			return false
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 3; b++ {
				row := []relational.Value{relational.Value(a), relational.Value(b)}
				wantPos := s.Decision(row) >= 0
				got := s.Predict(row) == 1
				if wantPos != got {
					return false
				}
			}
		}
		return s.NumSupportVectors() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRelabelInvariance: like the tree, the SVM's kernels see only match
// counts, so a consistent permutation of a feature's codes cannot change
// any prediction.
func TestRelabelInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const card = 5
		n := r.Intn(60) + 30
		var xs []relational.Value
		var ys []int8
		for i := 0; i < n; i++ {
			a := r.Intn(card)
			xs = append(xs, relational.Value(a), relational.Value(r.Intn(3)))
			ys = append(ys, int8(a%2))
		}
		ds := mustRows(feats(card, 3), xs, ys)
		perm := r.Perm(card)
		for i := 0; i < n; i++ {
			xs[i*2] = relational.Value(perm[xs[i*2]])
		}
		relabeled := mustRows(ds.Features, xs, ys)
		mk := func(d *ml.Dataset) (*SVM, error) {
			s, err := New(Config{Kernel: RBF, C: 10, Gamma: 0.5, Seed: 7})
			if err != nil {
				return nil, err
			}
			return s, s.Fit(d)
		}
		s1, err := mk(ds)
		if err != nil {
			return false
		}
		s2, err := mk(relabeled)
		if err != nil {
			return false
		}
		rows, _ := rowsOf(ds)
		twins, _ := rowsOf(relabeled)
		for i := 0; i < n; i++ {
			if s1.Predict(rows[i]) != s2.Predict(twins[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
