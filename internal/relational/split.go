package relational

import (
	"fmt"

	"repro/internal/rng"
)

// Split holds the three-way partition the paper uses for every dataset:
// 50% training, 25% validation (grid search / feature selection), 25%
// holdout test (§3.2). Since the factorized-execution refactor the three
// parts are lazy SelectViews over the source relation — a split of a
// JoinView costs three index slices, not three table copies.
type Split struct {
	Train, Validation, Test Relation
}

// SplitFractions splits relation rows into train/validation/test by the
// given fractions after a seeded shuffle. Fractions must be positive and sum
// to at most 1; the test split receives the remainder. The returned views
// share the source relation's storage.
func SplitFractions(r Relation, trainFrac, valFrac float64, rnd *rng.RNG) (Split, error) {
	if trainFrac <= 0 || valFrac <= 0 || trainFrac+valFrac >= 1 {
		return Split{}, fmt.Errorf("relational: invalid split fractions train=%v val=%v", trainFrac, valFrac)
	}
	n := r.NumRows()
	if n < 4 {
		return Split{}, fmt.Errorf("relational: relation too small to split (%d rows)", n)
	}
	perm := rnd.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	if nTrain == 0 || nVal == 0 || nTrain+nVal >= n {
		return Split{}, fmt.Errorf("relational: degenerate split of %d rows", n)
	}
	train, err := NewSelectView(r, perm[:nTrain])
	if err != nil {
		return Split{}, err
	}
	val, err := NewSelectView(r, perm[nTrain:nTrain+nVal])
	if err != nil {
		return Split{}, err
	}
	test, err := NewSelectView(r, perm[nTrain+nVal:])
	if err != nil {
		return Split{}, err
	}
	return Split{Train: train, Validation: val, Test: test}, nil
}

// PaperSplit applies the paper's fixed 50/25/25 partition.
func PaperSplit(r Relation, rnd *rng.RNG) (Split, error) {
	return SplitFractions(r, 0.50, 0.25, rnd)
}
