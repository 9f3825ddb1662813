package core

import (
	"fmt"

	"repro/internal/ml"
)

// PartialPoint is one point of the partial-join trade-off curve: how many
// foreign features of the target dimension were kept, and the resulting
// holdout accuracy.
type PartialPoint struct {
	Kept    int
	Feature []string
	TestAcc float64
	Elapsed float64 // seconds, so callers can plot cost vs accuracy
}

// PartialJoinSweep explores the §5.2 trade-off space for one dimension
// table: starting from NoJoin (zero foreign features of dim kept), add the
// dimension's foreign features one at a time (in schema order) and measure
// holdout accuracy at each step. Other dimensions contribute no foreign
// features throughout, isolating the target dimension's curve.
//
// The end points coincide with the paper's named views: Kept == 0 is NoJoin
// restricted to dim, and Kept == d_R is "join only this table".
func PartialJoinSweep(e *Env, dim string, spec Spec, seed uint64) ([]PartialPoint, error) {
	menu := ml.ForeignFeatureNames(e.Joined)
	feats, ok := menu[dim]
	if !ok {
		return nil, fmt.Errorf("core: dimension %q contributes no foreign features", dim)
	}
	var out []PartialPoint
	for k := 0; k <= len(feats); k++ {
		pspec := ml.PartialSpec{dim: feats[:k]}
		cols, err := ml.PartialViewColumns(e.Joined, pspec)
		if err != nil {
			return nil, err
		}
		train, err := ml.FromRelation(e.Split.Train, cols, e.TargetCol)
		if err != nil {
			return nil, err
		}
		val, err := ml.FromRelation(e.Split.Validation, cols, e.TargetCol)
		if err != nil {
			return nil, err
		}
		test, err := ml.FromRelation(e.Split.Test, cols, e.TargetCol)
		if err != nil {
			return nil, err
		}
		c, _, _, err := spec.Train(train, val, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, PartialPoint{
			Kept:    k,
			Feature: append([]string(nil), feats[:k]...),
			TestAcc: ml.Accuracy(c, test),
		})
	}
	return out, nil
}
