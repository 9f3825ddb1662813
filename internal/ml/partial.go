package ml

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// PartialSpec selects a middle ground between JoinAll and NoJoin: for each
// dimension table, keep only the named foreign features (all others are
// avoided). The paper's §5.2 observes that the FD axioms allow foreign
// features to be split into arbitrary subsets before being avoided —
// "a new trade-off space between fully avoiding a foreign table and fully
// using it" — and leaves exploring it as future work; this type makes the
// trade-off expressible.
//
// Keys are dimension table names; values are the *unqualified* feature
// names within that dimension (relational.Join qualifies them as
// "<dim>.<feature>"). A dimension absent from the map contributes no
// foreign features (as in NoJoin). Foreign keys are always kept, as in both
// JoinAll and NoJoin.
type PartialSpec map[string][]string

// PartialViewColumns selects the feature columns of a joined table under a
// partial spec. It returns an error if a named feature does not exist.
func PartialViewColumns(joined relational.Relation, spec PartialSpec) ([]int, error) {
	want := make(map[string]bool)
	for dim, feats := range spec {
		for _, f := range feats {
			want[dim+"."+f] = true
		}
	}
	var cols []int
	for i, c := range joined.Schema().Cols {
		switch c.Kind {
		case relational.KindForeignKey:
			if c.Open {
				continue
			}
			cols = append(cols, i)
		case relational.KindFeature:
			if _, isForeign := splitForeign(c.Name); isForeign {
				if want[c.Name] {
					cols = append(cols, i)
					delete(want, c.Name)
				}
				continue
			}
			cols = append(cols, i)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for k := range want {
			missing = append(missing, k)
		}
		return nil, fmt.Errorf("ml: partial spec names unknown foreign features: %s", strings.Join(missing, ", "))
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("ml: partial spec selects no feature columns")
	}
	return cols, nil
}

// splitForeign mirrors foreignDim for partial views.
func splitForeign(name string) (string, bool) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i], true
	}
	return "", false
}

// PartialViewDataset builds the supervised dataset for a partial view.
func PartialViewDataset(joined relational.Relation, targetCol int, spec PartialSpec) (*Dataset, error) {
	cols, err := PartialViewColumns(joined, spec)
	if err != nil {
		return nil, err
	}
	return FromRelation(joined, cols, targetCol)
}

// ForeignFeatureNames lists, per dimension, the unqualified foreign feature
// names available in a joined table — the menu a PartialSpec chooses from.
func ForeignFeatureNames(joined relational.Relation) map[string][]string {
	out := make(map[string][]string)
	for _, c := range joined.Schema().Cols {
		if c.Kind != relational.KindFeature {
			continue
		}
		if dim, ok := splitForeign(c.Name); ok {
			out[dim] = append(out[dim], c.Name[len(dim)+1:])
		}
	}
	return out
}
