package ml

import (
	"fmt"
	"strings"

	"repro/internal/relational"
)

// View names the three feature sets the paper compares on every dataset
// (§3.2, §4): JoinAll uses [X_S, FK, X_R]; NoJoin drops all foreign features
// a priori, keeping [X_S, FK]; NoFK keeps [X_S, X_R] but drops the foreign
// keys themselves.
type View int

const (
	// JoinAll is the current widespread practice: join every table, use
	// home features, foreign keys, and foreign features.
	JoinAll View = iota
	// NoJoin avoids all joins: home features and foreign keys only. This is
	// the approach whose safety the paper studies.
	NoJoin
	// NoFK keeps everything except the foreign-key columns; the paper uses
	// it as a probe for whether FKs themselves carry signal.
	NoFK
)

func (v View) String() string {
	switch v {
	case JoinAll:
		return "JoinAll"
	case NoJoin:
		return "NoJoin"
	case NoFK:
		return "NoFK"
	default:
		return fmt.Sprintf("View(%d)", int(v))
	}
}

// ViewColumns selects the feature column indices of a joined table that a
// view uses. Foreign features are recognized by the "<dim>." name prefix
// introduced by relational.Join. Open-domain foreign keys (Column.Open) are
// excluded from every view, as the paper does for Expedia's search id —
// their values cannot recur at test time, so they are unusable as features.
//
// omitDims optionally drops the foreign features of specific dimension
// tables only (used by the Table 4 robustness sweep); nil means no extra
// omissions.
func ViewColumns(joined relational.Relation, v View, omitDims map[string]bool) []int {
	var cols []int
	for i, c := range joined.Schema().Cols {
		switch c.Kind {
		case relational.KindForeignKey:
			if c.Open {
				continue
			}
			if v == NoFK {
				continue
			}
			cols = append(cols, i)
		case relational.KindFeature:
			dim, isForeign := foreignDim(c.Name)
			if isForeign {
				if v == NoJoin {
					continue
				}
				if omitDims[dim] {
					continue
				}
			}
			cols = append(cols, i)
		}
	}
	return cols
}

// foreignDim splits a joined column name "<dim>.<feat>" and reports whether
// the column is a foreign feature.
func foreignDim(name string) (string, bool) {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i], true
	}
	return "", false
}

// ViewDataset builds the supervised dataset for a view over a joined table.
func ViewDataset(joined relational.Relation, targetCol int, v View, omitDims map[string]bool) (*Dataset, error) {
	cols := ViewColumns(joined, v, omitDims)
	if len(cols) == 0 {
		return nil, fmt.Errorf("ml: view %v selects no feature columns", v)
	}
	return FromRelation(joined, cols, targetCol)
}
