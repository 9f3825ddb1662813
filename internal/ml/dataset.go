// Package ml is the shared machine-learning layer: a categorical Dataset
// abstraction built as a view over relational data, the Classifier
// interface every learner implements, evaluation metrics, and the
// validation-set grid search the paper uses for hyper-parameter tuning.
//
// Every learner in this repository consumes examples as vectors of
// categorical codes. One-hot semantics, where a model needs them, are
// recovered inside the model (kernel match counts, per-(feature,value)
// weights, sparse embedding rows) rather than by materializing a one-hot
// matrix; see the Encoder type.
//
// Since the factorized-execution refactor a Dataset is a *view*: it binds to
// any relational.Relation (a physical Table, a zero-copy JoinView, a split
// SelectView), and Subset / SelectFeatures compose index- and column-remaps
// instead of copying. Dense example blocks become an in-memory Table through
// FromRows, so every dataset has the one backing. One JoinAll experiment
// holds a single physical copy of the fact and dimension tables instead of
// 3–4 copies of the joined matrix.
package ml

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/relational"
)

// Feature describes one input feature of a dataset: its name, its domain
// cardinality, and whether it is a foreign-key column (several components —
// unseen-value smoothing, domain compression, the NoFK view — treat FK
// features specially).
type Feature struct {
	Name        string
	Cardinality int
	IsFK        bool
}

// Dataset is an immutable supervised learning problem: n examples, d
// categorical features, binary labels. It is a column projection of a
// relation: a source relational.Relation (a physical Table, a zero-copy
// JoinView, a split SelectView, a SegmentedTable), a per-feature source
// column and the source target column, with nothing else. FromRelation and
// FromRows build one; Subset wraps the relation in a SelectView and
// SelectFeatures remaps the columns, neither copying example data. Reads are
// batched: ScanFeature, ScanLabels and GatherFeatures (or ScanRowMajor over
// all of them).
type Dataset struct {
	Features []Feature

	rel    relational.Relation
	cols   []int // per-feature source column
	target int   // source target column
}

// NumExamples returns n.
func (d *Dataset) NumExamples() int { return d.rel.NumRows() }

// NumFeatures returns the feature count.
func (d *Dataset) NumFeatures() int { return len(d.Features) }

// ScanFeature is the sequential batch read: it fills dst with consecutive
// values of feature j starting at example from, returning how many were
// written (min(len(dst), NumExamples()-from); 0 past the end). It is one
// ScanColumn of the relation's column, which a Subset's SelectView serves
// with one gather of its rows. Safe for concurrent use: it writes only into
// dst.
func (d *Dataset) ScanFeature(dst []relational.Value, j, from int) int {
	return d.rel.ScanColumn(d.cols[j], from, dst)
}

// LabelColumn is the feature index GatherFeatures reads as the example's
// class label (as the code 0 or 1), so a scoring pass gathers features and
// labels in the same call.
const LabelColumn = -1

// colsPool holds GatherFeatures' source column lists.
var colsPool = sync.Pool{New: func() any { return new([]int) }}

// GatherFeatures fills the column-major block dst with features feats of
// the examples rows: feature feats[i] of example rows[k] lands at
// dst[i*stride+k], and stride must be >= len(rows). A feats entry equal to
// LabelColumn reads the label instead. The block is one relational
// GatherColumns call over the source columns, so a spilled table pins each
// touched segment once for all the features. Safe for concurrent use: it
// writes only into dst.
func (d *Dataset) GatherFeatures(dst []relational.Value, stride int, feats []int, rows []int) {
	sc := colsPool.Get().(*[]int)
	defer colsPool.Put(sc)
	cols := (*sc)[:0]
	for _, j := range feats {
		if j == LabelColumn {
			j = d.target
		} else {
			j = d.cols[j]
		}
		cols = append(cols, j)
	}
	*sc = cols
	d.rel.GatherColumns(dst, stride, cols, rows)
}

// ScanLabels fills dst with consecutive labels starting at example from and
// returns the count written — the label companion of ScanFeature. Learners
// call it once per Fit and then index the label vector.
func (d *Dataset) ScanLabels(dst []int8, from int) int {
	m := max(0, min(len(dst), d.NumExamples()-from))
	buf := make([]relational.Value, min(m, 4096))
	for at := 0; at < m; {
		got := d.rel.ScanColumn(d.target, from+at, buf[:min(len(buf), m-at)])
		for i, v := range buf[:got] {
			dst[at+i] = int8(v)
		}
		at += got
	}
	return m
}

// FeatureRange reports the observed [lo, hi] code range of feature j when
// the backing relation can prove one from resident statistics (a
// SegmentedTable's append-time column bounds) without scanning any data. ok
// is false when no bound is available (relations without statistics). The
// range may be wider than the rows actually visible through this dataset —
// a split Subset inherits its source's bounds — so it supports only sound
// over-approximations: lo == hi proves the feature constant (the decision
// tree skips such features in its split search), nothing more.
func (d *Dataset) FeatureRange(j int) (lo, hi relational.Value, ok bool) {
	cr, ranged := d.rel.(relational.ColumnRanger)
	if !ranged {
		return 0, 0, false
	}
	return cr.ColumnRange(d.cols[j])
}

// PositiveFraction returns the empirical P(Y=1).
func (d *Dataset) PositiveFraction() float64 {
	n := d.NumExamples()
	if n == 0 {
		return 0
	}
	labels := make([]int8, n)
	d.ScanLabels(labels, 0)
	pos := 0
	for _, y := range labels {
		pos += int(y)
	}
	return float64(pos) / float64(n)
}

// MajorityClass returns the most frequent label (ties → 1, matching the
// convention that a vacuous model predicts the positive class on ties).
func (d *Dataset) MajorityClass() int8 {
	if d.PositiveFraction() >= 0.5 {
		return 1
	}
	return 0
}

// Subset returns a view of the dataset restricted to the given example
// indices, in order: the dataset over a relational.SelectView of its
// relation. No example data is copied, and indices may repeat. A Subset of
// a Subset composes the two index lists into one remap (NewSelectView), so
// reads go through at most one indirection. When d's relation is not
// already a SelectView the idx slice is retained as-is (callers must not
// mutate it afterwards). An index outside [0, NumExamples()) is a
// programming error and panics.
func (d *Dataset) Subset(idx []int) *Dataset {
	sv, err := relational.NewSelectView(d.rel, idx)
	if err != nil {
		panic("ml: Subset: " + err.Error())
	}
	out := *d
	out.rel = sv
	return &out
}

// SelectFeatures returns a view of the dataset with only the features at
// the given positions, in the given order. No example data is copied;
// column remaps compose with any existing view.
func (d *Dataset) SelectFeatures(keep []int) *Dataset {
	out := *d
	out.Features = make([]Feature, len(keep))
	out.cols = make([]int, len(keep))
	for j, k := range keep {
		out.Features[j] = d.Features[k]
		out.cols[j] = d.cols[k]
	}
	return &out
}

// FromRelation builds a zero-copy dataset over any relation using the given
// feature column indices and target column. The target domain must be
// binary. Labels as well as features resolve through the relation at access
// time, so writes to the base relation are observed by the dataset.
func FromRelation(r relational.Relation, featureCols []int, targetCol int) (*Dataset, error) {
	schema := r.Schema()
	tc := schema.Cols[targetCol]
	if tc.Kind != relational.KindTarget {
		return nil, fmt.Errorf("ml: column %q is %v, not a target", tc.Name, tc.Kind)
	}
	if tc.Domain.Size != 2 {
		return nil, fmt.Errorf("ml: target %q must be binary, domain size %d", tc.Name, tc.Domain.Size)
	}
	feats := make([]Feature, len(featureCols))
	for j, c := range featureCols {
		col := schema.Cols[c]
		switch col.Kind {
		case relational.KindFeature, relational.KindForeignKey:
		default:
			return nil, fmt.Errorf("ml: column %q is %v; only features and foreign keys may be inputs", col.Name, col.Kind)
		}
		feats[j] = Feature{
			Name:        col.Name,
			Cardinality: col.Domain.Size,
			IsFK:        col.Kind == relational.KindForeignKey,
		}
	}
	return &Dataset{
		Features: feats,
		rel:      r,
		cols:     append([]int(nil), featureCols...),
		target:   targetCol,
	}, nil
}

// rowSchema is the schema of the table FromRows builds for features: one
// feature column per feature, named by position ("x0", "x1", ...) so that
// empty or repeated feature names stay legal, then the binary target "y".
func rowSchema(features []Feature) *relational.Schema {
	cols := make([]relational.Column, len(features)+1)
	for j, f := range features {
		name := "x" + strconv.Itoa(j)
		cols[j] = relational.Column{Name: name, Kind: relational.KindFeature, Domain: &relational.Domain{Name: name, Size: f.Cardinality}}
	}
	cols[len(features)] = relational.Column{Name: "y", Kind: relational.KindTarget, Domain: &relational.Domain{Name: "y", Size: 2}}
	return relational.MustSchema(cols...)
}

// FromRows builds a dataset over an in-memory table of the given examples:
// x is row-major (example i's codes are x[i*k:(i+1)*k] for k features) and
// y holds the labels. The block is validated on the way in: it must be
// whole rows of at least one feature, every code must lie inside its
// feature's Cardinality, and every label must be 0 or 1. The dataset keeps
// features verbatim and copies x and y into the table, one example at a
// time, with no intermediate block.
func FromRows(features []Feature, x []relational.Value, y []int8) (*Dataset, error) {
	k := len(features)
	if k == 0 {
		return nil, fmt.Errorf("ml: a dataset needs at least one feature")
	}
	if len(x) != k*len(y) {
		return nil, fmt.Errorf("ml: %d feature values are not %d rows of %d features", len(x), len(y), k)
	}
	t := relational.NewTable("rows", rowSchema(features), len(y))
	row := make([]relational.Value, k+1)
	for i, label := range y {
		copy(row, x[i*k:(i+1)*k])
		row[k] = relational.Value(label)
		if err := t.AppendRow(row); err != nil {
			return nil, fmt.Errorf("ml: example %d: %w", i, err)
		}
	}
	cols := make([]int, k)
	for j := range cols {
		cols[j] = j
	}
	d, err := FromRelation(t, cols, k)
	if err != nil {
		return nil, err
	}
	d.Features = features
	return d, nil
}
