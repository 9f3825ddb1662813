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
// SelectView) or to dense storage, and Subset / SelectFeatures compose
// index- and column-remaps instead of copying. Learners consume examples
// only through NumExamples / Row / RowInto / At / Label, so one JoinAll
// experiment now holds a single physical copy of the fact and dimension
// tables instead of 3–4 copies of the joined matrix.
package ml

import (
	"fmt"
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

// view is the non-dense backing of a Dataset: a source (either a Relation or
// a borrowed dense block) plus optional row and column remaps.
type view struct {
	// Exactly one of rel / (x, y) is the source.
	rel relational.Relation
	x   []relational.Value // dense source rows, width = baseW
	y   []int8             // dense source labels (rel == nil)

	baseW  int // source row width
	target int // target column in rel (rel != nil)
	rows   []int
	n      int   // row count when rows == nil
	cols   []int // per-feature source column; nil = identity (never nil with rel)
}

// srcRow maps a view example index to a source row index.
func (v *view) srcRow(i int) int {
	if v.rows == nil {
		return i
	}
	return v.rows[i]
}

// Dataset is an immutable supervised learning problem: n examples, d
// categorical features, binary labels.
//
// A Dataset is either *dense* — X row-major (len n*d), Y class labels 0/1,
// both exported so tests and generators can build datasets directly — or
// *view-backed* (constructed by FromRelation, Subset, or SelectFeatures), in
// which case X and Y are nil and every access resolves through the backing
// relation and remap tables. Use the accessors; they are the only API that
// works for both forms.
type Dataset struct {
	Features []Feature
	X        []relational.Value // dense storage; nil when view-backed
	Y        []int8             // dense labels; nil when view-backed

	v       *view
	scratch []relational.Value
}

// NumExamples returns n.
func (d *Dataset) NumExamples() int {
	if d.v == nil {
		return len(d.Y)
	}
	if d.v.rows != nil {
		return len(d.v.rows)
	}
	return d.v.n
}

// NumFeatures returns the feature count.
func (d *Dataset) NumFeatures() int { return len(d.Features) }

// contiguous reports whether Row can alias storage directly: dense identity
// layouts and row-remapped dense views with identity columns.
func (d *Dataset) contiguous() bool {
	return d.v == nil || (d.v.rel == nil && d.v.cols == nil)
}

// Row returns example i's feature codes.
//
// For contiguous datasets the returned slice aliases internal storage (the
// historical zero-copy behaviour). For view-backed datasets it is filled
// into a per-Dataset scratch buffer and stays valid only until the next Row
// call on the same Dataset value — callers that hold a row across further
// Row calls, or that read rows from several goroutines, must use RowInto
// with their own buffer (see Accuracy) or per-goroutine Handles.
func (d *Dataset) Row(i int) []relational.Value {
	k := len(d.Features)
	if d.v == nil {
		return d.X[i*k : (i+1)*k : (i+1)*k]
	}
	if d.v.rel == nil && d.v.cols == nil {
		r := d.v.srcRow(i)
		return d.v.x[r*k : (r+1)*k : (r+1)*k]
	}
	if d.scratch == nil {
		d.scratch = make([]relational.Value, k)
	}
	return d.RowInto(d.scratch, i)
}

// RowInto copies example i's feature codes into dst (len >= NumFeatures)
// and returns dst truncated to the feature count. It never aliases dataset
// storage, making it the safe pattern for callers that pass rows into
// classifiers which may themselves iterate the same dataset.
func (d *Dataset) RowInto(dst []relational.Value, i int) []relational.Value {
	k := len(d.Features)
	dst = dst[:k]
	if d.v == nil {
		copy(dst, d.X[i*k:(i+1)*k])
		return dst
	}
	r := d.v.srcRow(i)
	if d.v.rel != nil {
		if d.v.cols == nil {
			return d.v.rel.CopyRow(dst, r)
		}
		for j, c := range d.v.cols {
			dst[j] = d.v.rel.At(r, c)
		}
		return dst
	}
	if d.v.cols == nil {
		copy(dst, d.v.x[r*d.v.baseW:r*d.v.baseW+k])
		return dst
	}
	base := r * d.v.baseW
	for j, c := range d.v.cols {
		dst[j] = d.v.x[base+c]
	}
	return dst
}

// At returns the value of feature j of example i. It is the cheapest
// accessor for single-cell reads (no row assembly) and is safe for
// concurrent use.
func (d *Dataset) At(i, j int) relational.Value {
	if d.v == nil {
		return d.X[i*len(d.Features)+j]
	}
	r := d.v.srcRow(i)
	c := j
	if d.v.cols != nil {
		c = d.v.cols[j]
	}
	if d.v.rel != nil {
		return d.v.rel.At(r, c)
	}
	return d.v.x[r*d.v.baseW+c]
}

// ScanFeature is the batch read path: it fills dst with consecutive values
// of feature j starting at example from, returning how many were written
// (min(len(dst), NumExamples()-from); 0 past the end). A relation backing
// devirtualizes into the storage engine's own column loop: a scan of the
// relation's column, or one gather of the rows when the dataset is a
// Subset. Safe for concurrent use: it writes only into dst.
func (d *Dataset) ScanFeature(dst []relational.Value, j, from int) int {
	k := len(d.Features)
	m := d.NumExamples() - from
	if m > len(dst) {
		m = len(dst)
	}
	if m <= 0 {
		return 0
	}
	dst = dst[:m]
	if d.v == nil {
		at := from*k + j
		for i := range dst {
			dst[i] = d.X[at]
			at += k
		}
		return m
	}
	if d.v.rel != nil {
		// A relation-backed view always carries its column remap, so the
		// one-column list is a slice of it.
		cols := d.v.cols[j : j+1]
		if d.v.rows == nil {
			return d.v.rel.ScanColumn(cols[0], from, dst)
		}
		d.v.rel.GatherColumns(dst, m, cols, d.v.rows[from:from+m])
		return m
	}
	c := j
	if d.v.cols != nil {
		c = d.v.cols[j]
	}
	if d.v.rows != nil {
		for i, r := range d.v.rows[from : from+m] {
			dst[i] = d.v.x[r*d.v.baseW+c]
		}
		return m
	}
	at := from*d.v.baseW + c
	for i := range dst {
		dst[i] = d.v.x[at]
		at += d.v.baseW
	}
	return m
}

// gatherDense fills dst[k] with At(rows[k], j) for every k on a dense or
// dense-view backing — the one-feature step of GatherFeatures there.
// len(dst) must be >= len(rows).
func (d *Dataset) gatherDense(dst []relational.Value, j int, rows []int) {
	dst = dst[:len(rows)]
	if d.v == nil {
		k := len(d.Features)
		for i, r := range rows {
			dst[i] = d.X[r*k+j]
		}
		return
	}
	c := j
	if d.v.cols != nil {
		c = d.v.cols[j]
	}
	if d.v.rows != nil {
		for i, r := range rows {
			dst[i] = d.v.x[d.v.rows[r]*d.v.baseW+c]
		}
		return
	}
	for i, r := range rows {
		dst[i] = d.v.x[r*d.v.baseW+c]
	}
}

// LabelColumn is the feature index GatherFeatures reads as the example's
// class label (as the code 0 or 1), so a scoring pass gathers features and
// labels in the same call.
const LabelColumn = -1

// featureScratch is GatherFeatures' pooled working memory: the source
// column list and, for row-remapped views, the composed source rows.
type featureScratch struct {
	cols []int
	rows []int
}

var featurePool = sync.Pool{New: func() any { return new(featureScratch) }}

// GatherFeatures fills the column-major block dst with features feats of
// the examples rows: feature feats[i] of example rows[k] lands at
// dst[i*stride+k], and stride must be >= len(rows). A feats entry equal to
// LabelColumn reads the label instead. On a relation backing the block is
// one relational GatherColumns call over the composed source columns and
// rows, so a spilled table pins each touched segment once for all the
// features. Safe for concurrent use: it writes only into dst.
func (d *Dataset) GatherFeatures(dst []relational.Value, stride int, feats []int, rows []int) {
	if d.v == nil || d.v.rel == nil {
		for i, j := range feats {
			col := dst[i*stride : i*stride+len(rows)]
			if j != LabelColumn {
				d.gatherDense(col, j, rows)
				continue
			}
			for k, r := range rows {
				col[k] = relational.Value(d.Label(r))
			}
		}
		return
	}
	sc := featurePool.Get().(*featureScratch)
	defer featurePool.Put(sc)
	cols := sc.cols[:0]
	for _, j := range feats {
		if j == LabelColumn {
			j = d.v.target
		} else {
			j = d.v.cols[j]
		}
		cols = append(cols, j)
	}
	sc.cols = cols
	if d.v.rows != nil {
		src := sc.rows[:0]
		for _, r := range rows {
			src = append(src, d.v.rows[r])
		}
		sc.rows, rows = src, src
	}
	d.v.rel.GatherColumns(dst, stride, cols, rows)
}

// ScanLabels fills dst with consecutive labels starting at example from and
// returns the count written — the label companion of ScanFeature. Learners
// on the batch path call it once per Fit and then index the materialized
// label vector instead of paying a virtual Label call per example per pass.
func (d *Dataset) ScanLabels(dst []int8, from int) int {
	m := d.NumExamples() - from
	if m > len(dst) {
		m = len(dst)
	}
	if m <= 0 {
		return 0
	}
	dst = dst[:m]
	if d.v == nil {
		copy(dst, d.Y[from:from+m])
		return m
	}
	if d.v.rel == nil {
		for i := range dst {
			dst[i] = d.Label(from + i)
		}
		return m
	}
	// Batch the target column: a contiguous scan without a row remap, a
	// gather of the remapped rows (a Subset) with one.
	target := []int{d.v.target}
	buf := make([]relational.Value, min(m, 4096))
	for at := 0; at < m; {
		got := min(len(buf), m-at)
		if d.v.rows == nil {
			got = d.v.rel.ScanColumn(d.v.target, from+at, buf[:got])
		} else {
			d.v.rel.GatherColumns(buf, got, target, d.v.rows[from+at:from+at+got])
		}
		for i := 0; i < got; i++ {
			dst[at+i] = int8(buf[i])
		}
		at += got
	}
	return m
}

// FeatureRange reports the observed [lo, hi] code range of feature j when
// the backing relation can prove one from resident statistics (a
// SegmentedTable's zone maps) without scanning any data. ok is false when no
// bound is available (dense datasets, relations without statistics). The
// range may be wider than the rows actually visible through this dataset —
// a split Subset inherits its source's bounds — so it supports only sound
// over-approximations: lo == hi proves the feature constant (the decision
// tree skips such features in its split search), nothing more.
func (d *Dataset) FeatureRange(j int) (lo, hi relational.Value, ok bool) {
	if d.v == nil || d.v.rel == nil {
		return 0, 0, false
	}
	cr, ranged := d.v.rel.(relational.ColumnRanger)
	if !ranged {
		return 0, 0, false
	}
	c := j
	if d.v.cols != nil {
		c = d.v.cols[j]
	}
	return cr.ColumnRange(c)
}

// Label returns example i's class in {0, 1}.
func (d *Dataset) Label(i int) int8 {
	if d.v == nil {
		return d.Y[i]
	}
	r := d.v.srcRow(i)
	if d.v.rel != nil {
		return int8(d.v.rel.At(r, d.v.target))
	}
	return d.v.y[r]
}

// Handle returns a cheap per-worker alias of the dataset: same backing data,
// private scratch buffer. Views make handles free (a small struct copy), and
// parallel tuning hands one to each worker so concurrent Row calls cannot
// race on scratch. For contiguous datasets it returns d unchanged.
func (d *Dataset) Handle() *Dataset {
	if d.contiguous() {
		return d
	}
	h := *d
	h.scratch = nil
	return &h
}

// PositiveFraction returns the empirical P(Y=1).
func (d *Dataset) PositiveFraction() float64 {
	n := d.NumExamples()
	if n == 0 {
		return 0
	}
	pos := 0
	for i := 0; i < n; i++ {
		if d.Label(i) == 1 {
			pos++
		}
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
// indices, in order. No example data is copied: the result shares storage
// with d (and with d's own backing, if d is already a view), composing row
// remaps. Indices may repeat. When d has no row remap yet the idx slice is
// retained as-is (callers must not mutate it afterwards); when composing
// with an existing remap it is only read.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Features: d.Features}
	if d.v == nil {
		out.v = &view{x: d.X, y: d.Y, baseW: len(d.Features), rows: idx}
		return out
	}
	nv := *d.v
	if d.v.rows == nil {
		nv.rows = idx
	} else {
		rows := make([]int, len(idx))
		for k, i := range idx {
			rows[k] = d.v.rows[i]
		}
		nv.rows = rows
	}
	out.v = &nv
	return out
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
		v: &view{
			rel:    r,
			baseW:  schema.Width(),
			target: targetCol,
			n:      r.NumRows(),
			cols:   append([]int(nil), featureCols...),
		},
	}, nil
}

// Materialize evaluates a view-backed dataset into dense storage (one copy).
// Contiguous identity datasets are returned unchanged. Learners with access
// patterns that revisit every row many times (SMO's kernel loops) call this
// once instead of paying per-access indirection.
func (d *Dataset) Materialize() *Dataset {
	if d.v == nil {
		return d
	}
	n := d.NumExamples()
	k := len(d.Features)
	out := &Dataset{
		Features: d.Features,
		X:        make([]relational.Value, n*k),
		Y:        make([]int8, n),
	}
	for i := 0; i < n; i++ {
		d.RowInto(out.X[i*k:(i+1)*k], i)
		out.Y[i] = d.Label(i)
	}
	return out
}

// SelectFeatures returns a view of the dataset with only the features at
// the given positions, in the given order. No example data is copied;
// column remaps compose with any existing view.
func (d *Dataset) SelectFeatures(keep []int) *Dataset {
	feats := make([]Feature, len(keep))
	for j, k := range keep {
		feats[j] = d.Features[k]
	}
	out := &Dataset{Features: feats}
	if d.v == nil {
		out.v = &view{x: d.X, y: d.Y, baseW: len(d.Features), n: len(d.Y), cols: append([]int(nil), keep...)}
		return out
	}
	nv := *d.v
	if d.v.cols == nil {
		nv.cols = append([]int(nil), keep...)
	} else {
		cols := make([]int, len(keep))
		for j, k := range keep {
			cols[j] = d.v.cols[k]
		}
		nv.cols = cols
	}
	out.v = &nv
	return out
}
