package relational

import (
	"fmt"
	"sync"
)

// Relation is the read interface over rectangular categorical data: a
// schema, a row count, random cell access, and batch column reads. *Table
// and *SegmentedTable implement it with physical storage; JoinView and
// SelectView implement it lazily, resolving accesses through foreign-key or
// index indirection without materializing the result. Learners and
// experiment harnesses consume data exclusively through this interface (via
// ml.FromRelation), which is what lets a JoinAll pipeline run without ever
// paying for the joined table.
//
// Implementations must be safe for concurrent readers: every method may be
// called from multiple goroutines once the relation is constructed, and the
// batch methods must not retain their slice arguments.
type Relation interface {
	// Schema describes the columns.
	Schema() *Schema
	// NumRows returns the row count.
	NumRows() int
	// At returns the value at (row, col). Both indices must be in range.
	At(row, col int) Value
	// CopyRow copies row i into dst, which must have length >= the schema
	// width, and returns dst truncated to the width. It is the bulk fast
	// path: implementations resolve any per-row indirection (FK lookups,
	// index remaps) once instead of once per cell.
	CopyRow(dst []Value, row int) []Value
	// ScanColumn fills dst[0:m] with column col of rows [from, from+m),
	// where m = min(len(dst), NumRows()-from) (0 when from is at or past
	// the end), and returns m. It is the sequential batch read: learners
	// train on cache-resident vectors of one feature instead of assembling
	// rows, and a physical table walks its own storage.
	ScanColumn(col int, from int, dst []Value) int
	// GatherColumns fills the column-major block dst with column cols[i] of
	// the given rows: dst[i*stride+k] = At(rows[k], cols[i]) for every i and
	// k, and stride must be >= len(rows). Rows may repeat and come in any
	// order. It is the random-access batch read of row-subset consumers (a
	// split view, a decision-tree node's example set): one call per block
	// instead of one virtual At per cell, and an engine with a per-segment
	// access cost (the spilled SegmentedTable) pays it once per touched
	// segment for all the columns.
	GatherColumns(dst []Value, stride int, cols []int, rows []int)
}

// ColumnRanger is implemented by relations that can report the observed
// [min, max] value range of a column without scanning it — SegmentedTable
// keeps running bounds as rows append; views forward to their source. ok is false when no
// bound is known (empty relation, source without statistics). The returned
// range may be wider than the rows actually visible through the relation
// (a SelectView forwards its source's bounds), so consumers may use it only
// for sound over-approximations: min == max proves a column constant, a
// value outside [min, max] proves absence, but the bounds themselves are
// not guaranteed tight.
type ColumnRanger interface {
	ColumnRange(col int) (min, max Value, ok bool)
}

// Materialize evaluates any relation into a contiguous Table. It is the
// explicit boundary between the lazy, zero-copy world and code that needs
// physical storage (CSV export, repeated random scans where indirection
// costs dominate). The result
// is always an independent snapshot: it never aliases the source, so later
// writes to the source are not observed.
func Materialize(r Relation, name string) *Table {
	schema := r.Schema()
	w := schema.Width()
	n := r.NumRows()
	out := NewTable(name, schema, n)
	out.rows = out.rows[:n*w]
	for i := 0; i < n; i++ {
		r.CopyRow(out.rows[i*w:(i+1)*w], i)
	}
	return out
}

// SelectView is a lazy row-subset view over any relation: row i of the view
// is row idx[i] of the source. Indices may repeat. It is the substrate of
// train/validation/test splits; Materialize copies one out when physical
// storage is needed.
type SelectView struct {
	src Relation
	idx []int
}

// NewSelectView validates the indices and wraps the source. The index slice
// is retained, not copied; callers must not mutate it afterwards.
func NewSelectView(src Relation, idx []int) (*SelectView, error) {
	n := src.NumRows()
	for k, i := range idx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("relational: select view index %d: row %d outside [0,%d)", k, i, n)
		}
	}
	return &SelectView{src: src, idx: idx}, nil
}

// Schema implements Relation.
func (v *SelectView) Schema() *Schema { return v.src.Schema() }

// NumRows implements Relation.
func (v *SelectView) NumRows() int { return len(v.idx) }

// At implements Relation.
func (v *SelectView) At(row, col int) Value { return v.src.At(v.idx[row], col) }

// CopyRow implements Relation.
func (v *SelectView) CopyRow(dst []Value, row int) []Value {
	return v.src.CopyRow(dst, v.idx[row])
}

// remapScratch is SelectView's pooled working memory: the one-column list
// a scan forwards, and the source rows a gather composes.
type remapScratch struct {
	col  [1]int
	rows []int
}

var remapPool = sync.Pool{New: func() any { return new(remapScratch) }}

// ScanColumn implements Relation: the view's rows [from, from+m) are a
// contiguous stretch of its index remap, read from the source in one
// gather, so a split-over-join scan costs one interface call per morsel,
// not per cell.
func (v *SelectView) ScanColumn(col int, from int, dst []Value) int {
	m := scanLen(len(v.idx), from, len(dst))
	if m == 0 {
		return 0
	}
	sc := remapPool.Get().(*remapScratch)
	defer remapPool.Put(sc)
	sc.col[0] = col
	v.src.GatherColumns(dst, m, sc.col[:], v.idx[from:from+m])
	return m
}

// GatherColumns implements Relation: the caller's rows are composed with
// the view's remap into source rows, which the source gathers in one call.
// A segmented source therefore runs its grouped kernel over the composed
// rows, pinning each touched segment once for all the columns.
func (v *SelectView) GatherColumns(dst []Value, stride int, cols []int, rows []int) {
	sc := remapPool.Get().(*remapScratch)
	defer remapPool.Put(sc)
	src := sc.rows[:0]
	for _, r := range rows {
		src = append(src, v.idx[r])
	}
	sc.rows = src
	v.src.GatherColumns(dst, stride, cols, src)
}

// ColumnRange implements ColumnRanger by forwarding the source's bounds.
// The view's rows are a subset of the source's, so the source range is a
// sound (possibly loose) over-approximation of the view's.
func (v *SelectView) ColumnRange(col int) (min, max Value, ok bool) {
	if cr, k := v.src.(ColumnRanger); k && len(v.idx) > 0 {
		return cr.ColumnRange(col)
	}
	return 0, 0, false
}
