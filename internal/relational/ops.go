package relational

import (
	"fmt"
	"sort"
)

// Predicate decides whether a row belongs to a selection result.
type Predicate func(row []Value) bool

// Select (relational σ) materializes the rows of r satisfying pred, in
// order. Data scientists building fact tables from raw event tables need σ
// constantly; this helper keeps that preprocessing inside the library
// instead of ad-hoc loops. The predicate receives a scratch row that is only
// valid for the duration of the call.
func Select(r Relation, name string, pred Predicate) *Table {
	schema := r.Schema()
	out := NewTable(name, schema, 0)
	n := r.NumRows()
	row := make([]Value, schema.Width())
	for i := 0; i < n; i++ {
		r.CopyRow(row, i)
		if pred(row) {
			out.rows = append(out.rows, row...)
		}
	}
	return out
}

// segmentZoned is the zone-map surface SelectEq needs to prove whole
// segments free of a value. SegmentedTable implements it.
type segmentZoned interface {
	Relation
	NumSegments() int
	SegmentRows(s int) (lo, hi int)
	SegmentMayContain(s, col int, v Value) bool
}

// SelectEq is Select with an equality predicate on one column. On a
// segmented source it consults the per-segment zone maps first: a segment
// whose [min, max] excludes v is skipped without touching its data (or, when
// spilled, without faulting it in). Matching rows come out in ascending row
// order either way, so the result is identical to the generic scan.
func SelectEq(r Relation, name string, col int, v Value) (*Table, error) {
	schema := r.Schema()
	if col < 0 || col >= schema.Width() {
		return nil, fmt.Errorf("relational: column %d out of range", col)
	}
	if !schema.Cols[col].Domain.Contains(v) {
		return nil, fmt.Errorf("relational: value %d outside domain of %q", v, schema.Cols[col].Name)
	}
	if sz, ok := r.(segmentZoned); ok {
		return selectEqZoned(sz, name, col, v), nil
	}
	return Select(r, name, func(row []Value) bool { return row[col] == v }), nil
}

// selectEqZoned is the segment-skipping equality scan: per surviving
// segment, one sequential scan of the predicate column and a CopyRow per hit.
func selectEqZoned(r segmentZoned, name string, col int, v Value) *Table {
	schema := r.Schema()
	out := NewTable(name, schema, 0)
	row := make([]Value, schema.Width())
	var buf []Value
	var skipped, scanned uint64
	for s, ns := 0, r.NumSegments(); s < ns; s++ {
		if !r.SegmentMayContain(s, col, v) {
			skipped++
			continue
		}
		scanned++
		lo, hi := r.SegmentRows(s)
		if m := hi - lo; cap(buf) < m {
			buf = make([]Value, m)
		}
		got := r.ScanColumn(col, lo, buf[:hi-lo])
		for k := 0; k < got; k++ {
			if buf[k] == v {
				r.CopyRow(row, lo+k)
				out.rows = append(out.rows, row...)
			}
		}
	}
	// Two batched adds per scan, not one per segment.
	ZoneSegmentsSkipped.Add(skipped)
	ZoneSegmentsScanned.Add(scanned)
	return out
}

// groupBySliceThreshold bounds the domain size for which GroupBy uses a
// dense slice accumulator instead of a map. Above it the map's memory
// proportional to *observed* distinct values wins.
const groupBySliceThreshold = 1 << 16

// GroupBy counts rows per value of one column, sorted by descending count
// (ties by ascending value). It is the workhorse behind tuple-ratio
// estimation from raw data and FK skew inspection. Small closed domains use
// a dense slice accumulator (no hashing in the per-row loop); larger ones
// fall back to a map.
func GroupBy(r Relation, col int) ([]GroupCount, error) {
	schema := r.Schema()
	if col < 0 || col >= schema.Width() {
		return nil, fmt.Errorf("relational: column %d out of range", col)
	}
	n := r.NumRows()
	var out []GroupCount
	if dom := schema.Cols[col].Domain.Size; dom <= groupBySliceThreshold {
		counts := make([]int, dom)
		for i := 0; i < n; i++ {
			counts[r.At(i, col)]++
		}
		for v, c := range counts {
			if c > 0 {
				out = append(out, GroupCount{Value: Value(v), Count: c})
			}
		}
	} else {
		counts := make(map[Value]int)
		for i := 0; i < n; i++ {
			counts[r.At(i, col)]++
		}
		out = make([]GroupCount, 0, len(counts))
		for v, c := range counts {
			out = append(out, GroupCount{Value: v, Count: c})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Value < out[b].Value
	})
	return out, nil
}

// GroupCount is one group of GroupBy: the grouping value and its row count.
type GroupCount struct {
	Value Value
	Count int
}

// DistinctCount returns the number of distinct values in a column — the
// n_R estimate when the dimension table itself is unavailable and the tuple
// ratio must be derived from the fact table's FK column alone.
func DistinctCount(r Relation, col int) (int, error) {
	groups, err := GroupBy(r, col)
	if err != nil {
		return 0, err
	}
	return len(groups), nil
}

// EstimateTupleRatio computes n_S / distinct(FK) from a fact table alone:
// the advisor's decision statistic when even the dimension table's
// cardinality is unknown. It errs on the optimistic side (distinct observed
// values ≤ |D_FK|), so callers comparing against a safety threshold get a
// conservative *decision* — a smaller denominator would only raise the
// ratio; using the full domain size when known is still preferred.
func EstimateTupleRatio(fact Relation, fkCol int) (float64, error) {
	c := fact.Schema().Cols[fkCol]
	if c.Kind != KindForeignKey {
		return 0, fmt.Errorf("relational: column %q is %v, not a foreign key", c.Name, c.Kind)
	}
	d, err := DistinctCount(fact, fkCol)
	if err != nil {
		return 0, err
	}
	if d == 0 {
		return 0, fmt.Errorf("relational: empty fact table")
	}
	return float64(fact.NumRows()) / float64(d), nil
}
