package ml

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/rng"
)

// batchBackings builds one logical dataset over every backing the batch
// accessors must handle: FromRows' in-memory table, relation views (row-major and
// columnar, with and without split-style select views, in memory and
// spilled under a cache of a few segments), and composed Subset/
// SelectFeatures remaps. All are views of the same cells, so the batch
// reads must agree with the per-row CopyRow oracle (exampleOf) on each.
func batchBackings(t *testing.T) map[string]*Dataset {
	t.Helper()
	_, jv := viewStar(t, 400, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	full, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	idx := make([]int, 150)
	for i := range idx {
		idx[i] = r.Intn(jv.NumRows())
	}
	sel, err := relational.NewSelectView(jv, idx)
	if err != nil {
		t.Fatal(err)
	}
	overSelect, err := FromRelation(sel, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := relational.MaterializeSegmented(jv, "ct", relational.SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	overColumnar, err := FromRelation(ct, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	selCol, err := relational.NewSelectView(ct, idx)
	if err != nil {
		t.Fatal(err)
	}
	overSelectColumnar, err := FromRelation(selCol, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	overSegmented, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	selSeg, err := relational.NewSelectView(st, idx)
	if err != nil {
		t.Fatal(err)
	}
	overSelectSegmented, err := FromRelation(selSeg, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := relational.MaterializeSegmented(jv, "sp", relational.SegmentOptions{
		SegmentSize: 32, SpillDir: t.TempDir(), CacheBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	selSpill, err := relational.NewSelectView(sp, idx)
	if err != nil {
		t.Fatal(err)
	}
	overSelectSpilled, err := FromRelation(selSpill, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Dataset{
		"rows":                     snapshot(full),
		"relation":                 full,
		"select-over-join":         overSelect,
		"columnar":                 overColumnar,
		"select-over-columnar":     overSelectColumnar,
		"segmented":                overSegmented,
		"select-over-segmented":    overSelectSegmented,
		"select-over-spilled":      overSelectSpilled,
		"subset-of-select-spilled": overSelectSpilled.Subset([]int{149, 3, 3, 77, 0, 120}),
		"subset":                   full.Subset(idx),
		"subset-of-rows":           snapshot(full).Subset(idx),
		"feature-remap":            full.SelectFeatures([]int{2, 0}),
		"subset-plus-remap":        full.Subset(idx).SelectFeatures([]int{2, 0}),
		"rows-subset-plus-remap":   snapshot(full).Subset(idx).SelectFeatures([]int{2, 0}),
		"remap-of-subset-of-rows":  snapshot(full).SelectFeatures([]int{1, 2}).Subset(idx),
	}
}

// TestScanFeatureMatchesAt pins ScanFeature (all offsets, short buffers) to
// the per-row CopyRow oracle on every backing.
func TestScanFeatureMatchesAt(t *testing.T) {
	for name, ds := range batchBackings(t) {
		n := ds.NumExamples()
		buf := make([]relational.Value, 17)
		for j := 0; j < ds.NumFeatures(); j++ {
			for from := 0; from <= n+3; from += 17 {
				m := ds.ScanFeature(buf, j, from)
				want := n - from
				if want > len(buf) {
					want = len(buf)
				}
				if want < 0 {
					want = 0
				}
				if m != want {
					t.Fatalf("%s: ScanFeature(%d,%d) returned %d want %d", name, j, from, m, want)
				}
				for k := 0; k < m; k++ {
					if got, want := buf[k], rowOf(ds, from+k)[j]; got != want {
						t.Fatalf("%s: ScanFeature(%d,%d)[%d] = %d, CopyRow = %d", name, j, from, k, got, want)
					}
				}
			}
		}
	}
}

// TestScanLabelsMatchesLabel pins ScanLabels to the per-row CopyRow oracle
// on every backing.
func TestScanLabelsMatchesLabel(t *testing.T) {
	for name, ds := range batchBackings(t) {
		n := ds.NumExamples()
		buf := make([]int8, 23)
		for from := 0; from <= n+3; from += 23 {
			m := ds.ScanLabels(buf, from)
			want := n - from
			if want > len(buf) {
				want = len(buf)
			}
			if want < 0 {
				want = 0
			}
			if m != want {
				t.Fatalf("%s: ScanLabels(%d) returned %d want %d", name, from, m, want)
			}
			for k := 0; k < m; k++ {
				if want := labelOf(ds, from+k); buf[k] != want {
					t.Fatalf("%s: ScanLabels(%d)[%d] = %d, CopyRow = %d", name, from, k, buf[k], want)
				}
			}
		}
	}
}

// TestGatherFeaturesMatchesAt pins GatherFeatures — a strided column-major
// block of features and labels over repeated, unordered rows — to the
// per-row CopyRow oracle on every backing.
func TestGatherFeaturesMatchesAt(t *testing.T) {
	for name, ds := range batchBackings(t) {
		n := ds.NumExamples()
		rows := []int{n - 1, 0, n / 2, 0, n - 1, 1, n / 3}
		feats := []int{LabelColumn}
		for j := ds.NumFeatures() - 1; j >= 0; j-- {
			feats = append(feats, j)
		}
		stride := len(rows) + 2
		block := make([]relational.Value, len(feats)*stride)
		ds.GatherFeatures(block, stride, feats, rows)
		for i, j := range feats {
			for k, r := range rows {
				row, y := exampleOf(ds, r)
				want := relational.Value(y)
				if j != LabelColumn {
					want = row[j]
				}
				if got := block[i*stride+k]; got != want {
					t.Fatalf("%s: GatherFeatures feature %d row %d = %d, want %d", name, j, r, got, want)
				}
			}
		}
	}
}

// countingRelation forwards to a source relation and counts CopyRow calls,
// the one per-row read a relation keeps.
type countingRelation struct {
	*relational.SegmentedTable
	copies *int
}

func (c countingRelation) CopyRow(dst []relational.Value, row int) []relational.Value {
	*c.copies++
	return c.SegmentedTable.CopyRow(dst, row)
}

// TestScanLabelsSubsetGathers checks that ScanLabels on a Subset of a Subset
// reads the target column through the relation's gather, not one row read
// per example, and agrees with the composed remap.
func TestScanLabelsSubsetGathers(t *testing.T) {
	_, jv := viewStar(t, 300, 12, 9)
	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	var copies int
	ds, err := FromRelation(countingRelation{st, &copies}, ViewColumns(jv, JoinAll, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	outer := ds.Subset([]int{299, 5, 5, 140, 0, 77})
	sub := outer.Subset([]int{5, 0, 3, 3})
	got := make([]int8, sub.NumExamples())
	sub.ScanLabels(got, 0)
	if copies != 0 {
		t.Fatalf("ScanLabels on a Subset made %d CopyRow calls, want a gather", copies)
	}
	for i, r := range []int{77, 299, 140, 140} {
		if want := labelOf(ds, r); got[i] != want {
			t.Fatalf("ScanLabels[%d] = %d, source row %d has %d", i, got[i], r, want)
		}
	}
}
