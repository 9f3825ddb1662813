package ml

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/rng"
)

// batchBackings builds one logical dataset over every backing the batch
// accessors must handle: dense storage, relation views (row-major and
// columnar, with and without split-style select views), and composed
// Subset/SelectFeatures remaps. All are views of the same cells, so the
// batch reads must agree with the scalar accessors on each.
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
	return map[string]*Dataset{
		"dense":                    full.Materialize(),
		"relation":                 full,
		"select-over-join":         overSelect,
		"columnar":                 overColumnar,
		"select-over-columnar":     overSelectColumnar,
		"segmented":                overSegmented,
		"select-over-segmented":    overSelectSegmented,
		"subset":                   full.Subset(idx),
		"subset-of-dense":          full.Materialize().Subset(idx),
		"feature-remap":            full.SelectFeatures([]int{2, 0}),
		"subset-plus-remap":        full.Subset(idx).SelectFeatures([]int{2, 0}),
		"dense-subset-plus-remap":  full.Materialize().Subset(idx).SelectFeatures([]int{2, 0}),
		"remap-of-subset-of-dense": full.Materialize().SelectFeatures([]int{1, 2}).Subset(idx),
	}
}

// TestScanFeatureMatchesAt pins ScanFeature (all offsets, short buffers) and
// GatherFeature (repeated, unordered rows) to At on every backing.
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
					if got, want := buf[k], ds.At(from+k, j); got != want {
						t.Fatalf("%s: ScanFeature(%d,%d)[%d] = %d, At = %d", name, j, from, k, got, want)
					}
				}
			}
		}
		if n < 3 {
			t.Fatalf("%s: backing too small", name)
		}
		rows := []int{n - 1, 0, n / 2, 0, n - 1, 1}
		out := make([]relational.Value, len(rows))
		for j := 0; j < ds.NumFeatures(); j++ {
			ds.GatherFeature(out, j, rows)
			for k, i := range rows {
				if got, want := out[k], ds.At(i, j); got != want {
					t.Fatalf("%s: GatherFeature(%d)[%d] = %d, At = %d", name, j, k, got, want)
				}
			}
		}
	}
}

// TestScanLabelsMatchesLabel pins ScanLabels to Label on every backing.
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
				if buf[k] != ds.Label(from+k) {
					t.Fatalf("%s: ScanLabels(%d)[%d] = %d, Label = %d", name, from, k, buf[k], ds.Label(from+k))
				}
			}
		}
	}
}
