package ml

import (
	"testing"

	"repro/internal/relational"
)

// requireValidCuts checks the ScanSpans contract: monotonic cut points
// covering exactly [0, n].
func requireValidCuts(t *testing.T, cuts []int, n int) {
	t.Helper()
	if len(cuts) < 2 || cuts[0] != 0 || cuts[len(cuts)-1] != n {
		t.Fatalf("cuts %v do not cover [0, %d]", cuts, n)
	}
	for s := 1; s < len(cuts); s++ {
		if cuts[s] < cuts[s-1] {
			t.Fatalf("cuts %v not monotonic at %d", cuts, s)
		}
	}
}

// TestScanSpansSegmentAligned checks that over an unremapped segmented
// relation no span cuts a segment it does not lie inside: every span either
// stays within one segment (subdivision, when the worker pool wants more
// spans than there are segments) or covers whole segments (grouping, when
// segments outnumber the spans) — across table sizes above and below the
// worker pool's appetite.
func TestScanSpansSegmentAligned(t *testing.T) {
	_, jv := viewStar(t, 600, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	for _, segSize := range []int{32, 100, 1 << 20} {
		st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: segSize})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := FromRelation(st, cols, 0)
		if err != nil {
			t.Fatal(err)
		}
		n := ds.NumExamples()
		cuts := ScanSpans(ds)
		requireValidCuts(t, cuts, n)
		for s := 1; s < len(cuts); s++ {
			lo, hi := cuts[s-1], cuts[s]
			inOne := hi == lo || lo/segSize == (hi-1)/segSize
			whole := lo%segSize == 0 && (hi%segSize == 0 || hi == n)
			if !inOne && !whole {
				t.Fatalf("segSize %d: span [%d,%d) cuts a segment it does not lie inside (cuts %v)", segSize, lo, hi, cuts)
			}
		}
	}
}

// TestScanSpansFallbacks checks the arithmetic spans on non-segmented and
// row-remapped datasets, and the empty edge.
func TestScanSpansFallbacks(t *testing.T) {
	_, jv := viewStar(t, 300, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	ds, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireValidCuts(t, ScanSpans(ds), ds.NumExamples())

	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	segDS, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	sub := segDS.Subset([]int{5, 1, 200, 9})
	requireValidCuts(t, ScanSpans(sub), 4)

	requireValidCuts(t, ScanSpans(segDS.Subset([]int{})), 0)
}

// TestScanRowMajorSpilledSegmented runs the (feature, span) fan-out against
// an out-of-core segmented table whose cache budget holds only a fraction of
// the segments: concurrent scan tasks fault, pin, and evict segments under
// each other. Under -race this is the fan-out half of the concurrency
// satellite; the assertion pins bit-identical output vs the same scan over
// the in-memory join view.
func TestScanRowMajorSpilledSegmented(t *testing.T) {
	_, jv := viewStar(t, 800, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{
		SegmentSize: 64,
		SpillDir:    t.TempDir(),
		CacheBytes:  2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ds, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBlock, wantLabels := ScanRowMajor(ref)
	gotBlock, gotLabels := ScanRowMajor(ds)
	if len(wantBlock) != len(gotBlock) {
		t.Fatalf("block sizes diverged: %d vs %d", len(wantBlock), len(gotBlock))
	}
	for i := range wantBlock {
		if wantBlock[i] != gotBlock[i] {
			t.Fatalf("block[%d]: want %d got %d", i, wantBlock[i], gotBlock[i])
		}
	}
	for i := range wantLabels {
		if wantLabels[i] != gotLabels[i] {
			t.Fatalf("labels[%d]: want %d got %d", i, wantLabels[i], gotLabels[i])
		}
	}
}

// TestFeatureRangeRouting checks FeatureRange resolves through column remaps
// to the segmented source's column bounds, and reports no range for
// statistics-free backings.
func TestFeatureRangeRouting(t *testing.T) {
	_, jv := viewStar(t, 400, 12, 9)
	cols := ViewColumns(jv, JoinAll, nil)
	st, err := relational.MaterializeSegmented(jv, "st", relational.SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromRelation(st, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < ds.NumFeatures(); j++ {
		lo, hi, ok := ds.FeatureRange(j)
		if !ok {
			t.Fatalf("feature %d: no range over segmented backing", j)
		}
		// The bound must cover every visible value (sound over-approximation).
		n := ds.NumExamples()
		for i := 0; i < n; i++ {
			if v := rowOf(ds, i)[j]; v < lo || v > hi {
				t.Fatalf("feature %d: value %d outside reported range [%d,%d]", j, v, lo, hi)
			}
		}
	}
	// A feature remap must consult the right source column.
	remap := ds.SelectFeatures([]int{ds.NumFeatures() - 1})
	lo, hi, ok := remap.FeatureRange(0)
	wlo, whi, wok := ds.FeatureRange(ds.NumFeatures() - 1)
	if ok != wok || lo != wlo || hi != whi {
		t.Fatalf("remapped FeatureRange = [%d,%d] %v, want [%d,%d] %v", lo, hi, ok, wlo, whi, wok)
	}
	if _, _, ok := snapshot(ds).FeatureRange(0); ok {
		t.Fatal("an in-memory table has no statistics; FeatureRange must report none")
	}
	refDS, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := refDS.FeatureRange(0); ok {
		t.Fatal("join view has no statistics; FeatureRange must report none")
	}
}
