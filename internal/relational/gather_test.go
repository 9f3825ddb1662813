package relational

import (
	"testing"

	"repro/internal/rng"
)

// TestGroupedGatherPinsEachSegmentOnce pins the grouped gather kernel's
// contract on a spilled table whose cache holds exactly one segment: a
// shuffled row list with repeats that spans S sealed segments faults at
// most S segments per call — for one-column and multi-column GatherColumns,
// on the table and through a SelectView over it — and every value
// equals the row-major Table's. Once warm, the gathers allocate nothing.
func TestGroupedGatherPinsEachSegmentOnce(t *testing.T) {
	const segSize = 64
	tab := randomWideTable(t, 6*segSize+9, 23)
	w := tab.Schema().Width()
	oneSeg := segmentedCopy(t, tab, SegmentOptions{SegmentSize: segSize}).entries[0].bytes
	st := segmentedCopy(t, tab, SegmentOptions{SegmentSize: segSize, SpillDir: t.TempDir(), CacheBytes: oneSeg})
	defer st.Close()

	r := rng.New(5)
	rows := make([]int, 300)
	for k := range rows {
		if k%3 == 2 {
			rows[k] = rows[k-1] // a repeat
		} else {
			rows[k] = r.Intn(tab.NumRows())
		}
	}
	touched := map[int]bool{}
	for _, row := range rows {
		if si := row / segSize; si < len(st.entries) {
			touched[si] = true
		}
	}
	segs := uint64(len(touched))
	if segs < 5 {
		t.Fatalf("row list touches %d sealed segments, want a spread", segs)
	}
	missesOf := func(name string, gather func()) {
		t.Helper()
		before := SegCacheMisses.Value()
		gather()
		if got := SegCacheMisses.Value() - before; got > segs {
			t.Fatalf("%s: %d segment misses for a gather over %d segments", name, got, segs)
		}
	}

	dst := make([]Value, len(rows))
	for j := 0; j < w; j++ {
		missesOf("GatherColumns(one)", func() { st.GatherColumns(dst, len(rows), []int{j}, rows) })
		for k, row := range rows {
			if want := tab.At(row, j); dst[k] != want {
				t.Fatalf("GatherColumns(%d)[%d] = %d, want %d", j, k, dst[k], want)
			}
		}
	}

	// A split-style view: its remap is the shuffled list, and the caller
	// reads the view's rows back to front.
	sel, err := NewSelectView(st, rows)
	if err != nil {
		t.Fatal(err)
	}
	vrows := make([]int, len(rows))
	for k := range vrows {
		vrows[k] = len(rows) - 1 - k
	}
	for j := 0; j < w; j++ {
		missesOf("SelectView.GatherColumns(one)", func() { sel.GatherColumns(dst, len(vrows), []int{j}, vrows) })
		for k, vr := range vrows {
			if want := tab.At(rows[vr], j); dst[k] != want {
				t.Fatalf("SelectView.GatherColumns(%d)[%d] = %d, want %d", j, k, dst[k], want)
			}
		}
	}

	cols := []int{w - 1, 0, 3, 0}
	stride := len(rows) + 3
	block := make([]Value, len(cols)*stride)
	check := func(name string, src func(k int) int) {
		t.Helper()
		for i, c := range cols {
			for k := range rows {
				if got, want := block[i*stride+k], tab.At(src(k), c); got != want {
					t.Fatalf("%s column %d row %d = %d, want %d", name, c, k, got, want)
				}
			}
		}
	}
	missesOf("GatherColumns", func() { st.GatherColumns(block, stride, cols, rows) })
	check("GatherColumns", func(k int) int { return rows[k] })
	missesOf("SelectView.GatherColumns", func() { sel.GatherColumns(block, stride, cols, vrows) })
	check("SelectView.GatherColumns", func(k int) int { return rows[vrows[k]] })

	if raceEnabled {
		return // race instrumentation allocates; counts are proven in the non-race run
	}
	// Warm: a budget that never evicts, so no fault allocates a segment.
	warm := segmentedCopy(t, tab, SegmentOptions{SegmentSize: segSize, SpillDir: t.TempDir()})
	defer warm.Close()
	wsel, err := NewSelectView(warm, rows)
	if err != nil {
		t.Fatal(err)
	}
	one, two := []int{1}, []int{2}
	if avg := testing.AllocsPerRun(100, func() {
		warm.GatherColumns(dst, len(rows), one, rows)
		wsel.GatherColumns(dst, len(vrows), two, vrows)
		warm.GatherColumns(block, stride, cols, rows)
		wsel.GatherColumns(block, stride, cols, vrows)
	}); avg != 0 {
		t.Fatalf("warm gathers: %v allocs/op, want 0", avg)
	}
}
