package relational

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// randomWideTable builds a table whose column domains force all three
// storage widths (u8, u16, u32) in the segmented engine's columns.
func randomWideTable(t testing.TB, n int, seed uint64) *Table {
	t.Helper()
	r := rng.New(seed)
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "narrow", Kind: KindFeature, Domain: NewDomain("d4", 4)},
		Column{Name: "edge8", Kind: KindFeature, Domain: NewDomain("d256", 256)},
		Column{Name: "mid", Kind: KindFeature, Domain: NewDomain("d300", 300)},
		Column{Name: "edge16", Kind: KindFeature, Domain: NewDomain("d65536", 1<<16)},
		Column{Name: "wide", Kind: KindFeature, Domain: NewDomain("d70000", 70000)},
	)
	tab := NewTable("wide", schema, n)
	for i := 0; i < n; i++ {
		tab.MustAppendRow([]Value{
			Value(r.Intn(2)), Value(r.Intn(4)), Value(r.Intn(256)),
			Value(r.Intn(300)), Value(r.Intn(1 << 16)), Value(r.Intn(70000)),
		})
	}
	return tab
}

// requireSameRelation checks two relations cell-for-cell through CopyRow,
// ScanColumn, and GatherColumns.
func requireSameRelation(t *testing.T, want, got Relation) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("row count: want %d got %d", want.NumRows(), got.NumRows())
	}
	w := want.Schema().Width()
	if got.Schema().Width() != w {
		t.Fatalf("width: want %d got %d", w, got.Schema().Width())
	}
	n := want.NumRows()
	rowW := make([]Value, w)
	rowG := make([]Value, w)
	for i := 0; i < n; i++ {
		want.CopyRow(rowW, i)
		got.CopyRow(rowG, i)
		for j := 0; j < w; j++ {
			if rowW[j] != rowG[j] {
				t.Fatalf("CopyRow(%d)[%d]: want %d got %d", i, j, rowW[j], rowG[j])
			}
		}
	}
	// Scan with deliberately awkward offsets and a short dst to exercise the
	// clamping contract.
	for j := 0; j < w; j++ {
		for _, from := range []int{0, 1, n / 3, n - 1, n, n + 5} {
			if from < 0 { // n == 0 makes n-1 negative; offsets must be in range
				continue
			}
			bufW := make([]Value, 7)
			bufG := make([]Value, 7)
			mw := want.ScanColumn(j, from, bufW)
			mg := got.ScanColumn(j, from, bufG)
			if mw != mg {
				t.Fatalf("ScanColumn(%d, %d) length: want %d got %d", j, from, mw, mg)
			}
			for k := 0; k < mw; k++ {
				if bufW[k] != bufG[k] {
					t.Fatalf("ScanColumn(%d, %d)[%d]: want %d got %d", j, from, k, bufW[k], bufG[k])
				}
			}
		}
	}
	if n > 2 {
		rows := []int{n - 1, 0, n / 2, 0, n - 1}
		cols := make([]int, w)
		for j := range cols {
			cols[j] = w - 1 - j
		}
		stride := len(rows) + 1
		bufW := make([]Value, w*stride)
		bufG := make([]Value, w*stride)
		want.GatherColumns(bufW, stride, cols, rows)
		got.GatherColumns(bufG, stride, cols, rows)
		for i, c := range cols {
			for k := range rows {
				if a, b := bufW[i*stride+k], bufG[i*stride+k]; a != b {
					t.Fatalf("GatherColumns column %d [%d]: want %d got %d", c, k, a, b)
				}
			}
		}
	}
}

// TestColumnarTableMatchesTable is the one-slab equivalence property: a
// default-size SegmentedTable filled with the same rows as a row-major
// Table holds them in a single columnar segment and is bit-identical under
// every read API, across all three column widths.
func TestColumnarTableMatchesTable(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		tab := randomWideTable(t, 257, seed)
		st := segmentedCopy(t, tab, SegmentOptions{})
		requireSameRelation(t, tab, st)
		if got := st.NumSegments(); got != 1 {
			t.Fatalf("default-size table of 257 rows has %d segments, want 1", got)
		}
	}
}

// TestColumnarAppendRowsMatchesAppendRow checks the bulk path of both
// layouts — the row-major Table and a one-slab SegmentedTable — against the
// row-at-a-time source.
func TestColumnarAppendRowsMatchesAppendRow(t *testing.T) {
	tab := randomWideTable(t, 100, 3)
	w := tab.Schema().Width()
	block := make([]Value, 0, tab.NumRows()*w)
	row := make([]Value, w)
	for i := 0; i < tab.NumRows(); i++ {
		block = append(block, tab.CopyRow(row, i)...)
	}
	st, err := NewSegmentedTable("bulk", tab.Schema(), SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st.Reserve(tab.NumRows())
	if err := st.AppendRows(block); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, st)

	rt := NewTable("bulk_row", tab.Schema(), tab.NumRows())
	if err := rt.AppendRows(block); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, rt)
}

// TestAppendRowsRejectsBadInput pins the bulk-validation contract of both
// layouts: a bad block errors and appends nothing, on a one-slab and on a
// multi-segment SegmentedTable alike.
func TestAppendRowsRejectsBadInput(t *testing.T) {
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "x", Kind: KindFeature, Domain: NewDomain("x", 4)},
	)
	for _, tt := range []struct {
		name  string
		block []Value
		want  string
	}{
		{"ragged", []Value{0, 1, 0}, "multiple of width"},
		{"negative", []Value{0, -1}, "outside domain"},
		{"toobig", []Value{0, 1, 1, 4}, "outside domain"},
	} {
		rt := NewTable("t", schema, 1)
		if err := rt.AppendRows(tt.block); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Fatalf("%s: Table.AppendRows err = %v, want %q", tt.name, err, tt.want)
		}
		if rt.NumRows() != 0 {
			t.Fatalf("%s: failed append must not add rows", tt.name)
		}
		for _, segSize := range []int{0, 1} {
			st, err := NewSegmentedTable("t", schema, SegmentOptions{SegmentSize: segSize})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.AppendRows(tt.block); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("%s: segsize %d: SegmentedTable.AppendRows err = %v, want %q", tt.name, segSize, err, tt.want)
			}
			if st.NumRows() != 0 || st.NumSegments() != 0 {
				t.Fatalf("%s: segsize %d: failed append must not add rows", tt.name, segSize)
			}
		}
	}
}

// TestViewStackScanColumn is the read contract of every Relation
// implementation — Table, JoinView, an in-memory and a spilled
// SegmentedTable (cache of one segment), a SelectView over each and a
// SelectView over a SelectView: ScanColumn and GatherColumns agree with At.
func TestViewStackScanColumn(t *testing.T) {
	ss := testStar(t, 300, 17, 29, 11)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := MaterializeSegmented(jv, "mem", SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := MaterializeSegmented(jv, "spill", SegmentOptions{
		SegmentSize: 64, SpillDir: t.TempDir(), CacheBytes: mem.entries[0].bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	r := rng.New(5)
	idx := make([]int, 120)
	for i := range idx {
		idx[i] = r.Intn(jv.NumRows())
	}
	bases := map[string]Relation{
		"table": Materialize(jv, "tab"), "join": jv, "segmented": mem, "spilled": spill,
	}
	rels := map[string]Relation{}
	for name, base := range bases {
		rels[name] = base
		sel, err := NewSelectView(base, idx)
		if err != nil {
			t.Fatal(err)
		}
		rels["select-over-"+name] = sel
	}
	sel2, err := NewSelectView(rels["select-over-spilled"], []int{119, 0, 7, 7, 64, 3})
	if err != nil {
		t.Fatal(err)
	}
	rels["select-over-select"] = sel2
	for name, rel := range rels {
		requireReadContract(t, name, rel)
	}
}

// sentinel marks dst cells a batch read must leave alone.
const sentinel Value = -7

// requireReadContract pins rel's ScanColumn and GatherColumns to its
// CopyRow: scans from every offset including the end and past it, and
// gathers of repeated, unordered rows into a block whose stride leaves a gap
// after each column, plus the empty-rows and empty-cols edges. Cells outside
// the requested ranges must stay untouched.
func requireReadContract(t *testing.T, name string, rel Relation) {
	t.Helper()
	w, n := rel.Schema().Width(), rel.NumRows()
	at := copiedRows(rel)
	buf := make([]Value, 13)
	for j := 0; j < w; j++ {
		for _, from := range []int{0, 1, n / 2, n - 13, n - 1, n, n + 4} {
			if from < 0 {
				continue
			}
			for k := range buf {
				buf[k] = sentinel
			}
			m := rel.ScanColumn(j, from, buf)
			if want := max(0, min(len(buf), n-from)); m != want {
				t.Fatalf("%s: ScanColumn(%d,%d) returned %d want %d", name, j, from, m, want)
			}
			for k := range buf {
				want := sentinel
				if k < m {
					want = at[from+k][j]
				}
				if buf[k] != want {
					t.Fatalf("%s: ScanColumn(%d,%d)[%d] = %d, want %d", name, j, from, k, buf[k], want)
				}
			}
		}
		if m := rel.ScanColumn(j, 0, nil); m != 0 {
			t.Fatalf("%s: ScanColumn into an empty dst returned %d", name, m)
		}
	}

	r := rng.New(uint64(n))
	rows := []int{n - 1, 0, n / 2, 0, n - 1, 2, 1}
	for len(rows) < 90 {
		rows = append(rows, r.Intn(n))
	}
	cols := []int{w - 1, 0, w / 2, 0}
	stride := len(rows) + 5
	block := make([]Value, len(cols)*stride)
	fill := func() {
		for k := range block {
			block[k] = sentinel
		}
	}
	fill()
	rel.GatherColumns(block, stride, cols, rows)
	for i, c := range cols {
		for k := 0; k < stride; k++ {
			want := sentinel
			if k < len(rows) {
				want = at[rows[k]][c]
			}
			if got := block[i*stride+k]; got != want {
				t.Fatalf("%s: GatherColumns column %d [%d] = %d, want %d", name, c, k, got, want)
			}
		}
	}
	fill()
	rel.GatherColumns(block, stride, cols, nil)
	rel.GatherColumns(block, stride, nil, rows)
	rel.GatherColumns(nil, 0, cols, nil)
	for k, v := range block {
		if v != sentinel {
			t.Fatalf("%s: an empty gather wrote block[%d] = %d", name, k, v)
		}
	}
}

// copiedRows reads every row of rel through CopyRow, the per-row read
// every Relation keeps.
func copiedRows(rel Relation) [][]Value {
	w := rel.Schema().Width()
	out := make([][]Value, rel.NumRows())
	for i := range out {
		out[i] = rel.CopyRow(make([]Value, w), i)
	}
	return out
}

// cell reads one cell of rel through CopyRow.
func cell(rel Relation, row, col int) Value {
	return rel.CopyRow(make([]Value, rel.Schema().Width()), row)[col]
}

// TestMaterializeColumnarMatchesMaterialize checks that a default-size
// MaterializeSegmented of a lazy join — one slab whose open tail holds
// exactly its rows — agrees with Materialize.
func TestMaterializeColumnarMatchesMaterialize(t *testing.T) {
	ss := testStar(t, 200, 13, 7, 21)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	rowT := Materialize(jv, "rows")
	colT, err := MaterializeSegmented(jv, "cols", SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, rowT, colT)
	if colT.NumSegments() != 1 || tailCap(colT) != rowT.NumRows() {
		t.Fatalf("%d segments, tail capacity %d rows; want 1 segment of %d",
			colT.NumSegments(), tailCap(colT), rowT.NumRows())
	}
}

// TestMaterializeColumnarEmpty pins the empty-relation edge.
func TestMaterializeColumnarEmpty(t *testing.T) {
	schema := MustSchema(Column{Name: "x", Kind: KindFeature, Domain: NewDomain("x", 4)})
	empty := NewTable("empty", schema, 0)
	st, err := MaterializeSegmented(empty, "e", SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NumRows() != 0 || st.NumSegments() != 0 || tailCap(st) != 0 {
		t.Fatalf("empty materialize: %d rows, %d segments, tail capacity %d",
			st.NumRows(), st.NumSegments(), tailCap(st))
	}
}

// FuzzColumnarEquivalence feeds arbitrary row bytes into the row-major
// Table and a one-slab SegmentedTable and requires every accepted row set
// to read back identically (FuzzSegmentedEquivalence adds the segment size
// as a fuzzed input).
func FuzzColumnarEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 0, 4})
	f.Add([]byte{1, 255, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		requireEquivalentAppends(t, 0, raw)
	})
}
