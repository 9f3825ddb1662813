package relational

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/rng"
)

// segmentedCopy fills a SegmentedTable with the rows of src.
func segmentedCopy(t testing.TB, src *Table, opts SegmentOptions) *SegmentedTable {
	t.Helper()
	st, err := NewSegmentedTable(src.Name+"_seg", src.Schema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]Value, src.Schema().Width())
	for i := 0; i < src.NumRows(); i++ {
		src.CopyRow(row, i)
		if err := st.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestSegmentedMatchesTable is the segmented engine's equivalence property:
// row counts straddling every segment boundary (empty, single row, one row
// short of a seal, exactly one segment, one over, several segments plus a
// tail) read back bit-identically to the row-major table under every API.
func TestSegmentedMatchesTable(t *testing.T) {
	const segSize = 64
	for _, n := range []int{0, 1, segSize - 1, segSize, segSize + 1, 3*segSize + 17} {
		tab := randomWideTable(t, n, uint64(n)+1)
		st := segmentedCopy(t, tab, SegmentOptions{SegmentSize: segSize})
		requireSameRelation(t, tab, st)
		wantSegs := (n + segSize - 1) / segSize
		if got := st.NumSegments(); got != wantSegs {
			t.Fatalf("n=%d: NumSegments() = %d, want %d", n, got, wantSegs)
		}
	}
}

// TestSegmentedSpilledMatchesTable re-runs the equivalence property with the
// out-of-core tier active and a cache budget small enough to force eviction
// and re-faulting during the comparison reads.
func TestSegmentedSpilledMatchesTable(t *testing.T) {
	const segSize = 64
	tab := randomWideTable(t, 5*segSize+9, 11)
	st := segmentedCopy(t, tab, SegmentOptions{
		SegmentSize: segSize,
		SpillDir:    t.TempDir(),
		CacheBytes:  1024, // roughly one segment's worth; forces thrash
	})
	defer st.Close()
	if !st.Spilled() {
		t.Fatal("table with SpillDir must report Spilled")
	}
	requireSameRelation(t, tab, st)
	if rb := st.ResidentBytes(); rb > 4*1024 {
		t.Fatalf("resident bytes %d stayed far above the 1024-byte budget", rb)
	}
}

// TestSegmentedAppendRowsMatchesAppendRow checks the bulk path seals the
// same segments as row-at-a-time appends (TestAppendRowsRejectsBadInput
// covers its validation contract).
func TestSegmentedAppendRowsMatchesAppendRow(t *testing.T) {
	const segSize = 32
	tab := randomWideTable(t, 3*segSize+5, 3)
	w := tab.Schema().Width()
	block := make([]Value, 0, tab.NumRows()*w)
	row := make([]Value, w)
	for i := 0; i < tab.NumRows(); i++ {
		block = append(block, tab.CopyRow(row, i)...)
	}
	st, err := NewSegmentedTable("bulk", tab.Schema(), SegmentOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	st.Reserve(tab.NumRows())
	if err := st.AppendRows(block); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, st)
}

// TestSegmentedColumnRange pins ColumnRange: the running bounds cover
// sealed segments and the open tail alike, prove a constant column, and
// report nothing for an empty table.
func TestSegmentedColumnRange(t *testing.T) {
	schema := MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "clustered", Kind: KindFeature, Domain: NewDomain("c", 1000)},
		Column{Name: "constant", Kind: KindFeature, Domain: NewDomain("k", 8)},
	)
	st, err := NewSegmentedTable("cr", schema, SegmentOptions{SegmentSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Three sealed segments and an open tail (rows 30..34).
	for i := 0; i < 35; i++ {
		st.MustAppendRow([]Value{Value(i % 2), Value(i), 5})
	}
	if lo, hi, ok := st.ColumnRange(1); !ok || lo != 0 || hi != 34 {
		t.Fatalf("ColumnRange(clustered) = [%d,%d] ok=%v, want [0,34]", lo, hi, ok)
	}
	if lo, hi, ok := st.ColumnRange(2); !ok || lo != 5 || hi != 5 {
		t.Fatalf("ColumnRange(constant) = [%d,%d] ok=%v, want [5,5]", lo, hi, ok)
	}
	empty, _ := NewSegmentedTable("e", schema, SegmentOptions{})
	if _, _, ok := empty.ColumnRange(1); ok {
		t.Fatal("empty table must report no column range")
	}
}

// tailCap returns the row capacity of the open tail's first column.
func tailCap(st *SegmentedTable) int {
	c := &st.tail.cols[0]
	return max(cap(c.u8), cap(c.u16), cap(c.u32))
}

// TestMaterializeSegmented checks the chunked scanner drain against
// Materialize across several segments, and that the open
// tail is sized to the rows it holds rather than to a full segment
// (TestMaterializeColumnarMatchesMaterialize and TestMaterializeColumnarEmpty
// cover the one-slab and empty cases).
func TestMaterializeSegmented(t *testing.T) {
	ss := testStar(t, 200, 13, 7, 21)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	rowT := Materialize(jv, "rows")
	for _, tc := range []struct {
		segSize, wantTail int
	}{
		{37, 200 - 5*37}, // five sealed segments and a partial tail
		{40, 0},          // exact fill: the tail after the last seal is empty
	} {
		opts := SegmentOptions{SegmentSize: tc.segSize}
		segT, err := MaterializeSegmented(jv, "segs", opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRelation(t, rowT, segT)
		if got := tailCap(segT); got != tc.wantTail {
			t.Fatalf("segsize %d: tail capacity %d rows, want %d", tc.segSize, got, tc.wantTail)
		}
	}
}

// badCell wraps a relation and reports one cell outside its column's
// domain, through ScanColumn and CopyRow alike — a corrupted source.
type badCell struct {
	Relation
	row, col int
}

// bad is the corrupted cell's value: its column's domain size.
func (b badCell) bad() Value { return Value(b.Schema().Cols[b.col].Domain.Size) }

func (b badCell) CopyRow(dst []Value, i int) []Value {
	dst = b.Relation.CopyRow(dst, i)
	if i == b.row {
		dst[b.col] = b.bad()
	}
	return dst
}

func (b badCell) ScanColumn(col, from int, dst []Value) int {
	m := b.Relation.ScanColumn(col, from, dst)
	if col == b.col && b.row >= from && b.row < from+m {
		dst[b.row-from] = b.bad()
	}
	return m
}

// TestMaterializeSegmentedDomainError checks that a source cell outside its
// domain is a returned error, not a panic, and that the heap file of the segments already spilled is removed:
// the spill directory fscks clean and holds no heap file.
func TestMaterializeSegmentedDomainError(t *testing.T) {
	tab := randomWideTable(t, 100, 5)
	bad := badCell{Relation: tab, row: 70, col: 2}
	dir := t.TempDir()
	st, err := MaterializeSegmented(bad, "bad", SegmentOptions{SegmentSize: 16, SpillDir: dir})
	if err == nil || st != nil || !strings.Contains(err.Error(), "outside domain") {
		t.Fatalf("MaterializeSegmented = %v, %v; want an out-of-domain error", st, err)
	}
	rep, err := FsckDir(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Files != 0 {
		t.Fatalf("spill dir after the failed materialize: %d heap files, issues %v", rep.Files, rep.Issues)
	}
}

// TestSegmentedViaSelectView checks the composed-remap gather path a split
// view routes through the segmented engine.
func TestSegmentedViaSelectView(t *testing.T) {
	tab := randomWideTable(t, 300, 21)
	st := segmentedCopy(t, tab, SegmentOptions{SegmentSize: 64})
	r := rng.New(4)
	idx := make([]int, 120)
	for i := range idx {
		idx[i] = r.Intn(tab.NumRows())
	}
	want, err := NewSelectView(tab, idx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSelectView(st, idx)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, want, got)
	// The view forwards the segmented source's column range.
	lo, hi, ok := got.ColumnRange(0)
	wlo, whi, wok := st.ColumnRange(0)
	if !ok || !wok || lo != wlo || hi != whi {
		t.Fatalf("view ColumnRange = [%d,%d] ok=%v, source [%d,%d] ok=%v", lo, hi, ok, wlo, whi, wok)
	}
}

// TestReadCSVIntoSegmented round-trips a table through CSV into a segmented
// table whose segment size forces several seals mid-stream.
func TestReadCSVIntoSegmented(t *testing.T) {
	tab := randomWideTable(t, 250, 31)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	st, err := NewSegmentedTable("csv", tab.Schema(), SegmentOptions{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadCSVInto(bytes.NewReader(buf.Bytes()), st); err != nil {
		t.Fatal(err)
	}
	requireSameRelation(t, tab, st)
}

// TestSegmentedOutOfCoreLifecycle checks the heap file exists while the
// table lives, eviction keeps the resident set near the budget during bulk
// reads, and Close removes the file.
func TestSegmentedOutOfCoreLifecycle(t *testing.T) {
	dir := t.TempDir()
	tab := randomWideTable(t, 400, 13)
	st := segmentedCopy(t, tab, SegmentOptions{SegmentSize: 32, SpillDir: dir, CacheBytes: 2048})
	path := st.pager.Path()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("heap file missing while table alive: %v", err)
	}
	buf := make([]Value, tab.NumRows())
	for j := 0; j < tab.Schema().Width(); j++ {
		st.ScanColumn(j, 0, buf)
	}
	if rb := st.ResidentBytes(); rb > 8*1024 {
		t.Fatalf("resident bytes %d, want near the 2048 budget", rb)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("heap file must be removed on Close, stat err = %v", err)
	}
}

// TestSegmentedConcurrentSpilledReads hammers a spilled table under a cache
// budget that holds only a fraction of the segments, from many goroutines
// mixing scans, single- and multi-column gathers, and point reads — the
// pin/unpin-vs-evict race the LRU cache must survive, and concurrent use of
// the grouped gather's pooled scratch. Run under -race this is the coverage
// for concurrent pin/unpin while scans are in flight.
func TestSegmentedConcurrentSpilledReads(t *testing.T) {
	const segSize = 64
	tab := randomWideTable(t, 8*segSize+11, 17)
	st := segmentedCopy(t, tab, SegmentOptions{
		SegmentSize: segSize,
		SpillDir:    t.TempDir(),
		CacheBytes:  3 * 1024,
	})
	defer st.Close()
	n := st.NumRows()
	w := st.Schema().Width()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(100 + g))
			buf := make([]Value, 200)
			rows := make([]int, 64)
			rowBuf := make([]Value, w)
			cols := []int{w - 1, 0, 2}
			block := make([]Value, len(cols)*len(rows))
			for iter := 0; iter < 30; iter++ {
				j := r.Intn(w)
				from := r.Intn(n)
				m := st.ScanColumn(j, from, buf)
				for k := 0; k < m; k++ {
					if want := tab.At(from+k, j); buf[k] != want {
						t.Errorf("g%d: ScanColumn(%d,%d)[%d] = %d want %d", g, j, from, k, buf[k], want)
						return
					}
				}
				for k := range rows {
					rows[k] = r.Intn(n)
				}
				st.GatherColumns(buf, len(rows), []int{j}, rows)
				for k, row := range rows {
					if want := tab.At(row, j); buf[k] != want {
						t.Errorf("g%d: GatherColumns(%d)[%d] = %d want %d", g, j, k, buf[k], want)
						return
					}
				}
				st.GatherColumns(block, len(rows), cols, rows)
				for i, c := range cols {
					for k, row := range rows {
						if want := tab.At(row, c); block[i*len(rows)+k] != want {
							t.Errorf("g%d: GatherColumns col %d [%d] = %d want %d", g, c, k, block[i*len(rows)+k], want)
							return
						}
					}
				}
				i := r.Intn(n)
				st.CopyRow(rowBuf, i)
				for j := 0; j < w; j++ {
					if want := tab.At(i, j); rowBuf[j] != want {
						t.Errorf("g%d: CopyRow(%d)[%d] = %d want %d", g, i, j, rowBuf[j], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSegmentCodecRejectsCorruption checks decodeSegment errors (never
// panics) on truncated or mangled blobs — heap files are external state.
func TestSegmentCodecRejectsCorruption(t *testing.T) {
	s := &segment{n: 4, cols: make([]colData, 2)}
	s.cols[0] = newColData(10, 4)
	s.cols[1] = newColData(70000, 4)
	for i := 0; i < 4; i++ {
		s.cols[0].append(Value(i))
		s.cols[1].append(Value(i * 1000))
	}
	blob := encodeSegment(s)
	back, err := decodeSegment(blob, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if back.cols[0].at(i) != Value(i) || back.cols[1].at(i) != Value(i*1000) {
			t.Fatalf("round trip diverged at row %d", i)
		}
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"badmagic":  func(b []byte) []byte { b = append([]byte(nil), b...); b[0] = 'X'; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-3] },
		"shorthdr":  func(b []byte) []byte { return b[:6] },
		"badrows": func(b []byte) []byte {
			b = append([]byte(nil), b...)
			b[4] = 99
			return b
		},
	} {
		if _, err := decodeSegment(mangle(append([]byte(nil), blob...)), 4, 2); err == nil {
			t.Fatalf("%s: corrupted blob must error", name)
		}
	}
}

// FuzzSegmentedEquivalence feeds arbitrary row bytes and an arbitrary
// segment size into the segmented engine and requires every accepted row
// set to read back identically to the row-major Table — the seeds pin the
// boundary cases (empty, single row, segsize±1, exact fill, multi-segment).
func FuzzSegmentedEquivalence(f *testing.F) {
	rowsOf := func(rows ...[]byte) []byte {
		var out []byte
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	valid := []byte{1, 200, 3}
	f.Add(uint8(4), []byte{})                                         // empty
	f.Add(uint8(4), rowsOf(valid))                                    // single row
	f.Add(uint8(4), rowsOf(valid, valid, valid))                      // segsize-1
	f.Add(uint8(4), rowsOf(valid, valid, valid, valid))               // exact fill
	f.Add(uint8(4), rowsOf(valid, valid, valid, valid, valid))        // segsize+1
	f.Add(uint8(2), rowsOf(valid, valid, valid, valid, valid, valid)) // multi-segment
	f.Add(uint8(1), rowsOf(valid, valid, valid))                      // row-per-segment
	f.Add(uint8(0), rowsOf(valid, valid))                             // default size
	f.Fuzz(func(t *testing.T, segSize uint8, raw []byte) {
		requireEquivalentAppends(t, int(segSize), raw)
	})
}

// fuzzSchema is the three-column schema of the equivalence fuzzers: one
// u16-width column between two u8-width ones.
var fuzzSchema = MustSchema(
	Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
	Column{Name: "a", Kind: KindFeature, Domain: NewDomain("a", 300)},
	Column{Name: "b", Kind: KindFeature, Domain: NewDomain("b", 5)},
)

// requireEquivalentAppends appends the rows encoded in raw (one byte per
// cell of fuzzSchema) to a row-major Table and to a SegmentedTable of the
// given segment size, and requires both to accept the same rows and read
// them back identically — cells, scans, and all three gathers over a
// reversed, repeated row list; ColumnRange must cover every stored value.
func requireEquivalentAppends(t *testing.T, segSize int, raw []byte) {
	w := fuzzSchema.Width()
	n := len(raw) / w
	rt := NewTable("rt", fuzzSchema, n)
	st, err := NewSegmentedTable("st", fuzzSchema, SegmentOptions{SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]Value, w)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			row[j] = Value(raw[i*w+j])
		}
		errR := rt.AppendRow(row)
		errS := st.AppendRow(row)
		if (errR == nil) != (errS == nil) {
			t.Fatalf("engines disagree on row %v: row-major err %v, segmented err %v", row, errR, errS)
		}
	}
	if rt.NumRows() != st.NumRows() {
		t.Fatalf("row counts diverged: %d vs %d", rt.NumRows(), st.NumRows())
	}
	rows := copiedRows(st)
	for i := 0; i < rt.NumRows(); i++ {
		for j := 0; j < w; j++ {
			if rt.At(i, j) != rows[i][j] {
				t.Fatalf("CopyRow(%d)[%d] diverged", i, j)
			}
		}
	}
	requireEquivalentGathers(t, rt, st)
	bufR := make([]Value, 3)
	bufS := make([]Value, 3)
	for j := 0; j < w; j++ {
		for from := 0; from <= rt.NumRows(); from += 2 {
			mR := rt.ScanColumn(j, from, bufR)
			mS := st.ScanColumn(j, from, bufS)
			if mR != mS {
				t.Fatalf("scan lengths diverged at (%d,%d): %d vs %d", j, from, mR, mS)
			}
			for k := 0; k < mR; k++ {
				if bufR[k] != bufS[k] {
					t.Fatalf("scan values diverged at (%d,%d)[%d]", j, from, k)
				}
			}
		}
		lo, hi, ok := st.ColumnRange(j)
		if ok != (st.NumRows() > 0) {
			t.Fatalf("ColumnRange(%d) ok=%v on %d rows", j, ok, st.NumRows())
		}
		for i := 0; i < st.NumRows(); i++ {
			if v := rows[i][j]; v < lo || v > hi {
				t.Fatalf("ColumnRange(%d) = [%d,%d] excludes present value %d", j, lo, hi, v)
			}
		}
	}
}

// requireEquivalentGathers compares GatherColumns of st, one column and
// all columns at once, and of a SelectView over st against the row-major
// rt on every row twice, last row first. The view's remap is that list and
// the view's rows read it back to front, so the composed rows ascend: the
// kernel's bucketed and segment-ordered branches both run once the table
// spans several segments.
func requireEquivalentGathers(t *testing.T, rt *Table, st *SegmentedTable) {
	t.Helper()
	n, w := rt.NumRows(), rt.Schema().Width()
	rows := make([]int, 0, 2*n)
	for i := n - 1; i >= 0; i-- {
		rows = append(rows, i, i)
	}
	back := make([]int, len(rows))
	for k := range back {
		back[k] = len(rows) - 1 - k
	}
	rsel, err := NewSelectView(rt, rows)
	if err != nil {
		t.Fatal(err)
	}
	ssel, err := NewSelectView(st, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Value, len(rows))
	got := make([]Value, len(rows))
	cols := make([]int, w)
	for j := range cols {
		cols[j] = w - 1 - j
	}
	block := make([]Value, w*len(rows))
	st.GatherColumns(block, len(rows), cols, rows)
	for j := 0; j < w; j++ {
		one := []int{j}
		rt.GatherColumns(want, len(rows), one, rows)
		st.GatherColumns(got, len(rows), one, rows)
		for k := range rows {
			if got[k] != want[k] {
				t.Fatalf("GatherColumns(%d)[%d] = %d, want %d", j, k, got[k], want[k])
			}
		}
		rsel.GatherColumns(want, len(rows), one, back)
		ssel.GatherColumns(got, len(rows), one, back)
		for k := range rows {
			if got[k] != want[k] {
				t.Fatalf("SelectView.GatherColumns(%d)[%d] = %d, want %d", j, k, got[k], want[k])
			}
		}
	}
	for i, c := range cols {
		for k, row := range rows {
			if v := block[i*len(rows)+k]; v != rt.At(row, c) {
				t.Fatalf("GatherColumns column %d [%d] = %d, want %d", c, k, v, rt.At(row, c))
			}
		}
	}
}
