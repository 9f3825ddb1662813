package relational

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

// spilledTable builds a fully sealed, fully spilled segmented table whose
// every read faults in from disk (CacheBytes 1 evicts each segment on
// release), and returns it with its heap-file path.
func spilledTable(t *testing.T, segSize, nSegs int) (*SegmentedTable, *Table, string) {
	t.Helper()
	dir := t.TempDir()
	tab := randomWideTable(t, segSize*nSegs, uint64(segSize*nSegs)+3)
	st := segmentedCopy(t, tab, SegmentOptions{
		SegmentSize: segSize,
		SpillDir:    dir,
		CacheBytes:  1,
	})
	t.Cleanup(func() { st.Close() })
	if !st.Spilled() {
		t.Fatal("table did not spill")
	}
	return st, tab, filepath.Join(dir, tab.Name+"_seg"+segFileSuffix)
}

// readPanic runs f and returns the *CorruptSegmentError it panicked with,
// failing the test on any other outcome.
func readPanic(t *testing.T, f func()) *CorruptSegmentError {
	t.Helper()
	var cse *CorruptSegmentError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("corrupt read returned normally")
			}
			err, ok := r.(error)
			if !ok || !errors.As(err, &cse) {
				t.Fatalf("read panicked with %v, want *CorruptSegmentError", r)
			}
		}()
		f()
	}()
	return cse
}

// TestCorruptSegmentDetected is the torn-page property: a single flipped bit
// anywhere in a spilled segment's payload makes the next fault-in fail with
// a typed *CorruptSegmentError naming the table and segment — the engine can
// never silently train on wrong bytes.
func TestCorruptSegmentDetected(t *testing.T) {
	const segSize = 64
	st, tab, path := spilledTable(t, segSize, 2)
	requireSameRelation(t, tab, st) // sanity: clean reads round-trip first

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the first segment's blob (past the header).
	raw[segHeaderLen+7] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	before := StorageCorruptionDetected.Value()
	cse := readPanic(t, func() { st.ScanColumn(0, 0, make([]Value, 1)) })
	if cse.Table != tab.Name+"_seg" || cse.Segment != 0 {
		t.Fatalf("error names %s segment %d, want %s segment 0", cse.Table, cse.Segment, tab.Name+"_seg")
	}
	if !strings.Contains(cse.Error(), "corrupt segment") {
		t.Fatalf("error text %q", cse.Error())
	}
	if StorageCorruptionDetected.Value() != before+1 {
		t.Fatal("corruption counter did not move")
	}
	// The second segment's blob is untouched; reads there still work.
	if got, want := cell(st, segSize, 0), tab.At(segSize, 0); got != want {
		t.Fatalf("clean segment read %d, want %d", got, want)
	}
}

// TestCorruptHeaderDetected: damage to the blob header (bad magic) is caught
// before any payload is trusted.
func TestCorruptHeaderDetected(t *testing.T) {
	st, _, path := spilledTable(t, 32, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] = 'X' // magic
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cse := readPanic(t, func() { st.ScanColumn(0, 0, make([]Value, 1)) })
	if !strings.Contains(cse.Err.Error(), "magic") {
		t.Fatalf("header corruption error %q does not mention magic", cse.Err)
	}
}

// TestFsck covers the offline verifier: a live spill directory is clean; a
// flipped byte, an orphaned temp file, and a truncated heap file each
// surface as issues; unrelated files are ignored.
func TestFsck(t *testing.T) {
	const segSize = 32
	st, tab, path := spilledTable(t, segSize, 3)
	dir := filepath.Dir(path)

	rep, err := FsckDir(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Files != 1 || rep.Segments != 3 {
		t.Fatalf("clean dir: %+v", rep)
	}

	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "crashed.seg.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[segHeaderLen+3] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err = FsckDir(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 2 {
		t.Fatalf("issues = %v, want orphaned temp + checksum", rep.Issues)
	}
	var sawTmp, sawCRC bool
	for _, is := range rep.Issues {
		s := is.String()
		sawTmp = sawTmp || strings.Contains(s, "orphaned temp")
		sawCRC = sawCRC || strings.Contains(s, "checksum")
	}
	if !sawTmp || !sawCRC {
		t.Fatalf("issues = %v, want orphaned-temp and checksum entries", rep.Issues)
	}

	// Truncation mid-blob: the header promises more bytes than the file has.
	if err := os.Truncate(path, int64(segHeaderLen+4)); err != nil {
		t.Fatal(err)
	}
	rep, err = FsckDir(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, is := range rep.Issues {
		if strings.Contains(is.String(), "torn write") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("truncated file not flagged as torn: %v", rep.Issues)
	}
	_ = st // keep the table (and its live pager) alive through the walk
	_ = tab
}

// TestSweepOrphans: the sweep removes stray heap and temp files but never a
// live pager's file or anything that is not a segment artifact.
func TestSweepOrphans(t *testing.T) {
	st, _, path := spilledTable(t, 32, 1)
	dir := filepath.Dir(path)
	for _, name := range []string{"dead.seg", "dead.seg.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := SweepOrphans(fault.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the two dead files", removed)
	}
	for _, want := range []string{path, filepath.Join(dir, "keep.txt")} {
		if _, err := os.Stat(want); err != nil {
			t.Fatalf("sweep removed %s: %v", want, err)
		}
	}
	for _, gone := range []string{"dead.seg", "dead.seg.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the sweep", gone)
		}
	}
	// After Close the table's own heap file is fair game for a later sweep —
	// Close removes it itself, so the directory ends empty of segments.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Close left the heap file behind")
	}
}

// TestPagerShortRead: an injected short read surfaces as a typed corruption
// error, not as garbage rows.
func TestPagerShortRead(t *testing.T) {
	const segSize = 32
	dir := t.TempDir()
	tab := randomWideTable(t, 2*segSize, 5)
	inj := fault.NewInjector(fault.OS, 1, fault.Rule{
		Op: fault.OpRead, Kind: fault.KindShort, Every: 1,
	})
	st, err := NewSegmentedTable("sr", tab.Schema(), SegmentOptions{
		SegmentSize: segSize,
		SpillDir:    dir,
		CacheBytes:  1,
		FS:          inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	row := make([]Value, tab.Schema().Width())
	for i := 0; i < tab.NumRows(); i++ {
		tab.CopyRow(row, i)
		if err := st.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if inj.FiredTotal() != 0 {
		t.Fatalf("append path fired read faults: %s", inj.FiredString())
	}
	cse := readPanic(t, func() { st.ScanColumn(0, 0, make([]Value, 1)) })
	if !fault.IsDiskFault(cse.Err) {
		t.Fatalf("short read surfaced as %v, want a disk fault", cse.Err)
	}
	if inj.FiredTotal() == 0 {
		t.Fatal("injector never fired")
	}
}
