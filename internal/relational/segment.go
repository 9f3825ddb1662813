package relational

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// DefaultSegmentSize is the rows-per-segment default. 32768 rows keeps a
// uint8 column's segment at 32 KiB (one L1 data cache) and a uint16 column
// at 64 KiB, so a per-segment scan task works cache-resident while the
// per-segment overheads (pager header, task dispatch) amortize over tens of
// thousands of rows. See ARCHITECTURE.md for the
// measurement behind the choice.
const DefaultSegmentSize = 32768

// SegmentOptions configures a SegmentedTable.
type SegmentOptions struct {
	// SegmentSize is the rows per sealed segment (default DefaultSegmentSize).
	SegmentSize int
	// SpillDir enables the out-of-core tier when non-empty: every sealed
	// segment is written to a heap file in this directory and segments are
	// evicted from memory (LRU, never while pinned by a scan) whenever the
	// resident set exceeds CacheBytes.
	SpillDir string
	// CacheBytes bounds the resident sealed-segment bytes when spilling.
	// <= 0 means segments are written to disk but never evicted.
	CacheBytes int64
	// FS is the filesystem the out-of-core tier writes through. Nil means
	// the real filesystem (fault.OS); tests and the chaos CLI flags pass a
	// fault.Injector to script heap-file failures.
	FS fault.FS
}

// segment is one immutable columnar chunk of a SegmentedTable: one
// width-narrowed colData vector per column, capped at the table's segment
// size. Sealed segments are never written again, which is what makes
// eviction and concurrent reads safe without per-cell locks.
type segment struct {
	n    int
	cols []colData
}

// footprint returns the segment's resident byte size (column payloads).
func (s *segment) footprint() int64 {
	var b int64
	for j := range s.cols {
		b += int64(colByteLen(&s.cols[j], s.n))
	}
	return b
}

// segEntry is the always-resident bookkeeping of one sealed segment: its
// heap-file location and the cache state. The data pointer is nil while the
// segment is evicted; pins counts in-flight readers so the evictor never
// drops a segment a scan is walking (a reader that loses the benign race
// with eviction simply re-faults — segments are immutable, so a stale
// pointer is still correct, just no longer counted as resident).
type segEntry struct {
	data    atomic.Pointer[segment]
	bytes   int64
	off     int64 // heap-file offset; -1 when never spilled
	blobLen int
	pins    atomic.Int32
	lastUse atomic.Int64
}

// SegmentedTable is the columnar physical relation, next to the row-major
// *Table: struct-of-arrays storage, one width-narrowed vector per column,
// partitioned into fixed-size immutable segments. It serves the same
// Relation surface with bit-identical cell values. A table that fits in one
// segment is a single contiguous slab per column; larger tables add two
// capabilities:
//
//   - segment-per-morsel parallelism: SegmentSize exposes the partition so
//     ml-side fan-outs align scan tasks to segment boundaries;
//   - an out-of-core tier: with SegmentOptions.SpillDir set, sealed segments
//     live in a page-aligned heap file and an LRU-pinned cache keeps at most
//     CacheBytes of them resident, so fact tables larger than RAM can train
//     and batch-score (slower, but bit-identically).
//
// Construct empty with NewSegmentedTable and fill with AppendRow(s) — rows
// seal into segments as they fill — or evaluate any relation into one with
// MaterializeSegmented. Writes are single-goroutine; reads are safe for any
// number of concurrent readers once construction is done (and, with a pager,
// reads are also safe concurrently with eviction at any time).
type SegmentedTable struct {
	Name    string
	schema  *Schema
	segSize int
	// segShift/segMask replace the per-row divmod with shift/mask when
	// segSize is a power of two (the default and every recommended size);
	// segShift is 0 for other sizes and locate falls back to division.
	segShift uint
	segMask  int
	n        int

	entries []*segEntry
	tail    *segment // open segment being filled; never spilled
	// colLo/colHi are running whole-table [min, max] bounds per column,
	// maintained as rows append so ColumnRange never rescans the open tail.
	colLo, colHi []Value

	pager      *Pager
	cacheBytes int64
	mu         sync.Mutex // guards resident accounting + fault/evict decisions
	resident   int64      // bytes of sealed segments currently resident
	tick       atomic.Int64
}

// NewSegmentedTable creates an empty segmented table. An error is returned
// only when the spill heap file cannot be created.
func NewSegmentedTable(name string, schema *Schema, opts SegmentOptions) (*SegmentedTable, error) {
	return newSegmentedTable(name, schema, opts, -1)
}

// newSegmentedTable is NewSegmentedTable for a table that will hold rows
// rows (negative when unknown): the open tail is sized to min(segment, rows)
// instead of a full segment.
func newSegmentedTable(name string, schema *Schema, opts SegmentOptions, rows int) (*SegmentedTable, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	tailCap := opts.SegmentSize
	if rows >= 0 && rows < tailCap {
		tailCap = rows
	}
	t := &SegmentedTable{
		Name:       name,
		schema:     schema,
		segSize:    opts.SegmentSize,
		cacheBytes: opts.CacheBytes,
	}
	if sz := opts.SegmentSize; sz&(sz-1) == 0 {
		t.segShift = uint(bits.TrailingZeros(uint(sz)))
		t.segMask = sz - 1
	}
	w := schema.Width()
	t.colLo, t.colHi = make([]Value, w), make([]Value, w)
	for j := range t.colLo {
		t.colLo[j] = Value(schema.Cols[j].Domain.Size)
		t.colHi[j] = -1
	}
	if opts.SpillDir != "" {
		fsys := opts.FS
		if fsys == nil {
			fsys = fault.OS
		}
		p, err := NewPagerFS(fsys, opts.SpillDir, name)
		if err != nil {
			return nil, err
		}
		t.pager = p
	}
	t.tail = t.newSegment(tailCap)
	return t, nil
}

// newSegment allocates an empty open segment with capacity for capRows rows.
func (t *SegmentedTable) newSegment(capRows int) *segment {
	s := &segment{cols: make([]colData, t.schema.Width())}
	for j := range s.cols {
		s.cols[j] = newColData(t.schema.Cols[j].Domain.Size, capRows)
	}
	return s
}

// Close releases the out-of-core tier (closing and removing the heap file).
// In-memory tables need no Close; calling it anyway is a no-op. The table
// must not be read after Close when segments have been evicted.
func (t *SegmentedTable) Close() error {
	if t.pager == nil {
		return nil
	}
	return t.pager.Close()
}

// Schema implements Relation.
func (t *SegmentedTable) Schema() *Schema { return t.schema }

// NumRows implements Relation.
func (t *SegmentedTable) NumRows() int { return t.n }

// SegmentSize returns the rows-per-segment partition size. The ml layer uses
// it to align morsel fan-outs to segment boundaries.
func (t *SegmentedTable) SegmentSize() int { return t.segSize }

// NumSegments returns the segment count, including the open tail when it
// holds rows.
func (t *SegmentedTable) NumSegments() int {
	ns := len(t.entries)
	if t.tail.n > 0 {
		ns++
	}
	return ns
}

// SegmentRows returns the half-open global row range [lo, hi) of segment s.
func (t *SegmentedTable) SegmentRows(s int) (lo, hi int) {
	lo = s * t.segSize
	hi = lo + t.segSize
	if hi > t.n {
		hi = t.n
	}
	return lo, hi
}

// ColumnRange implements ColumnRanger: the observed [min, max] of a column.
// The bounds are maintained as rows append (O(1) here — split searches call
// this per node per feature), covering sealed segments and the open tail
// alike. ok is false for an empty table. A constant column (min == max) lets
// consumers skip the column entirely — the decision-tree split search does.
func (t *SegmentedTable) ColumnRange(col int) (min, max Value, ok bool) {
	if t.n == 0 {
		return 0, 0, false
	}
	return t.colLo[col], t.colHi[col], true
}

// Spilled reports whether the out-of-core tier is active.
func (t *SegmentedTable) Spilled() bool { return t.pager != nil }

// ResidentBytes returns the bytes of sealed segments currently in memory
// (always the full table when not spilling).
func (t *SegmentedTable) ResidentBytes() int64 {
	if t.pager == nil {
		var b int64
		for _, e := range t.entries {
			b += e.bytes
		}
		return b
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resident
}

// seal freezes the full tail: the segment is (optionally) written to the
// heap file, and a fresh tail with capacity for nextCap rows is opened.
func (t *SegmentedTable) seal(nextCap int) error {
	s := t.tail
	e := &segEntry{bytes: s.footprint(), off: -1}
	e.data.Store(s)
	e.lastUse.Store(t.tick.Add(1))
	if t.pager != nil {
		blob := encodeSegment(s)
		off, err := t.pager.appendBlob(blob)
		if err != nil {
			return err
		}
		e.off, e.blobLen = off, len(blob)
		t.mu.Lock()
		t.resident += e.bytes
		t.entries = append(t.entries, e)
		t.evictLocked()
		t.mu.Unlock()
	} else {
		t.entries = append(t.entries, e)
	}
	t.tail = t.newSegment(nextCap)
	return nil
}

// evictLocked drops least-recently-used unpinned segments until the resident
// set fits the cache budget. Called with t.mu held. Pinned segments are
// skipped, so a cache smaller than the working set degrades to thrash, never
// to incorrectness.
func (t *SegmentedTable) evictLocked() {
	if t.cacheBytes <= 0 {
		return
	}
	for t.resident > t.cacheBytes {
		var victim *segEntry
		var oldest int64
		for _, e := range t.entries {
			if e.data.Load() == nil || e.pins.Load() != 0 {
				continue
			}
			if u := e.lastUse.Load(); victim == nil || u < oldest {
				victim, oldest = e, u
			}
		}
		if victim == nil {
			return // everything resident is pinned; run over budget
		}
		victim.data.Store(nil)
		t.resident -= victim.bytes
		SegCacheEvictions.Inc()
	}
}

// fault pages entry e back in and returns it pinned. The heap-file read runs
// under the table mutex, serializing concurrent faults — the simple regime
// for a cache whose point is correctness under memory pressure, not disk
// throughput. A read or decode failure (I/O error, torn blob, checksum
// mismatch) panics with a typed *CorruptSegmentError — the Relation read
// methods have no error return — which the core layer recovers at its
// training and eval entry points; silent wrong bytes are never served.
func (t *SegmentedTable) fault(si int, e *segEntry) *segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := e.data.Load(); s != nil { // raced with another fault
		e.pins.Add(1)
		e.lastUse.Store(t.tick.Add(1))
		SegCacheHits.Inc()
		return s
	}
	blob, err := t.pager.readBlob(e.off, e.blobLen)
	if err != nil {
		StorageCorruptionDetected.Inc()
		panic(&CorruptSegmentError{Table: t.Name, Segment: si, Offset: e.off, Err: err})
	}
	s, err := decodeSegment(blob, t.segSize, t.schema.Width())
	if err != nil {
		StorageCorruptionDetected.Inc()
		panic(&CorruptSegmentError{Table: t.Name, Segment: si, Offset: e.off, Err: err})
	}
	e.pins.Add(1)
	e.lastUse.Store(t.tick.Add(1))
	e.data.Store(s)
	t.resident += e.bytes
	SegCacheMisses.Inc()
	SegCacheFaultedBytes.Add(uint64(e.bytes))
	t.evictLocked()
	return s
}

// acquire pins segment si for reading and returns its data. Callers must
// release(si) when done. The tail needs no pin (it is never evicted).
func (t *SegmentedTable) acquire(si int) *segment {
	if si >= len(t.entries) {
		return t.tail
	}
	e := t.entries[si]
	if t.pager == nil {
		return e.data.Load()
	}
	e.pins.Add(1)
	if s := e.data.Load(); s != nil {
		e.lastUse.Store(t.tick.Add(1))
		// Hint by segment index so concurrent per-segment scan tasks land on
		// different counter stripes instead of one contended cache line.
		SegCacheHits.IncHint(uint(si))
		return s
	}
	e.pins.Add(-1)
	return t.fault(si, e)
}

// locate maps a row to its (segment, offset) pair — shift/mask when the
// segment size is a power of two, divmod otherwise. The divide is the hot
// instruction of shuffled gathers, so the fast path matters.
func (t *SegmentedTable) locate(row int) (si, off int) {
	if t.segShift > 0 {
		return row >> t.segShift, row & t.segMask
	}
	return row / t.segSize, row % t.segSize
}

// release unpins a segment acquired with acquire.
func (t *SegmentedTable) release(si int) {
	if t.pager == nil || si >= len(t.entries) {
		return
	}
	t.entries[si].pins.Add(-1)
}

// CopyRow implements Relation: one pin, one strided read per column.
func (t *SegmentedTable) CopyRow(dst []Value, row int) []Value {
	si, off := t.locate(row)
	s := t.acquire(si)
	dst = dst[:len(s.cols)]
	for j := range s.cols {
		dst[j] = s.cols[j].at(off)
	}
	t.release(si)
	return dst
}

// ScanColumn implements Relation, routing the request segment by
// segment: each covered segment is pinned once, its stretch of the column
// widened sequentially out of narrow storage, then released.
func (t *SegmentedTable) ScanColumn(col int, from int, dst []Value) int {
	m := scanLen(t.n, from, len(dst))
	written := 0
	for written < m {
		row := from + written
		si, off := t.locate(row)
		s := t.acquire(si)
		take := s.n - off
		if take > m-written {
			take = m - written
		}
		s.cols[col].scan(off, dst[written:written+take])
		t.release(si)
		written += take
	}
	return m
}

// gatherScratch is the grouped kernel's working memory, pooled because
// gathers run concurrently inside ml.ParallelFor spans and must not
// allocate once warm.
type gatherScratch struct {
	seg   []int // per request position: segment index
	off   []int // per request position: offset inside its segment
	start []int // bucket bounds per segment (counting sort), len segments+1
	boff  []int // offsets in bucketed (segment-major) order
	bdst  []int // request positions in bucketed order
}

var gatherPool = sync.Pool{New: func() any { return new(gatherScratch) }}

// grow returns s resized to n, reallocating only when capacity falls short.
func grow(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// GatherColumns implements Relation with the one gather kernel of the
// segmented engine. The rows are bucketed by segment with a counting sort
// (or taken in their own order when they are already segment-ordered, as a
// tree node over an unremapped table hands them), each touched segment is
// acquired once, every requested column is read out of it, and the values
// are scattered back to request order. A shuffled request over S segments
// therefore pins S segments, not one per segment transition, which is what
// keeps a split view's permuted rows from thrashing a small cache.
func (t *SegmentedTable) GatherColumns(dst []Value, stride int, cols []int, rows []int) {
	n := len(rows)
	if n == 0 || len(cols) == 0 {
		return
	}
	if len(t.entries) == 0 {
		// Whole table still in the open tail (never evictable): the
		// width-specialized single-slab gathers, no pins.
		for i, c := range cols {
			t.tail.cols[c].gather(dst[i*stride:i*stride+n], rows)
		}
		return
	}
	sc := gatherPool.Get().(*gatherScratch)
	defer gatherPool.Put(sc)
	nseg := t.NumSegments()
	sc.seg, sc.off = grow(sc.seg, n), grow(sc.off, n)
	sc.start = grow(sc.start, nseg+1)
	clear(sc.start)
	ordered := true
	prev := 0
	for k, r := range rows {
		si, off := t.locate(r)
		sc.seg[k], sc.off[k] = si, off
		sc.start[si+1]++
		if si < prev {
			ordered = false
		}
		prev = si
	}
	if ordered {
		// Segment-ordered already: each run is one segment's bucket, in
		// request order, so the offsets gather straight into dst.
		for lo := 0; lo < n; {
			si := sc.seg[lo]
			hi := lo + sc.start[si+1]
			s := t.acquire(si)
			for i, c := range cols {
				s.cols[c].gather(dst[i*stride+lo:i*stride+hi], sc.off[lo:hi])
			}
			t.release(si)
			lo = hi
		}
		return
	}
	for si := 0; si < nseg; si++ {
		sc.start[si+1] += sc.start[si]
	}
	sc.boff, sc.bdst = grow(sc.boff, n), grow(sc.bdst, n)
	// Stable scatter into buckets; start[si] walks to the bucket's end, so
	// afterwards bucket si spans [start[si-1], start[si]) with start[-1] = 0.
	for k, si := range sc.seg {
		p := sc.start[si]
		sc.boff[p], sc.bdst[p] = sc.off[k], k
		sc.start[si] = p + 1
	}
	lo := 0
	for si := 0; si < nseg; si++ {
		hi := sc.start[si]
		if hi == lo {
			continue
		}
		s := t.acquire(si)
		for i, c := range cols {
			s.cols[c].gatherTo(dst[i*stride:], sc.boff[lo:hi], sc.bdst[lo:hi])
		}
		t.release(si)
		lo = hi
	}
}

// Reserve grows the open tail's capacity toward a full segment. Capacity
// beyond the current segment is allocated as segments open, so n larger than
// the tail's remaining space is clamped.
func (t *SegmentedTable) Reserve(n int) {
	room := t.segSize - t.tail.n
	if n > room {
		n = room
	}
	if n > 0 {
		for j := range t.tail.cols {
			t.tail.cols[j].reserve(n)
		}
	}
}

// AppendRow appends one row after validating width and domain membership,
// sealing the tail into an immutable segment when it fills.
func (t *SegmentedTable) AppendRow(row []Value) error {
	if len(row) != t.schema.Width() {
		return fmt.Errorf("relational: segmented table %q expects %d columns, row has %d", t.Name, t.schema.Width(), len(row))
	}
	for j, v := range row {
		if !t.schema.Cols[j].Domain.Contains(v) {
			return fmt.Errorf("relational: segmented table %q column %q: value %d outside domain of size %d",
				t.Name, t.schema.Cols[j].Name, v, t.schema.Cols[j].Domain.Size)
		}
	}
	for j, v := range row {
		t.tail.cols[j].append(v)
		if v < t.colLo[j] {
			t.colLo[j] = v
		}
		if v > t.colHi[j] {
			t.colHi[j] = v
		}
	}
	t.tail.n++
	t.n++
	if t.tail.n == t.segSize {
		return t.seal(t.segSize)
	}
	return nil
}

// MustAppendRow is AppendRow for generator code where rows are correct by
// construction.
func (t *SegmentedTable) MustAppendRow(row []Value) {
	if err := t.AppendRow(row); err != nil {
		panic(err)
	}
}

// AppendRows bulk-appends a row-major block, sealing segments as they fill —
// the ingestion fast path shared with the other engines (BulkTable): one
// strided validation pass per column, then column-strided appends chunked by
// the tail's remaining space. On a validation error nothing is appended;
// a spill-write error leaves earlier chunks appended.
func (t *SegmentedTable) AppendRows(block []Value) error {
	nRows, err := validateBlock(t.schema, t.Name, block)
	if err != nil {
		return err
	}
	w := t.schema.Width()
	for done := 0; done < nRows; {
		take := t.segSize - t.tail.n
		if take > nRows-done {
			take = nRows - done
		}
		for j := 0; j < w; j++ {
			c := &t.tail.cols[j]
			lo, hi := t.colLo[j], t.colHi[j]
			for k, at := 0, done*w+j; k < take; k, at = k+1, at+w {
				v := block[at]
				c.append(v)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			t.colLo[j], t.colHi[j] = lo, hi
		}
		t.tail.n += take
		t.n += take
		done += take
		if t.tail.n == t.segSize {
			if err := t.seal(t.segSize); err != nil {
				return err
			}
		}
	}
	return nil
}

// MustAppendRows is AppendRows for generator code.
func (t *SegmentedTable) MustAppendRows(block []Value) {
	if err := t.AppendRows(block); err != nil {
		panic(err)
	}
}

// MaterializeSegmented evaluates any relation into a SegmentedTable — the
// columnar sibling of Materialize, and the path every core env uses to turn
// the factorized join into sealed, skippable, spillable segments. Like
// Materialize the result is an independent snapshot. The source is drained
// one segment chunk at a time (each chunk scans every column sequentially,
// then seals), so ingestion's resident working set is one open segment
// regardless of table size. Each open tail is sized to the rows it will
// hold, so a table smaller than one segment is exactly one slab per column.
//
// A source cell outside its column's domain indicates a corrupted relation
// and is returned as an error; on every error path the partly-written heap
// file is closed and removed.
func MaterializeSegmented(r Relation, name string, opts SegmentOptions) (*SegmentedTable, error) {
	out, err := newSegmentedTable(name, r.Schema(), opts, r.NumRows())
	if err != nil {
		return nil, err
	}
	// A panic while draining the source (corruption faulted in from a
	// spilled source relation) must not strand the heap file.
	defer func() {
		if r := recover(); r != nil {
			out.Close()
			panic(r)
		}
	}()
	if err := out.drain(r); err != nil {
		out.Close() // remove the partly-written heap file
		return nil, err
	}
	return out, nil
}

// drain appends every row of r to the empty table t, column by column per
// segment chunk; each new tail is sized to the rows still to come.
func (t *SegmentedTable) drain(r Relation) error {
	schema := r.Schema()
	w := schema.Width()
	n := r.NumRows()
	if w == 0 || n == 0 {
		return nil
	}
	buf := make([]Value, min(n, t.segSize))
	for base := 0; base < n; base += t.segSize {
		m := min(t.segSize, n-base)
		for j := 0; j < w; j++ {
			size := Value(schema.Cols[j].Domain.Size)
			c := &t.tail.cols[j]
			lo, hi := t.colLo[j], t.colHi[j]
			for from := base; from < base+m; {
				got := r.ScanColumn(j, from, buf[:base+m-from])
				for k, v := range buf[:got] {
					if v < 0 || v >= size {
						return fmt.Errorf("relational: materialize segmented %q column %q row %d: value %d outside domain of size %d",
							t.Name, schema.Cols[j].Name, from+k, v, size)
					}
					c.append(v)
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				from += got
			}
			t.colLo[j], t.colHi[j] = lo, hi
		}
		t.tail.n = m
		t.n += m
		if m == t.segSize {
			if err := t.seal(min(t.segSize, n-t.n)); err != nil {
				return err
			}
		}
	}
	return nil
}
