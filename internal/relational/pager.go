package relational

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/fault"
)

// segFileSuffix names segment heap files; fsck and orphan cleanup match it.
const segFileSuffix = ".seg"

// livePagers tracks heap-file paths with an open Pager in this process, so
// SweepOrphans never removes a file another live table is still reading.
var livePagers sync.Map // path → struct{}

// SweepOrphans removes heap files (*.seg) and stray temp files (*.seg.tmp)
// in dir that no live Pager in this process owns — the leftovers of a
// crashed or error-aborted earlier run. It assumes single-process ownership
// of a spill directory, which is how every caller uses one. It returns the
// removed paths.
func SweepOrphans(fsys fault.FS, dir string) ([]string, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("relational: sweep orphans: %w", err)
	}
	var removed []string
	var firstErr error
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if !strings.HasSuffix(name, segFileSuffix) && !strings.HasSuffix(name, segFileSuffix+".tmp") {
			continue
		}
		path := filepath.Join(dir, name)
		if _, live := livePagers.Load(path); live {
			continue
		}
		if err := fsys.Remove(path); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed = append(removed, path)
	}
	return removed, firstErr
}

// pageSize is the allocation unit of a segment heap file. Segments are
// serialized as one contiguous blob starting on a page boundary, so a
// segment read is a single aligned pread and the file layout stays simple
// enough to inspect with a hex dump: page 0 of every blob starts with the
// segMagic header.
const pageSize = 4096

// segMagic marks the first bytes of every on-disk segment blob.
var segMagic = [4]byte{'S', 'E', 'G', '1'}

// segFormatVersion is the current on-disk blob format. Version 2 added the
// self-describing header (payload length) and the CRC32C checksum; version 1
// blobs (pre-checksum) are rejected rather than trusted.
const segFormatVersion = 2

// segHeaderLen is the fixed v2 blob header:
//
//	magic(4) | u32 version | u32 payloadLen | u32 crc32c(payload)
const segHeaderLen = 16

// castagnoli is the CRC32C polynomial table — hardware-accelerated on
// amd64/arm64, and the checksum used by iSCSI, ext4, and most storage
// engines for the same reason.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptSegmentError reports a sealed segment that could not be read back
// intact from its heap file: a failed pread, a torn or truncated blob, a
// checksum mismatch, or a malformed payload. It identifies the table, the
// segment index, and the heap-file byte offset so the damage can be located
// with `hamlet -fsck` or a hex dump. It is delivered by panic from the
// Relation read methods (which cannot return errors); the core layer
// recovers it at training/eval entry points and returns it as an error.
type CorruptSegmentError struct {
	Table   string
	Segment int
	Offset  int64
	Err     error
}

func (e *CorruptSegmentError) Error() string {
	return fmt.Sprintf("relational: corrupt segment: table %q segment %d at heap offset %d: %v",
		e.Table, e.Segment, e.Offset, e.Err)
}

func (e *CorruptSegmentError) Unwrap() error { return e.Err }

// Pager owns one append-only heap file holding spilled segments. Appends are
// serialized by a mutex; reads use pread (ReadAt) and are safe concurrently
// with each other and with appends, since a blob is immutable once written
// and readers only ever ask for offsets the pager has already handed out.
// All I/O goes through the fault.FS seam so tests can script failures.
type Pager struct {
	mu   sync.Mutex
	fs   fault.FS
	f    fault.File
	path string
	end  int64 // next page-aligned write offset
}

// NewPagerFS creates (truncating) the heap file <dir>/<name>.seg on fsys
// (fault.OS for the real filesystem).
func NewPagerFS(fsys fault.FS, dir, name string) (*Pager, error) {
	path := filepath.Join(dir, name+segFileSuffix)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("relational: pager: %w", err)
	}
	livePagers.Store(path, struct{}{})
	return &Pager{fs: fsys, f: f, path: path}, nil
}

// Path returns the heap file's path.
func (p *Pager) Path() string { return p.path }

// Close closes and removes the heap file.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return nil
	}
	err := p.f.Close()
	livePagers.Delete(p.path)
	if rmErr := p.fs.Remove(p.path); err == nil {
		err = rmErr
	}
	p.f = nil
	return err
}

// appendBlob writes blob at the next page boundary and returns its offset.
// The write offset only advances on success, so a torn or failed write
// leaves the file logically unchanged — the next append overwrites the
// partial bytes.
func (p *Pager) appendBlob(blob []byte) (int64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.f == nil {
		return 0, fmt.Errorf("relational: pager: closed")
	}
	off := p.end
	if _, err := p.f.WriteAt(blob, off); err != nil {
		return 0, fmt.Errorf("relational: pager write: %w", err)
	}
	pages := (int64(len(blob)) + pageSize - 1) / pageSize
	p.end = off + pages*pageSize
	return off, nil
}

// readBlob preads length bytes at off.
func (p *Pager) readBlob(off int64, length int) ([]byte, error) {
	blob := make([]byte, length)
	if _, err := p.f.ReadAt(blob, off); err != nil {
		return nil, fmt.Errorf("pager read: %w", err)
	}
	return blob, nil
}

// Column width tags in the serialized segment layout.
const (
	widthU8  = 1
	widthU16 = 2
	widthU32 = 4
)

// encodeSegment serializes a sealed segment as a v2 blob:
//
//	magic | u32 version | u32 payloadLen | u32 crc32c | payload
//
// where payload is
//
//	u32 nrows | u32 ncols | ncols × (u8 widthTag | u32 byteLen | raw LE bytes)
//
// Codes are stored at their in-memory width, so a spilled segment costs the
// same bytes on disk as resident (plus the header and page-rounding slack).
// The checksum covers the payload; the header fields are validated
// structurally on decode.
func encodeSegment(s *segment) []byte {
	size := segHeaderLen + 8
	for j := range s.cols {
		size += 5 + colByteLen(&s.cols[j], s.n)
	}
	blob := make([]byte, segHeaderLen, size)
	copy(blob, segMagic[:])
	binary.LittleEndian.PutUint32(blob[4:], segFormatVersion)
	blob = binary.LittleEndian.AppendUint32(blob, uint32(s.n))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(s.cols)))
	for j := range s.cols {
		c := &s.cols[j]
		switch {
		case c.u8 != nil:
			blob = append(blob, widthU8)
			blob = binary.LittleEndian.AppendUint32(blob, uint32(s.n))
			blob = append(blob, c.u8[:s.n]...)
		case c.u16 != nil:
			blob = append(blob, widthU16)
			blob = binary.LittleEndian.AppendUint32(blob, uint32(2*s.n))
			for _, v := range c.u16[:s.n] {
				blob = binary.LittleEndian.AppendUint16(blob, v)
			}
		default:
			blob = append(blob, widthU32)
			blob = binary.LittleEndian.AppendUint32(blob, uint32(4*s.n))
			for _, v := range c.u32[:s.n] {
				blob = binary.LittleEndian.AppendUint32(blob, uint32(v))
			}
		}
	}
	payload := blob[segHeaderLen:]
	binary.LittleEndian.PutUint32(blob[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(blob[12:], crc32.Checksum(payload, castagnoli))
	return blob
}

// colByteLen returns the payload bytes of one column at the segment's width.
func colByteLen(c *colData, n int) int {
	switch {
	case c.u8 != nil:
		return n
	case c.u16 != nil:
		return 2 * n
	default:
		return 4 * n
	}
}

// parseSegmentHeader validates the fixed fields of a v2 blob header (magic,
// version, plausible payload length) and returns the payload length. It does
// not touch the payload — callers use it to size the payload read before
// checkSegmentHeader verifies the checksum.
func parseSegmentHeader(hdr []byte) (plen int, err error) {
	if len(hdr) < segHeaderLen {
		return 0, fmt.Errorf("blob %d bytes, shorter than the %d-byte header", len(hdr), segHeaderLen)
	}
	if [4]byte(hdr[:4]) != segMagic {
		return 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != segFormatVersion {
		return 0, fmt.Errorf("unsupported segment format version %d (want %d)", v, segFormatVersion)
	}
	plen = int(binary.LittleEndian.Uint32(hdr[8:]))
	if plen < 8 {
		return 0, fmt.Errorf("implausible payload length %d", plen)
	}
	return plen, nil
}

// checkSegmentHeader validates a v2 blob header against the bytes that
// follow it and returns the payload. It catches torn writes (payload length
// past the blob), bit rot (CRC mismatch), and format drift (bad magic or
// version) before any payload byte is trusted.
func checkSegmentHeader(blob []byte) ([]byte, error) {
	plen, err := parseSegmentHeader(blob)
	if err != nil {
		return nil, err
	}
	if plen > len(blob)-segHeaderLen {
		return nil, fmt.Errorf("payload length %d does not fit blob of %d bytes (torn write?)", plen, len(blob))
	}
	payload := blob[segHeaderLen : segHeaderLen+plen]
	want := binary.LittleEndian.Uint32(blob[12:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("checksum mismatch: stored %08x, computed %08x", want, got)
	}
	return payload, nil
}

// decodeSegment parses an encodeSegment blob back into a resident segment,
// verifying the header and CRC32C first. Corruption is an error, not a
// panic: a heap file is external state. wantRows/wantCols < 0 skips the
// expectation check (fsck walks files without table metadata).
func decodeSegment(blob []byte, wantRows, wantCols int) (*segment, error) {
	payload, err := checkSegmentHeader(blob)
	if err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(payload))
	ncols := int(binary.LittleEndian.Uint32(payload[4:]))
	if wantRows >= 0 && (n != wantRows || ncols != wantCols) {
		return nil, fmt.Errorf("header %d×%d, expected %d×%d", n, ncols, wantRows, wantCols)
	}
	if n < 0 || ncols < 0 || ncols > len(payload) {
		return nil, fmt.Errorf("implausible header %d×%d", n, ncols)
	}
	s := &segment{n: n, cols: make([]colData, ncols)}
	at := 8
	for j := 0; j < ncols; j++ {
		if at+5 > len(payload) {
			return nil, fmt.Errorf("truncated column %d header", j)
		}
		tag := payload[at]
		length := int(binary.LittleEndian.Uint32(payload[at+1:]))
		at += 5
		if length < 0 || at+length > len(payload) {
			return nil, fmt.Errorf("truncated column %d payload", j)
		}
		col := payload[at : at+length]
		at += length
		switch tag {
		case widthU8:
			if length != n {
				return nil, fmt.Errorf("column %d u8 length %d != %d", j, length, n)
			}
			s.cols[j].u8 = append([]uint8(nil), col...)
		case widthU16:
			if length != 2*n {
				return nil, fmt.Errorf("column %d u16 length %d != %d", j, length, 2*n)
			}
			vs := make([]uint16, n)
			for i := range vs {
				vs[i] = binary.LittleEndian.Uint16(col[2*i:])
			}
			s.cols[j].u16 = vs
		case widthU32:
			if length != 4*n {
				return nil, fmt.Errorf("column %d u32 length %d != %d", j, length, 4*n)
			}
			vs := make([]Value, n)
			for i := range vs {
				vs[i] = Value(binary.LittleEndian.Uint32(col[4*i:]))
			}
			s.cols[j].u32 = vs
		default:
			return nil, fmt.Errorf("column %d has unknown width tag %d", j, tag)
		}
	}
	return s, nil
}
