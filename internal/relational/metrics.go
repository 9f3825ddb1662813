package relational

import "repro/internal/obs"

// Storage-layer telemetry, registered once on the process-wide obs registry:
// per-process totals of the out-of-core tier's LRU segment cache, plus the
// corruption counter. Only the pager path records cache traffic — an
// in-memory SegmentedTable has no cache to hit or miss, so the non-spilled
// acquire fast path stays untouched (the SegParScan parity bench proves no
// tax).
//
// hamletd's /metrics and /stats both read these counters, so the live answer
// to "is the segment cache thrashing" is one scrape away instead of a bench
// rerun.
var (
	// SegCacheHits counts acquires satisfied by a resident sealed segment.
	SegCacheHits = obs.Default.NewCounter("hamlet_segcache_hits_total",
		"segment-cache acquires satisfied without a heap-file read")
	// SegCacheMisses counts faults — acquires that had to pread the segment
	// back from the heap file.
	SegCacheMisses = obs.Default.NewCounter("hamlet_segcache_misses_total",
		"segment-cache acquires that faulted the segment in from disk")
	// SegCacheEvictions counts LRU evictions of resident segments.
	SegCacheEvictions = obs.Default.NewCounter("hamlet_segcache_evictions_total",
		"sealed segments evicted from the resident set")
	// SegCacheFaultedBytes accumulates the resident bytes of faulted-in
	// segments — the cache's disk-traffic proxy.
	SegCacheFaultedBytes = obs.Default.NewCounter("hamlet_segcache_faulted_bytes_total",
		"bytes paged back in by segment faults")
	// StorageCorruptionDetected counts segment reads that failed the
	// checksum/decode or the pread itself — every one of these surfaced as a
	// CorruptSegmentError, never as silent wrong bytes.
	StorageCorruptionDetected = obs.Default.NewCounter("hamlet_storage_corruption_detected_total",
		"heap-file segment reads rejected as corrupt (checksum, decode, or I/O failure)")
)
