package relational

import "repro/internal/obs"

// Storage-layer telemetry, registered once on the process-wide obs registry.
// Two families:
//
//   - segment cache: per-process totals of the out-of-core tier's LRU cache.
//     Only the pager path records here — an in-memory SegmentedTable has no
//     cache to hit or miss, so the non-spilled acquire fast path stays
//     untouched (the SegParScan parity bench proves no tax).
//   - zone maps: segments skipped vs scanned by zone-map-pruned equality
//     scans. Recorded in two batched adds per SelectEq, not per segment.
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
	// ZoneSegmentsSkipped counts segments a zone map proved free of the
	// probed value (no data touched, no fault taken).
	ZoneSegmentsSkipped = obs.Default.NewCounter(`hamlet_zonemap_segments_total{outcome="skipped"}`,
		"segments pruned by zone maps in equality scans")
	// ZoneSegmentsScanned counts segments that survived pruning and were
	// actually scanned.
	ZoneSegmentsScanned = obs.Default.NewCounter(`hamlet_zonemap_segments_total{outcome="scanned"}`,
		"segments scanned after zone-map pruning in equality scans")
	// StorageCorruptionDetected counts segment reads that failed the
	// checksum/decode or the pread itself — every one of these surfaced as a
	// CorruptSegmentError, never as silent wrong bytes.
	StorageCorruptionDetected = obs.Default.NewCounter("hamlet_storage_corruption_detected_total",
		"heap-file segment reads rejected as corrupt (checksum, decode, or I/O failure)")
)
