package ml

import (
	"time"

	"repro/internal/relational"
)

// columnMorsel is the chunk size of one ScanFeature step on the learners'
// column-materialization path: large enough to amortize the per-morsel
// interface call into the storage engine, small enough that the value buffer
// (8 KiB) stays cache-resident. It matches the morsel the NB batch counter
// uses.
const columnMorsel = 2048

// columnSpans shards n examples across the pool: every (feature, span) pair
// becomes one independent task, so narrow feature sets still saturate the
// workers. Spans are whole-morsel multiples of 1/spans of the range.
func columnSpans(n, d int) int {
	spans := Parallelism(d * ((n + columnMorsel - 1) / columnMorsel))
	if spans < 1 {
		spans = 1
	}
	return spans
}

// segmentSized is implemented by storage engines partitioned into fixed-size
// segments (relational.SegmentedTable); ScanSpans uses it to align scan
// tasks to the partition.
type segmentSized interface{ SegmentSize() int }

// ScanSpans returns the span boundaries the (feature, span) fan-outs cut the
// example range into: cut points c with c[0] = 0 and c[len(c)-1] = n, span s
// covering examples [c[s], c[s+1]). When the dataset reads a segmented
// relation directly, cuts snap to segment boundaries so every scan
// task works one segment — one cache pin per task, no mid-task faults, and
// the segment-per-task parallelism the storage layer is partitioned for
// (segments are grouped when there are more of them than useful spans, and
// subdivided when the table is smaller than the worker pool wants).
// Datasets over a SelectView (split views, Subsets) keep the arithmetic
// spans: their scans are gathers, not sequential segment walks. Every consumer writes disjoint
// cells or reduces in span order, so the choice of boundaries affects
// performance only — results stay bit-identical.
func ScanSpans(d *Dataset) []int {
	n := d.NumExamples()
	target := columnSpans(n, d.NumFeatures())
	if ss, ok := d.rel.(segmentSized); ok {
		return segmentCuts(n, ss.SegmentSize(), target)
	}
	cuts := make([]int, target+1)
	for s := range cuts {
		cuts[s] = n * s / target
	}
	return cuts
}

// segmentCuts builds segment-aligned cut points covering [0, n): whole
// segments grouped into target spans when segments abound, per-segment
// arithmetic subdivision when the worker pool wants more spans than the
// table has segments.
func segmentCuts(n, seg, target int) []int {
	numSegs := (n + seg - 1) / seg
	if numSegs == 0 {
		return []int{0, 0}
	}
	if numSegs >= target {
		cuts := make([]int, target+1)
		for s := 0; s < target; s++ {
			cuts[s] = seg * (numSegs * s / target)
		}
		cuts[target] = n
		return cuts
	}
	parts := (target + numSegs - 1) / numSegs
	cuts := make([]int, 0, numSegs*parts+1)
	cuts = append(cuts, 0)
	for g := 0; g < numSegs; g++ {
		lo := g * seg
		hi := min(lo+seg, n)
		for p := 1; p <= parts; p++ {
			cuts = append(cuts, lo+(hi-lo)*p/parts)
		}
	}
	return cuts
}

// forEachFeatureSpan is the shared fan-out skeleton of the one-pass
// materializers: (feature, span) tasks spread across ml.ParallelFor, each
// consuming its span of one feature in morsel-sized ScanFeature batches and
// handing every cell to write(example, feature, value). Spans come from
// ScanSpans, so over a segmented relation each task stays within one
// segment. Callers write disjoint destination cells per (example, feature),
// so the fan-out is deterministic regardless of scheduling.
func forEachFeatureSpan(d *Dataset, write func(i, j int, v relational.Value)) {
	k := d.NumFeatures()
	cuts := ScanSpans(d)
	spans := len(cuts) - 1
	ParallelFor(k*spans, func(task int) {
		j, s := task/spans, task%spans
		lo, hi := cuts[s], cuts[s+1]
		if lo == hi {
			return
		}
		buf := make([]relational.Value, min(columnMorsel, hi-lo))
		for from := lo; from < hi; {
			m := d.ScanFeature(buf[:min(len(buf), hi-from)], j, from)
			for i := 0; i < m; i++ {
				write(from+i, j, buf[i])
			}
			from += m
		}
	})
}

// ScanRowMajor materializes the dataset into one dense row-major block
// (example i's row is block[i*k : (i+1)*k]) plus the label vector,
// consuming each feature column-at-a-time through morsel-sized ScanFeature
// batches — the one-pass cache the learners that must read two rows at a
// time (SMO's kernel loops, the retained support set) amortize over their
// epochs. It reads k batched column scans pushed down into the storage
// engine instead of n×k single-cell view accesses, and it needs no transient
// column copy: every value scatters straight into its row slot.
//
// (feature, span) tasks fan out across ml.ParallelFor (forEachFeatureSpan);
// every task writes a disjoint set of block cells, so the result is
// deterministic regardless of scheduling and bit-identical to a sequential
// pass.
func ScanRowMajor(d *Dataset) (block []relational.Value, labels []int8) {
	t0 := time.Now()
	defer scanSpan.ObserveSince(t0)
	n := d.NumExamples()
	k := d.NumFeatures()
	block = make([]relational.Value, n*k)
	forEachFeatureSpan(d, func(i, j int, v relational.Value) {
		block[i*k+j] = v
	})
	labels = make([]int8, n)
	d.ScanLabels(labels, 0)
	return block, labels
}

// ScanActiveIndices materializes the one-hot active-index matrix of the
// dataset — idx[i*d+j] = enc.Index(j, x_ij) — plus the label vector,
// consuming each feature column-at-a-time through ScanFeature. The matrix is
// what the embedding-style learners (logistic regression, the MLP's sparse
// input layer) index their weight tables with; materializing it once per Fit
// replaces a per-example row gather + Encoder.ActiveIndices call every
// epoch.
//
// Like ScanRowMajor it fans (feature, span) tasks across ml.ParallelFor
// with disjoint writes, so the result is deterministic and bit-identical to
// a sequential pass.
func ScanActiveIndices(d *Dataset, enc *Encoder) (idx []int32, labels []int8) {
	t0 := time.Now()
	defer scanSpan.ObserveSince(t0)
	n := d.NumExamples()
	k := d.NumFeatures()
	idx = make([]int32, n*k)
	forEachFeatureSpan(d, func(i, j int, v relational.Value) {
		idx[i*k+j] = int32(enc.Offsets[j]) + int32(v)
	})
	labels = make([]int8, n)
	d.ScanLabels(labels, 0)
	return idx, labels
}
