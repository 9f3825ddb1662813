package ml

import (
	"testing"
)

// TestScanRowMajorMatchesAt pins the ScanRowMajor materialization to the
// scalar accessors on every backing the batch contract supports.
func TestScanRowMajorMatchesAt(t *testing.T) {
	for name, ds := range batchBackings(t) {
		block, labels := ScanRowMajor(ds)
		n, k := ds.NumExamples(), ds.NumFeatures()
		if len(block) != n*k {
			t.Fatalf("%s: block has %d values, want %d", name, len(block), n*k)
		}
		if len(labels) != n {
			t.Fatalf("%s: %d labels, want %d", name, len(labels), n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				if got, want := block[i*k+j], ds.At(i, j); got != want {
					t.Fatalf("%s: block[%d,%d] = %d, At = %d", name, i, j, got, want)
				}
			}
		}
		for i, y := range labels {
			if want := ds.Label(i); y != want {
				t.Fatalf("%s: labels[%d] = %d, Label = %d", name, i, y, want)
			}
		}
	}
}

// TestScanActiveIndicesMatchesEncoder pins the active-index matrix to the
// per-row Encoder.ActiveIndices contract on every backing.
func TestScanActiveIndicesMatchesEncoder(t *testing.T) {
	for name, ds := range batchBackings(t) {
		enc := NewEncoder(ds.Features)
		idx, labels := ScanActiveIndices(ds, enc)
		n, d := ds.NumExamples(), ds.NumFeatures()
		if len(idx) != n*d {
			t.Fatalf("%s: index matrix %d entries, want %d", name, len(idx), n*d)
		}
		if len(labels) != n {
			t.Fatalf("%s: %d labels, want %d", name, len(labels), n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				if got, want := int(idx[i*d+j]), enc.Index(j, ds.At(i, j)); got != want {
					t.Fatalf("%s: idx[%d,%d] = %d, enc.Index = %d", name, i, j, got, want)
				}
			}
			if labels[i] != ds.Label(i) {
				t.Fatalf("%s: labels[%d] = %d, Label = %d", name, i, labels[i], ds.Label(i))
			}
		}
	}
}

// TestColumnHelpersDeterministicAcrossParallelism requires the fan-out
// helpers to produce identical output at any worker count — the writes are
// disjoint, so scheduling must never show through.
func TestColumnHelpersDeterministicAcrossParallelism(t *testing.T) {
	_, jv := viewStar(t, 300, 10, 7)
	cols := ViewColumns(jv, JoinAll, nil)
	ds, err := FromRelation(jv, cols, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(ds.Features)
	old := MaxParallelism
	defer func() { MaxParallelism = old }()

	MaxParallelism = 1
	seqBlock, seqLabels := ScanRowMajor(ds)
	seqIdx, _ := ScanActiveIndices(ds, enc)
	MaxParallelism = 8
	parBlock, parLabels := ScanRowMajor(ds)
	parIdx, _ := ScanActiveIndices(ds, enc)

	for i := range seqBlock {
		if seqBlock[i] != parBlock[i] {
			t.Fatalf("block[%d] diverged across parallelism: %d vs %d", i, seqBlock[i], parBlock[i])
		}
	}
	for i := range seqLabels {
		if seqLabels[i] != parLabels[i] {
			t.Fatalf("labels[%d] diverged across parallelism", i)
		}
	}
	for i := range seqIdx {
		if seqIdx[i] != parIdx[i] {
			t.Fatalf("idx[%d] diverged across parallelism", i)
		}
	}
}
