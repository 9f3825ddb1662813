package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/tree"
)

// TestSegmentedEngineMatchesColumnar is the acceptance check for segment
// partitioning: the same experiment cells run against a multi-segment env
// must produce bit-identical accuracies and grid winners to the default
// env's single columnar slab — segmentation changes morsel boundaries,
// never cell values or reduction order.
func TestSegmentedEngineMatchesColumnar(t *testing.T) {
	ss := walmartStar(t, 256)
	slab, err := NewEnv(ss, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := slab.Joined.(*relational.SegmentedTable); !ok || st.NumSegments() != 1 {
		t.Fatalf("default env joined is %T, want a one-segment *relational.SegmentedTable", slab.Joined)
	}
	// A small segment size forces multi-segment routing on this tiny env.
	withSegmentDefaults(t, relational.SegmentOptions{SegmentSize: 128})
	seg, err := NewEnvEngine(ss, 7, EngineSegmented)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if st, ok := seg.Joined.(*relational.SegmentedTable); !ok || st.NumSegments() < 2 {
		t.Fatalf("segmented env joined is %T, want a multi-segment *relational.SegmentedTable", seg.Joined)
	}
	requireSameRuns(t, slab, seg, []Spec{TreeSpec(tree.Gini, EffortFast), NaiveBayesBFSSpec()}, ml.JoinAll, ml.NoJoin)
}

// TestOutOfCoreArtifactsBitIdentical is the out-of-core acceptance pin: a
// spilled segmented env whose cache budget holds only a few segments must
// train NB and tree artifacts byte-identical to the in-memory default env
// — paging segments through disk mid-training must be invisible at the
// artifact boundary.
func TestOutOfCoreArtifactsBitIdentical(t *testing.T) {
	dspec, err := dataset.SpecByName("Movies")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(dspec, 256, 7)
	if err != nil {
		t.Fatal(err)
	}
	withSegmentDefaults(t, relational.SegmentOptions{
		SegmentSize: 256,
		SpillDir:    t.TempDir(),
		CacheBytes:  16 << 10,
	})
	mem, err := NewEnv(ss, 7)
	if err != nil {
		t.Fatal(err)
	}
	spilled, err := NewEnvEngine(ss, 7, EngineSegmented)
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := spilled.Joined.(*relational.SegmentedTable); !ok || !st.Spilled() {
		t.Fatalf("joined is %T, want a spilled *relational.SegmentedTable", spilled.Joined)
	}
	for _, mspec := range []Spec{TreeSpec(tree.Gini, EffortFast), NaiveBayesBFSSpec()} {
		if !bytes.Equal(artifactBytes(t, mem, mspec), artifactBytes(t, spilled, mspec)) {
			t.Fatalf("%s: in-memory and out-of-core artifacts differ", mspec.Name)
		}
	}
	if err := spilled.Close(); err != nil {
		t.Fatal(err)
	}
}
