package tree

import (
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// TestZoneSkipMatchesFullSearch pins the constant-feature skip: over a
// segmented relation carrying constant columns, the batched split search
// (which skips them) must fit the tree the row-at-a-time oracle confirms
// node by node, tallying every feature — a constant feature can never win a
// split, so proving it constant from statistics and never gathering it
// changes cost, not output.
func TestZoneSkipMatchesFullSearch(t *testing.T) {
	r := rng.New(77)
	keyDom := relational.NewDomain("RID", 60)
	schema := relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R"},
		relational.Column{Name: "const1", Kind: relational.KindFeature, Domain: relational.NewDomain("c1", 16)},
		relational.Column{Name: "a", Kind: relational.KindFeature, Domain: relational.NewDomain("a", 5)},
		relational.Column{Name: "const2", Kind: relational.KindFeature, Domain: relational.NewDomain("c2", 300)},
	)
	tab := relational.NewTable("S", schema, 0)
	n := 2 * parallelSplitThreshold
	for i := 0; i < n; i++ {
		fk := relational.Value(r.Intn(60))
		a := relational.Value(r.Intn(5))
		y := relational.Value((int(fk)/10 + int(a)) % 2)
		if r.Intn(12) == 0 {
			y = 1 - y
		}
		tab.MustAppendRow([]relational.Value{y, fk, 7, a, 250})
	}
	st, err := relational.MaterializeSegmented(tab, "seg", relational.SegmentOptions{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ml.FromRelation(st, []int{1, 2, 3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := ds.FeatureRange(1); !ok || lo != 7 || hi != 7 {
		t.Fatalf("const1 FeatureRange = [%d,%d] ok=%v, want constant 7", lo, hi, ok)
	}

	tr := New(Config{Criterion: Gini, MinSplit: 20, CP: 1e-4})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	requireOracleSplits(t, tr, ds)
	// The constant features (dataset positions 1 and 3) must split nowhere.
	for f := range tr.FeatureUsage() {
		if f == 1 || f == 3 {
			t.Fatalf("constant feature %d used for a split", f)
		}
	}
}
