package ml

import (
	"testing"

	"repro/internal/relational"
	"repro/internal/rng"
)

// viewStar builds a one-dimension star schema and returns it with its lazy
// join view.
func viewStar(t *testing.T, nS, nR int, seed uint64) (*relational.StarSchema, *relational.JoinView) {
	t.Helper()
	r := rng.New(seed)
	keyDom := relational.NewDomain("RID", nR)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "xr", Kind: relational.KindFeature, Domain: relational.NewDomain("xr", 4)},
		relational.Column{Name: "xr2", Kind: relational.KindFeature, Domain: relational.NewDomain("xr2", 4)},
	), nR)
	for i := 0; i < nR; i++ {
		dim.MustAppendRow([]relational.Value{relational.Value(i), relational.Value(r.Intn(4)), relational.Value(r.Intn(4))})
	}
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "xs", Kind: relational.KindFeature, Domain: relational.NewDomain("xs", 4)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R"},
	), nS)
	for i := 0; i < nS; i++ {
		fact.MustAppendRow([]relational.Value{relational.Value(r.Intn(2)), relational.Value(r.Intn(4)), relational.Value(r.Intn(nR))})
	}
	ss, err := relational.NewStarSchema(fact, dim)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	return ss, jv
}

// sameDataset compares two datasets example by example through the safe
// accessors.
func sameDataset(t *testing.T, want, got *Dataset) {
	t.Helper()
	if want.NumExamples() != got.NumExamples() || want.NumFeatures() != got.NumFeatures() {
		t.Fatalf("shape (%d,%d) vs (%d,%d)",
			want.NumExamples(), want.NumFeatures(), got.NumExamples(), got.NumFeatures())
	}
	wbuf := make([]relational.Value, want.NumFeatures())
	gbuf := make([]relational.Value, got.NumFeatures())
	for i := 0; i < want.NumExamples(); i++ {
		if want.Label(i) != got.Label(i) {
			t.Fatalf("label %d: %d vs %d", i, want.Label(i), got.Label(i))
		}
		want.RowInto(wbuf, i)
		got.RowInto(gbuf, i)
		for j := range wbuf {
			if wbuf[j] != gbuf[j] {
				t.Fatalf("cell (%d,%d): %d vs %d", i, j, wbuf[j], gbuf[j])
			}
		}
	}
}

func TestViewDatasetObservesBaseWrites(t *testing.T) {
	// The documented aliasing contract: datasets are read-only *views*, so a
	// write to the base table must be visible through every layer of the
	// view stack (JoinView → ViewDataset → Subset → SelectFeatures).
	ss, jv := viewStar(t, 40, 6, 3)
	ds, err := ViewDataset(jv, ss.TargetCol, JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := ds.Subset([]int{5, 9, 5})
	// Feature order is xs, FK, R.xr, R.xr2; keep [R.xr, xs].
	sel := sub.SelectFeatures([]int{2, 0})

	// Write a home feature of fact row 9 (sub example 1, feature xs).
	old := ss.Fact.At(9, 1)
	newVal := (old + 1) % 4
	if err := ss.Fact.Set(9, 1, newVal); err != nil {
		t.Fatal(err)
	}
	if got := ds.At(9, 0); got != newVal {
		t.Fatalf("dataset did not observe fact write: %d want %d", got, newVal)
	}
	if got := sub.At(1, 0); got != newVal {
		t.Fatalf("subset did not observe fact write: %d want %d", got, newVal)
	}
	if got := sel.At(1, 1); got != newVal {
		t.Fatalf("feature-selected view did not observe fact write: %d want %d", got, newVal)
	}

	// Write a dimension feature reached through the FK indirection.
	fk := int(ss.Fact.At(5, 2))
	dim := ss.Dimensions["R"]
	oldXr := dim.At(fk, 1)
	newXr := (oldXr + 1) % 4
	if err := dim.Set(fk, 1, newXr); err != nil {
		t.Fatal(err)
	}
	if got := sel.At(0, 0); got != newXr {
		t.Fatalf("view stack did not observe dimension write: %d want %d", got, newXr)
	}

	// Labels read through too.
	oldY := ss.Fact.At(5, 0)
	if err := ss.Fact.Set(5, 0, 1-oldY); err != nil {
		t.Fatal(err)
	}
	if got := sel.Label(0); got != int8(1-oldY) {
		t.Fatalf("label did not read through: %d want %d", got, 1-oldY)
	}

	// A materialized snapshot is decoupled from subsequent writes.
	snap := sel.Materialize()
	if err := dim.Set(fk, 1, oldXr); err != nil {
		t.Fatal(err)
	}
	if got := snap.At(0, 0); got != newXr {
		t.Fatalf("materialized dataset changed under a base write: %d want %d", got, newXr)
	}
}

func TestViewCompositionMatchesMaterialized(t *testing.T) {
	ss, jv := viewStar(t, 60, 8, 7)
	full, err := ViewDataset(jv, ss.TargetCol, JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{59, 0, 17, 17, 33, 2}
	keep := []int{3, 1, 0}

	lazy := full.Subset(idx).SelectFeatures(keep)
	eager := full.Materialize().Subset(idx).Materialize().SelectFeatures(keep)
	sameDataset(t, eager, lazy)
	// And the other composition order.
	lazy2 := full.SelectFeatures(keep).Subset(idx)
	sameDataset(t, eager, lazy2)
	// Materializing the lazy stack is a fixed point.
	sameDataset(t, lazy, lazy.Materialize())

	if lazy.Materialize() == lazy {
		t.Fatal("view must materialize to a new dense dataset")
	}
	dense := lazy.Materialize()
	if dense.Materialize() != dense {
		t.Fatal("dense dataset must materialize to itself")
	}
}

func TestRowScratchAndHandles(t *testing.T) {
	ss, jv := viewStar(t, 20, 4, 11)
	ds, err := ViewDataset(jv, ss.TargetCol, JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Row on a view-backed dataset reuses scratch: a second call clobbers
	// the first result. RowInto with a caller buffer is stable.
	stable := make([]relational.Value, ds.NumFeatures())
	ds.RowInto(stable, 0)
	r0 := ds.Row(0)
	_ = ds.Row(1)
	same := true
	for j := range r0 {
		if r0[j] != stable[j] {
			same = false
		}
	}
	if same && ds.NumFeatures() > 0 {
		// Rows 0 and 1 could coincide; force distinction via direct check.
		distinct := false
		for j := 0; j < ds.NumFeatures(); j++ {
			if ds.At(0, j) != ds.At(1, j) {
				distinct = true
			}
		}
		if distinct {
			t.Fatal("Row(1) did not reuse the scratch buffer; the zero-copy contract changed")
		}
	}

	// Handles have independent scratch: interleaved reads don't clobber.
	h1, h2 := ds.Handle(), ds.Handle()
	if h1 == ds || h1 == h2 {
		t.Fatal("view-backed handles must be distinct values")
	}
	a := h1.Row(2)
	b := h2.Row(3)
	for j := range a {
		if a[j] != ds.At(2, j) {
			t.Fatalf("h1 row clobbered at %d", j)
		}
		if b[j] != ds.At(3, j) {
			t.Fatalf("h2 row wrong at %d", j)
		}
	}

	// Dense datasets alias storage; Handle is the identity.
	dense := ds.Materialize()
	if dense.Handle() != dense {
		t.Fatal("dense handle must be the dataset itself")
	}
	dr := dense.Row(2)
	_ = dense.Row(3)
	for j := range dr {
		if dr[j] != dense.At(2, j) {
			t.Fatal("dense rows must not share scratch")
		}
	}
}

func TestGridSearchParallelMatchesSequential(t *testing.T) {
	ss, jv := viewStar(t, 80, 5, 17)
	full, err := ViewDataset(jv, ss.TargetCol, JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	train := full.Subset(seqIdx(0, 40))
	val := full.Subset(seqIdx(40, 80))
	grid := NewGrid().Axis("thresh", 0, 1, 2, 3, 4, 5)
	factory := func(p GridPoint) (Classifier, error) {
		return &thresholdClassifier{thresh: p["thresh"]}, nil
	}

	defer func() { MaxParallelism = 0 }()
	MaxParallelism = 1
	seq, err := GridSearch(grid, factory, train, val)
	if err != nil {
		t.Fatal(err)
	}
	MaxParallelism = 8
	par, err := GridSearch(grid, factory, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if seq.BestValAcc != par.BestValAcc || seq.BestPoint["thresh"] != par.BestPoint["thresh"] ||
		seq.PointsTried != par.PointsTried {
		t.Fatalf("parallel grid search diverged: %+v vs %+v", seq, par)
	}
}

func seqIdx(from, to int) []int {
	out := make([]int, to-from)
	for i := range out {
		out[i] = from + i
	}
	return out
}
