package ml

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/relational"
	"repro/internal/rng"
)

// mustRows is FromRows for test blocks that are valid by construction.
func mustRows(features []Feature, x []relational.Value, y []int8) *Dataset {
	d, err := FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// snapshot copies a dataset into a new in-memory table: the eager reference
// the view-composition tests compare lazy remaps against.
func snapshot(d *Dataset) *Dataset {
	x, y := ScanRowMajor(d)
	return mustRows(d.Features, x, y)
}

// exampleOf reads example i through its relation's per-row CopyRow: the
// oracle the batch reads (ScanFeature, ScanLabels, GatherFeatures) are
// pinned against, since it shares no code with them.
func exampleOf(d *Dataset, i int) ([]relational.Value, int8) {
	src := d.rel.CopyRow(make([]relational.Value, d.rel.Schema().Width()), i)
	row := make([]relational.Value, len(d.cols))
	for j, c := range d.cols {
		row[j] = src[c]
	}
	return row, int8(src[d.target])
}

// rowOf is example i's feature codes, read through exampleOf.
func rowOf(d *Dataset, i int) []relational.Value {
	row, _ := exampleOf(d, i)
	return row
}

// labelOf is example i's label, read through exampleOf.
func labelOf(d *Dataset, i int) int8 {
	_, y := exampleOf(d, i)
	return y
}

var tinyFeatures = []Feature{
	{Name: "a", Cardinality: 2},
	{Name: "b", Cardinality: 3},
}

var tinyX = []relational.Value{
	0, 0,
	0, 1,
	1, 0,
	1, 2,
}

// tinyDataset builds a 2-feature XOR-ish dataset for interface tests.
func tinyDataset() *Dataset {
	return mustRows(tinyFeatures, tinyX, []int8{0, 0, 1, 1})
}

func TestDatasetAccessors(t *testing.T) {
	d := tinyDataset()
	if d.NumExamples() != 4 || d.NumFeatures() != 2 {
		t.Fatalf("shape (%d,%d)", d.NumExamples(), d.NumFeatures())
	}
	if got := rowOf(d, 3); got[0] != 1 || got[1] != 2 {
		t.Fatalf("Row(3) = %v", got)
	}
	if labelOf(d, 2) != 1 {
		t.Fatal("Label(2) wrong")
	}
	if d.PositiveFraction() != 0.5 {
		t.Fatalf("PositiveFraction = %v", d.PositiveFraction())
	}
	if d.MajorityClass() != 1 {
		t.Fatal("tie must resolve to class 1")
	}
}

func TestSubsetAndSelectFeatures(t *testing.T) {
	d := tinyDataset()
	s := d.Subset([]int{3, 0})
	if s.NumExamples() != 2 || labelOf(s, 0) != 1 || rowOf(s, 1)[1] != 0 {
		t.Fatalf("Subset wrong: %+v", s)
	}
	f := d.SelectFeatures([]int{1})
	if f.NumFeatures() != 1 || f.Features[0].Name != "b" {
		t.Fatalf("SelectFeatures wrong: %+v", f.Features)
	}
	if rowOf(f, 3)[0] != 2 {
		t.Fatal("SelectFeatures did not reindex columns")
	}
}

func TestEncoderOffsets(t *testing.T) {
	d := tinyDataset()
	e := NewEncoder(d.Features)
	if e.Dims != 5 {
		t.Fatalf("Dims = %d, want 5", e.Dims)
	}
	if e.Index(0, 1) != 1 || e.Index(1, 0) != 2 || e.Index(1, 2) != 4 {
		t.Fatal("Index mapping wrong")
	}
	dst := make([]int, 2)
	got := e.ActiveIndices([]relational.Value{1, 2}, dst)
	if got[0] != 1 || got[1] != 4 {
		t.Fatalf("ActiveIndices = %v", got)
	}
}

func TestMatchCountEqualsOneHotDot(t *testing.T) {
	// Property: MatchCount(a,b) equals the dot product of explicit one-hot
	// encodings, and 2*(d - MatchCount) equals squared euclidean distance.
	f := func(seed uint64, dRaw uint8) bool {
		d := int(dRaw%8) + 1
		r := rng.New(seed)
		feats := make([]Feature, d)
		for j := range feats {
			feats[j] = Feature{Name: "f", Cardinality: r.Intn(5) + 2}
		}
		e := NewEncoder(feats)
		a := make([]relational.Value, d)
		b := make([]relational.Value, d)
		for j := range a {
			a[j] = relational.Value(r.Intn(feats[j].Cardinality))
			b[j] = relational.Value(r.Intn(feats[j].Cardinality))
		}
		oneHot := func(row []relational.Value) []float64 {
			v := make([]float64, e.Dims)
			for j, val := range row {
				v[e.Index(j, val)] = 1
			}
			return v
		}
		va, vb := oneHot(a), oneHot(b)
		dot, sq := 0.0, 0.0
		for i := range va {
			dot += float64(va[i] * vb[i])
			diff := va[i] - vb[i]
			sq += float64(diff * diff)
		}
		m := MatchCount(a, b)
		return float64(m) == dot && math.Abs(sq-2*float64(d-m)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracyAndConfusion(t *testing.T) {
	d := tinyDataset()
	c := &ConstantClassifier{Class: 1}
	if got := Accuracy(c, d); got != 0.5 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Error(c, d); got != 0.5 {
		t.Fatalf("Error = %v", got)
	}
}

func TestConstantClassifierFit(t *testing.T) {
	d := mustRows(tinyFeatures, tinyX, []int8{0, 0, 0, 1})
	c := &ConstantClassifier{}
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	if c.Class != 0 {
		t.Fatal("majority fit wrong")
	}
	if c.Name() == "" {
		t.Fatal("Name empty")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := NewGrid().Axis("a", 1, 2).Axis("b", 10, 20, 30)
	pts := g.Points()
	if len(pts) != 6 {
		t.Fatalf("grid size %d, want 6", len(pts))
	}
	// First point pairs the first value of every axis; order is
	// deterministic.
	if pts[0]["a"] != 1 || pts[0]["b"] != 10 {
		t.Fatalf("first point %v", pts[0])
	}
	if pts[5]["a"] != 2 || pts[5]["b"] != 30 {
		t.Fatalf("last point %v", pts[5])
	}
	if NewGrid().Points()[0].String() != "{}" {
		t.Fatal("empty grid must contain a single empty point")
	}
	if pts[0].String() != "{a=1 b=10}" {
		t.Fatalf("String = %q", pts[0].String())
	}
}

// thresholdClassifier predicts 1 iff feature 0 >= its threshold parameter;
// used to validate grid search picks the best validation point.
type thresholdClassifier struct{ thresh float64 }

func (c *thresholdClassifier) Fit(*Dataset) error { return nil }
func (c *thresholdClassifier) Predict(row []relational.Value) int8 {
	if float64(row[0]) >= c.thresh {
		return 1
	}
	return 0
}

func TestGridSearchPicksBestValidation(t *testing.T) {
	train := tinyDataset()
	val := tinyDataset()
	grid := NewGrid().Axis("thresh", 0, 1, 2)
	res, err := GridSearch(grid, func(p GridPoint) (Classifier, error) {
		return &thresholdClassifier{thresh: p["thresh"]}, nil
	}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	// thresh=1 perfectly separates the tiny dataset (feature0==1 → class 1).
	if res.BestPoint["thresh"] != 1 {
		t.Fatalf("best point %v", res.BestPoint)
	}
	if res.BestValAcc != 1.0 {
		t.Fatalf("best val acc %v", res.BestValAcc)
	}
	if res.PointsTried != 3 {
		t.Fatalf("points tried %d", res.PointsTried)
	}
}

func TestGridSearchTieKeepsEarlier(t *testing.T) {
	train := tinyDataset()
	val := tinyDataset()
	grid := NewGrid().Axis("thresh", 5, 6) // both always predict 0: tie
	res, err := GridSearch(grid, func(p GridPoint) (Classifier, error) {
		return &thresholdClassifier{thresh: p["thresh"]}, nil
	}, train, val)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPoint["thresh"] != 5 {
		t.Fatalf("tie should keep first point, got %v", res.BestPoint)
	}
}

// TestWinnerIgnoresOfferOrder pins the grid-search rule: the highest
// accuracy wins, the earliest index on ties, whatever order the points
// arrive in.
func TestWinnerIgnoresOfferOrder(t *testing.T) {
	accs := []float64{0.5, 0.8, 0.7, 0.8, 0.2}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {3, 0, 4, 1, 2}} {
		var w Winner
		for _, i := range order {
			w.Offer(i, accs[i])
		}
		if w.Index != 1 || w.Acc != 0.8 {
			t.Fatalf("order %v: winner %d (%v), want 1 (0.8)", order, w.Index, w.Acc)
		}
	}
	var w Winner
	if !w.Offer(3, 0) || w.Index != 3 {
		t.Fatal("the first offer must win an empty reduction")
	}
}

func TestViewColumns(t *testing.T) {
	// Build a tiny star and join it, then check each view's column set.
	keyDom := relational.NewDomain("RID", 2)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "xr", Kind: relational.KindFeature, Domain: relational.NewDomain("xr", 2)},
	), 2)
	dim.MustAppendRow([]relational.Value{0, 0})
	dim.MustAppendRow([]relational.Value{1, 1})
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "xs", Kind: relational.KindFeature, Domain: relational.NewDomain("xs", 2)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R"},
	), 4)
	for i := 0; i < 4; i++ {
		fact.MustAppendRow([]relational.Value{relational.Value(i % 2), relational.Value(i % 2), relational.Value(i % 2)})
	}
	ss, err := relational.NewStarSchema(fact, dim)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	joined := relational.Materialize(jv, "joined")

	name := func(cols []int) []string {
		var out []string
		for _, c := range cols {
			out = append(out, joined.Schema().Cols[c].Name)
		}
		return out
	}
	checkNames := func(got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("got %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("got %v want %v", got, want)
			}
		}
	}
	checkNames(name(ViewColumns(joined, JoinAll, nil)), []string{"xs", "FK", "R.xr"})
	checkNames(name(ViewColumns(joined, NoJoin, nil)), []string{"xs", "FK"})
	checkNames(name(ViewColumns(joined, NoFK, nil)), []string{"xs", "R.xr"})
	checkNames(name(ViewColumns(joined, JoinAll, map[string]bool{"R": true})), []string{"xs", "FK"})

	ds, err := ViewDataset(joined, ss.TargetCol, NoJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != 2 || !ds.Features[1].IsFK {
		t.Fatalf("NoJoin dataset features %+v", ds.Features)
	}
}

func TestViewOpenFKExcluded(t *testing.T) {
	keyDom := relational.NewDomain("RID", 2)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "xr", Kind: relational.KindFeature, Domain: relational.NewDomain("xr", 2)},
	), 2)
	dim.MustAppendRow([]relational.Value{0, 1})
	dim.MustAppendRow([]relational.Value{1, 0})
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R", Open: true},
	), 2)
	fact.MustAppendRow([]relational.Value{0, 0})
	fact.MustAppendRow([]relational.Value{1, 1})
	ss, err := relational.NewStarSchema(fact, dim)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	joined := relational.Materialize(jv, "joined")
	cols := ViewColumns(joined, JoinAll, nil)
	for _, c := range cols {
		if joined.Schema().Cols[c].Kind == relational.KindForeignKey {
			t.Fatal("open FK must never be a feature")
		}
	}
	// NoJoin on an open-FK-only fact table selects nothing → error.
	if _, err := ViewDataset(joined, ss.TargetCol, NoJoin, nil); err == nil {
		t.Fatal("expected empty-view error")
	}
}

func TestFromRelationValidation(t *testing.T) {
	d3 := relational.NewDomain("Y3", 3)
	tab := relational.NewTable("t", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: d3},
		relational.Column{Name: "x", Kind: relational.KindFeature, Domain: relational.NewDomain("x", 2)},
	), 1)
	tab.MustAppendRow([]relational.Value{2, 1})
	if _, err := FromRelation(tab, []int{1}, 0); err == nil {
		t.Fatal("non-binary target must be rejected")
	}
	if _, err := FromRelation(tab, []int{0}, 0); err == nil {
		t.Fatal("target as feature must be rejected")
	}
}

// TestFromRowsValidation pins FromRows' input checks: every malformed block
// is an error, never a dataset.
func TestFromRowsValidation(t *testing.T) {
	cases := map[string]struct {
		features []Feature
		x        []relational.Value
		y        []int8
	}{
		"ragged block":         {tinyFeatures, []relational.Value{0, 0, 1}, []int8{0, 1}},
		"code past its domain": {tinyFeatures, []relational.Value{0, 0, 1, 3}, []int8{0, 1}},
		"negative code":        {tinyFeatures, []relational.Value{0, -1}, []int8{0}},
		"label 2":              {tinyFeatures, []relational.Value{0, 0, 1, 2}, []int8{0, 2}},
		"negative label":       {tinyFeatures, []relational.Value{0, 0}, []int8{-1}},
		"zero features":        {nil, nil, []int8{0, 1}},
	}
	for name, c := range cases {
		if d, err := FromRows(c.features, c.x, c.y); err == nil {
			t.Errorf("%s: FromRows accepted the block (%d examples)", name, d.NumExamples())
		}
	}
}

// TestFromRowsKeepsFeatures checks the caller's features survive verbatim —
// empty and repeated names included, since the backing schema names its
// columns by position — and that the dataset copies the block.
func TestFromRowsKeepsFeatures(t *testing.T) {
	feats := []Feature{{Name: "", Cardinality: 3}, {Name: "", Cardinality: 2, IsFK: true}, {Name: "a", Cardinality: 4}, {Name: "a", Cardinality: 4}}
	x := []relational.Value{2, 1, 3, 0, 0, 0, 1, 3}
	d, err := FromRows(feats, x, []int8{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if &d.Features[0] != &feats[0] {
		t.Fatal("FromRows must keep the caller's features")
	}
	x[0] = 0
	if got := rowOf(d, 0); got[0] != 2 || got[1] != 1 || got[2] != 3 || got[3] != 0 || labelOf(d, 0) != 1 {
		t.Fatalf("row 0 = %v label %d", got, labelOf(d, 0))
	}
	if got := rowOf(d, 1); got[3] != 3 || labelOf(d, 1) != 0 {
		t.Fatalf("row 1 = %v label %d", got, labelOf(d, 1))
	}
	if empty := mustRows(feats, nil, nil); empty.NumExamples() != 0 || empty.NumFeatures() != 4 {
		t.Fatalf("empty block: shape (%d,%d)", empty.NumExamples(), empty.NumFeatures())
	}
}

func TestViewStringer(t *testing.T) {
	if JoinAll.String() != "JoinAll" || NoJoin.String() != "NoJoin" || NoFK.String() != "NoFK" {
		t.Fatal("View names wrong")
	}
	if View(9).String() == "" {
		t.Fatal("unknown view must still render")
	}
}
