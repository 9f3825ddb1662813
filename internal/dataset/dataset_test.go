package dataset

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/tree"
)

func TestSpecsCoverTableOne(t *testing.T) {
	specs := Specs()
	if len(specs) != 7 {
		t.Fatalf("want 7 datasets, got %d", len(specs))
	}
	want := map[string]struct {
		q  int
		ds int
	}{
		"Expedia": {2, 1}, "Movies": {2, 0}, "Yelp": {2, 0},
		"Walmart": {2, 1}, "LastFM": {2, 0}, "Books": {2, 0},
		"Flights": {3, 20},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected dataset %q", s.Name)
		}
		if len(s.Dims) != w.q {
			t.Fatalf("%s: q = %d, want %d", s.Name, len(s.Dims), w.q)
		}
		if s.DS != w.ds {
			t.Fatalf("%s: dS = %d, want %d", s.Name, s.DS, w.ds)
		}
	}
	if _, err := SpecByName("Yelp"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestGenerateValidStarSchema(t *testing.T) {
	for _, s := range Specs() {
		ss, err := Generate(s, 256, 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, err := relational.NewJoinView(ss); err != nil {
			t.Fatalf("%s: join: %v", s.Name, err)
		}
		// Class balance must not be degenerate.
		pos := 0
		for i := 0; i < ss.Fact.NumRows(); i++ {
			if ss.Fact.At(i, 0) == 1 {
				pos++
			}
		}
		frac := float64(pos) / float64(ss.Fact.NumRows())
		if frac < 0.15 || frac > 0.85 {
			t.Fatalf("%s: degenerate class balance %v", s.Name, frac)
		}
	}
}

func TestTupleRatiosPreservedUnderScale(t *testing.T) {
	// Table 1's Yelp users ratio is 2.5 (with the 50% training factor).
	spec, err := SpecByName("Yelp")
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []int{16, 64} {
		ss, err := Generate(spec, scale, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := Describe("Yelp", ss)
		var usersRatio float64
		for _, d := range st.Dims {
			if d.Name == "Users" {
				usersRatio = d.TupleRatio
			}
		}
		if math.Abs(usersRatio-2.5) > 0.4 {
			t.Fatalf("scale %d: users tuple ratio %v, want ≈2.5", scale, usersRatio)
		}
	}
}

func TestExpediaOpenFK(t *testing.T) {
	spec, _ := SpecByName("Expedia")
	ss, err := Generate(spec, 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := Describe("Expedia", ss)
	foundOpen := false
	for _, d := range st.Dims {
		if d.Name == "Searches" && d.Open {
			foundOpen = true
		}
	}
	if !foundOpen {
		t.Fatal("Expedia's Searches FK must be open-domain (Table 1's N/A)")
	}
	// The open FK must not appear in any feature view.
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	joined := relational.Materialize(jv, "joined")
	for _, v := range []ml.View{ml.JoinAll, ml.NoJoin} {
		for _, c := range ml.ViewColumns(joined, v, nil) {
			col := joined.Schema().Cols[c]
			if col.Kind == relational.KindForeignKey && col.Refs == "Searches" {
				t.Fatalf("open FK leaked into view %v", v)
			}
		}
	}
}

func TestGenerateRejectsBadScale(t *testing.T) {
	if _, err := Generate(Specs()[0], 0, 1); err == nil {
		t.Fatal("scale 0 must error")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	spec, _ := SpecByName("Walmart")
	a, err := Generate(spec, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 128, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fact.NumRows() != b.Fact.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := 0; i < a.Fact.NumRows(); i++ {
		for j := 0; j < a.Fact.Schema().Width(); j++ {
			if a.Fact.At(i, j) != b.Fact.At(i, j) {
				t.Fatal("generation not deterministic")
			}
		}
	}
}

func TestPlantedSignalsAreLearnable(t *testing.T) {
	// A gini tree on JoinAll must beat the majority baseline comfortably on
	// a moderately scaled Flights (strong latent signal).
	spec, _ := SpecByName("Flights")
	ss, err := Generate(spec, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	joined := relational.Materialize(jv, "joined")
	targetCol := joined.Schema().ColumnsOfKind(relational.KindTarget)[0]
	ds, err := ml.ViewDataset(joined, targetCol, ml.JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	maj := &ml.ConstantClassifier{}
	_ = maj.Fit(ds)
	if ml.Accuracy(tr, ds) < ml.Accuracy(maj, ds)+0.1 {
		t.Fatalf("planted signal not learnable: tree %v vs majority %v",
			ml.Accuracy(tr, ds), ml.Accuracy(maj, ds))
	}
}

func TestRoundRatio(t *testing.T) {
	if roundRatio(2.54) != 2.5 || roundRatio(2.55) != 2.6 {
		t.Fatal("roundRatio wrong")
	}
}
