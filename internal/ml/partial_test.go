package ml

import (
	"testing"

	"repro/internal/relational"
)

// buildPartialStar joins a fact table to one dimension with three foreign
// features for partial-view tests.
func buildPartialStar(t *testing.T) (*relational.Table, int) {
	t.Helper()
	keyDom := relational.NewDomain("RID", 2)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "a", Kind: relational.KindFeature, Domain: relational.NewDomain("a", 2)},
		relational.Column{Name: "b", Kind: relational.KindFeature, Domain: relational.NewDomain("b", 2)},
		relational.Column{Name: "c", Kind: relational.KindFeature, Domain: relational.NewDomain("c", 2)},
	), 2)
	dim.MustAppendRow([]relational.Value{0, 0, 1, 0})
	dim.MustAppendRow([]relational.Value{1, 1, 0, 1})
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
	return joined, ss.TargetCol
}

func TestPartialViewSubsets(t *testing.T) {
	joined, target := buildPartialStar(t)
	names := func(cols []int) []string {
		var out []string
		for _, c := range cols {
			out = append(out, joined.Schema().Cols[c].Name)
		}
		return out
	}
	check := func(spec PartialSpec, want []string) {
		t.Helper()
		cols, err := PartialViewColumns(joined, spec)
		if err != nil {
			t.Fatal(err)
		}
		got := names(cols)
		if len(got) != len(want) {
			t.Fatalf("spec %v: got %v want %v", spec, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("spec %v: got %v want %v", spec, got, want)
			}
		}
	}
	// Empty spec ≡ NoJoin column set.
	check(PartialSpec{}, []string{"xs", "FK"})
	// One foreign feature kept.
	check(PartialSpec{"R": {"b"}}, []string{"xs", "FK", "R.b"})
	// All kept ≡ JoinAll column set.
	check(PartialSpec{"R": {"a", "b", "c"}}, []string{"xs", "FK", "R.a", "R.b", "R.c"})

	ds, err := PartialViewDataset(joined, target, PartialSpec{"R": {"c"}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFeatures() != 3 {
		t.Fatalf("partial dataset has %d features", ds.NumFeatures())
	}
}

func TestPartialViewRejectsUnknownFeature(t *testing.T) {
	joined, _ := buildPartialStar(t)
	if _, err := PartialViewColumns(joined, PartialSpec{"R": {"zz"}}); err == nil {
		t.Fatal("unknown foreign feature must error")
	}
	if _, err := PartialViewColumns(joined, PartialSpec{"Q": {"a"}}); err == nil {
		t.Fatal("unknown dimension must error")
	}
}

func TestForeignFeatureNames(t *testing.T) {
	joined, _ := buildPartialStar(t)
	menu := ForeignFeatureNames(joined)
	if len(menu) != 1 {
		t.Fatalf("menu = %v", menu)
	}
	feats := menu["R"]
	if len(feats) != 3 || feats[0] != "a" || feats[2] != "c" {
		t.Fatalf("R features = %v", feats)
	}
}
