package relational

import (
	"testing"

	"repro/internal/rng"
)

func opsTable(t *testing.T) *Table {
	t.Helper()
	d4 := NewDomain("d4", 4)
	d2 := NewDomain("d2", 2)
	keyDom := NewDomain("RID", 3)
	tab := NewTable("events", MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: d2},
		Column{Name: "x", Kind: KindFeature, Domain: d4},
		Column{Name: "FK", Kind: KindForeignKey, Domain: keyDom, Refs: "R"},
	), 6)
	rows := [][]Value{
		{0, 0, 0},
		{1, 1, 0},
		{0, 2, 1},
		{1, 3, 0},
		{0, 0, 1},
		{1, 1, 0},
	}
	for _, r := range rows {
		tab.MustAppendRow(r)
	}
	return tab
}

func TestSelect(t *testing.T) {
	tab := opsTable(t)
	pos := Select(tab, "pos", func(row []Value) bool { return row[0] == 1 })
	if pos.NumRows() != 3 {
		t.Fatalf("selected %d rows, want 3", pos.NumRows())
	}
	for i := 0; i < pos.NumRows(); i++ {
		if pos.At(i, 0) != 1 {
			t.Fatal("selection kept a non-matching row")
		}
	}
	eq, err := SelectEq(tab, "fk0", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq.NumRows() != 4 {
		t.Fatalf("SelectEq rows = %d, want 4", eq.NumRows())
	}
	if _, err := SelectEq(tab, "bad", 9, 0); err == nil {
		t.Fatal("bad column must error")
	}
	if _, err := SelectEq(tab, "bad", 2, 99); err == nil {
		t.Fatal("out-of-domain value must error")
	}
}

func TestGroupByAndDistinct(t *testing.T) {
	tab := opsTable(t)
	groups, err := GroupBy(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	// FK counts: 0→4, 1→2; sorted by descending count.
	if len(groups) != 2 || groups[0].Value != 0 || groups[0].Count != 4 || groups[1].Count != 2 {
		t.Fatalf("GroupBy = %+v", groups)
	}
	d, err := DistinctCount(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("DistinctCount = %d, want 2", d)
	}
	if _, err := GroupBy(tab, 9); err == nil {
		t.Fatal("bad column must error")
	}
}

func TestGroupBySortStability(t *testing.T) {
	// Equal counts must sort ascending by value for deterministic reports.
	d3 := NewDomain("d3", 3)
	tab := NewTable("t", MustSchema(Column{Name: "x", Kind: KindFeature, Domain: d3}), 4)
	for _, v := range []Value{2, 1, 2, 1} {
		tab.MustAppendRow([]Value{v})
	}
	groups, err := GroupBy(tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0].Value != 1 || groups[1].Value != 2 {
		t.Fatalf("tie order wrong: %+v", groups)
	}
}

func TestEstimateTupleRatio(t *testing.T) {
	tab := opsTable(t)
	tr, err := EstimateTupleRatio(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 3.0 { // 6 rows / 2 observed FK values
		t.Fatalf("estimated ratio %v, want 3.0", tr)
	}
	if _, err := EstimateTupleRatio(tab, 1); err == nil {
		t.Fatal("non-FK column must error")
	}
	empty := NewTable("e", tab.Schema(), 0)
	if _, err := EstimateTupleRatio(empty, 2); err == nil {
		t.Fatal("empty fact table must error")
	}
}

func TestEstimateConvergesToTrueRatio(t *testing.T) {
	// With many rows, the estimate approaches n_S / n_R because every FK
	// value gets observed.
	r := rng.New(1)
	keyDom := NewDomain("RID", 50)
	tab := NewTable("S", MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "FK", Kind: KindForeignKey, Domain: keyDom, Refs: "R"},
	), 5000)
	for i := 0; i < 5000; i++ {
		tab.MustAppendRow([]Value{Value(r.Intn(2)), Value(r.Intn(50))})
	}
	tr, err := EstimateTupleRatio(tab, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 100 {
		t.Fatalf("estimate %v, want exactly 100 (all 50 values observed)", tr)
	}
}
