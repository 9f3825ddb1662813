package relational

import (
	"testing"

	"repro/internal/rng"
)

// testStar builds a small two-dimension star schema with deterministic
// pseudo-random contents.
func testStar(t testing.TB, nS, nR1, nR2 int, seed uint64) *StarSchema {
	t.Helper()
	r := rng.New(seed)

	mkDim := func(name string, nR, dR int) *Table {
		cols := []Column{{Name: "RID", Kind: KindPrimaryKey, Domain: NewDomain(name+"_RID", nR)}}
		for j := 0; j < dR; j++ {
			cols = append(cols, Column{Name: "f" + string(rune('a'+j)), Kind: KindFeature, Domain: NewDomain("d4", 4)})
		}
		dim := NewTable(name, MustSchema(cols...), nR)
		row := make([]Value, len(cols))
		for i := 0; i < nR; i++ {
			row[0] = Value(i)
			for j := 1; j < len(cols); j++ {
				row[j] = Value(r.Intn(4))
			}
			dim.MustAppendRow(row)
		}
		return dim
	}
	d1 := mkDim("R1", nR1, 3)
	d2 := mkDim("R2", nR2, 2)

	fcols := []Column{
		{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		{Name: "xs", Kind: KindFeature, Domain: NewDomain("d4", 4)},
		{Name: "fk1", Kind: KindForeignKey, Domain: d1.Schema().Cols[0].Domain, Refs: "R1"},
		{Name: "fk2", Kind: KindForeignKey, Domain: d2.Schema().Cols[0].Domain, Refs: "R2"},
	}
	fact := NewTable("S", MustSchema(fcols...), nS)
	for i := 0; i < nS; i++ {
		fact.MustAppendRow([]Value{Value(r.Intn(2)), Value(r.Intn(4)), Value(r.Intn(nR1)), Value(r.Intn(nR2))})
	}
	ss, err := NewStarSchema(fact, d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// eagerJoin is an independent reference implementation of the historical
// materialized join, kept in the tests as the oracle the factorized path is
// checked against byte-for-byte.
func eagerJoin(t testing.TB, ss *StarSchema) *Table {
	t.Helper()
	fact := ss.Fact
	cols := append([]Column(nil), fact.Schema().Cols...)
	type plan struct {
		fkCol   int
		dim     *Table
		featIdx []int
	}
	var plans []plan
	for _, fkCol := range fact.Schema().ColumnsOfKind(KindForeignKey) {
		dim := ss.Dimensions[fact.Schema().Cols[fkCol].Refs]
		var featIdx []int
		for i, c := range dim.Schema().Cols {
			if c.Kind == KindFeature {
				featIdx = append(featIdx, i)
				cols = append(cols, Column{Name: dim.Name + "." + c.Name, Kind: KindFeature, Domain: c.Domain})
			}
		}
		plans = append(plans, plan{fkCol: fkCol, dim: dim, featIdx: featIdx})
	}
	out := NewTable(fact.Name+"_joined", MustSchema(cols...), fact.NumRows())
	row := make([]Value, len(cols))
	for i := 0; i < fact.NumRows(); i++ {
		copy(row, fact.Row(i))
		at := fact.Schema().Width()
		for _, p := range plans {
			dimRow := p.dim.Row(int(fact.At(i, p.fkCol)))
			for _, fi := range p.featIdx {
				row[at] = dimRow[fi]
				at++
			}
		}
		out.MustAppendRow(row)
	}
	return out
}

func sameRelation(t *testing.T, want, got Relation) {
	t.Helper()
	ws, gs := want.Schema(), got.Schema()
	if ws.Width() != gs.Width() {
		t.Fatalf("width %d vs %d", ws.Width(), gs.Width())
	}
	for j := range ws.Cols {
		if ws.Cols[j].Name != gs.Cols[j].Name || ws.Cols[j].Kind != gs.Cols[j].Kind {
			t.Fatalf("column %d: %+v vs %+v", j, ws.Cols[j], gs.Cols[j])
		}
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("rows %d vs %d", want.NumRows(), got.NumRows())
	}
	for i := 0; i < want.NumRows(); i++ {
		for j := 0; j < ws.Width(); j++ {
			if want.At(i, j) != got.At(i, j) {
				t.Fatalf("cell (%d,%d): %d vs %d", i, j, want.At(i, j), got.At(i, j))
			}
		}
	}
}

func TestJoinViewMatchesEagerJoinByteForByte(t *testing.T) {
	ss := testStar(t, 200, 13, 7, 3)
	ref := eagerJoin(t, ss)

	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	// Cell-level equality of the lazy view.
	sameRelation(t, ref, jv)
	// Materialize(view) must reproduce the eager output exactly.
	sameRelation(t, ref, Materialize(jv, ref.Name))
	// CopyRow agrees with At.
	w := jv.Schema().Width()
	buf := make([]Value, w)
	for _, i := range []int{0, 1, 99, 199} {
		jv.CopyRow(buf, i)
		for j := 0; j < w; j++ {
			if buf[j] != jv.At(i, j) {
				t.Fatalf("CopyRow(%d)[%d] = %d, At = %d", i, j, buf[j], jv.At(i, j))
			}
		}
	}
}

func TestJoinViewRejectsDanglingFK(t *testing.T) {
	ss := testStar(t, 50, 8, 5, 11)
	// Forge an FK beyond the dimension's rows. Domain size equals row count
	// here, so corrupt the raw storage through the package-internal slice.
	fk1 := ss.Fact.Schema().Index("fk1")
	ss.Fact.rows[3*ss.Fact.width+fk1] = Value(8) // rows are 0..7
	if _, err := NewJoinView(ss); err == nil {
		t.Fatal("dangling FK must fail view construction")
	}
}

func TestJoinViewObservesBaseWrites(t *testing.T) {
	// The zero-copy contract: a write to a dimension table is visible
	// through the join view without rebuilding anything.
	ss := testStar(t, 40, 6, 4, 17)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	dim := ss.Dimensions["R1"]
	col := jv.Schema().Index("R1.fa")
	fk1 := ss.Fact.Schema().Index("fk1")
	row := 9
	dimRow := int(ss.Fact.At(row, fk1))
	old := jv.At(row, col)
	newVal := (old + 1) % 4
	if err := dim.Set(dimRow, 1, newVal); err != nil {
		t.Fatal(err)
	}
	if got := jv.At(row, col); got != newVal {
		t.Fatalf("join view did not observe dimension write: got %d, want %d", got, newVal)
	}
	// A materialized snapshot, by contrast, must NOT change.
	snap := Materialize(jv, "snap")
	if err := dim.Set(dimRow, 1, old); err != nil {
		t.Fatal(err)
	}
	if got := snap.At(row, col); got != newVal {
		t.Fatalf("materialized snapshot changed under it: got %d, want %d", got, newVal)
	}
}

func TestSelectViewRemap(t *testing.T) {
	ss := testStar(t, 30, 5, 3, 23)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{29, 0, 7, 7, 15}
	sv, err := NewSelectView(jv, idx)
	if err != nil {
		t.Fatal(err)
	}
	if sv.NumRows() != len(idx) {
		t.Fatalf("select view rows %d", sv.NumRows())
	}
	for k, i := range idx {
		for j := 0; j < jv.Schema().Width(); j++ {
			if sv.At(k, j) != jv.At(i, j) {
				t.Fatalf("select view cell (%d,%d) mismatch", k, j)
			}
		}
	}
	if _, err := NewSelectView(jv, []int{30}); err == nil {
		t.Fatal("out-of-range index must be rejected")
	}

	// Materializing the view equals walking it.
	sameRelation(t, sv, Materialize(sv, "mat"))
}

func TestSplitIsLazyAndMaterializes(t *testing.T) {
	ss := testStar(t, 64, 6, 4, 29)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	split, err := PaperSplit(jv, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := split.Train.(*SelectView); !ok {
		t.Fatalf("split part is %T, want *SelectView", split.Train)
	}
	total := split.Train.NumRows() + split.Validation.NumRows() + split.Test.NumRows()
	if total != jv.NumRows() {
		t.Fatalf("split covers %d of %d rows", total, jv.NumRows())
	}
	for _, part := range []Relation{split.Train, split.Validation, split.Test} {
		sameRelation(t, part, Materialize(part, "S"))
	}
}

// FuzzJoinViewMatchesMaterialized drives randomized star schemas and checks
// every cell of the lazy join view against the eager reference join.
func FuzzJoinViewMatchesMaterialized(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint8(4), uint8(3))
	f.Add(uint64(42), uint16(1), uint8(1), uint8(1))
	f.Add(uint64(7), uint16(300), uint8(40), uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, nS uint16, nR1, nR2 uint8) {
		if nS == 0 || nR1 == 0 || nR2 == 0 {
			return
		}
		ss := testStar(t, int(nS)%512+1, int(nR1)+1, int(nR2)+1, seed)
		ref := eagerJoin(t, ss)
		jv, err := NewJoinView(ss)
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, ref, jv)
	})
}
