package relational

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// buildCustomerStar builds the paper's running example: Customers (fact)
// with a foreign key into Employers (dimension).
func buildCustomerStar(t *testing.T) *StarSchema {
	t.Helper()
	empDom := NewDomain("EmployerID", 3)
	stateDom := NewLabeledDomain("State", []string{"CA", "WI"})
	revDom := NewLabeledDomain("Revenue", []string{"low", "high"})
	employers := NewTable("Employers", MustSchema(
		Column{Name: "EmployerID", Kind: KindPrimaryKey, Domain: empDom},
		Column{Name: "State", Kind: KindFeature, Domain: stateDom},
		Column{Name: "Revenue", Kind: KindFeature, Domain: revDom},
	), 3)
	employers.MustAppendRow([]Value{0, 0, 1})
	employers.MustAppendRow([]Value{1, 1, 0})
	employers.MustAppendRow([]Value{2, 0, 0})

	churnDom := NewLabeledDomain("Churn", []string{"no", "yes"})
	genderDom := NewLabeledDomain("Gender", []string{"F", "M"})
	customers := NewTable("Customers", MustSchema(
		Column{Name: "Churn", Kind: KindTarget, Domain: churnDom},
		Column{Name: "Gender", Kind: KindFeature, Domain: genderDom},
		Column{Name: "Employer", Kind: KindForeignKey, Domain: empDom, Refs: "Employers"},
	), 6)
	rows := [][]Value{
		{0, 0, 0}, {1, 1, 1}, {0, 0, 2}, {1, 1, 0}, {0, 1, 1}, {1, 0, 2},
	}
	for _, r := range rows {
		customers.MustAppendRow(r)
	}
	ss, err := NewStarSchema(customers, employers)
	if err != nil {
		t.Fatalf("NewStarSchema: %v", err)
	}
	return ss
}

func TestSchemaRejectsDuplicates(t *testing.T) {
	d := NewDomain("d", 2)
	_, err := NewSchema(
		Column{Name: "a", Kind: KindFeature, Domain: d},
		Column{Name: "a", Kind: KindFeature, Domain: d},
	)
	if err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestSchemaRejectsFKWithoutRefs(t *testing.T) {
	d := NewDomain("d", 2)
	_, err := NewSchema(Column{Name: "fk", Kind: KindForeignKey, Domain: d})
	if err == nil {
		t.Fatal("expected missing-Refs error")
	}
}

func TestDomainLabels(t *testing.T) {
	d := NewLabeledDomain("color", []string{"red", "green"})
	if d.Label(0) != "red" || d.Label(1) != "green" {
		t.Fatalf("labels wrong: %q %q", d.Label(0), d.Label(1))
	}
	if !strings.Contains(d.Label(5), "invalid") {
		t.Fatalf("out-of-range label should mark invalid, got %q", d.Label(5))
	}
	anon := NewDomain("fk", 4)
	if anon.Label(2) != "fk=2" {
		t.Fatalf("anonymous label = %q", anon.Label(2))
	}
}

func TestTableAppendValidation(t *testing.T) {
	d := NewDomain("d", 2)
	tab := NewTable("t", MustSchema(Column{Name: "x", Kind: KindFeature, Domain: d}), 1)
	if err := tab.AppendRow([]Value{1, 1}); err == nil {
		t.Fatal("expected width error")
	}
	if err := tab.AppendRow([]Value{5}); err == nil {
		t.Fatal("expected domain error")
	}
	if err := tab.AppendRow([]Value{1}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if tab.NumRows() != 1 || tab.At(0, 0) != 1 {
		t.Fatal("row not stored")
	}
}

func TestTableSetValidation(t *testing.T) {
	d := NewDomain("d", 2)
	tab := NewTable("t", MustSchema(Column{Name: "x", Kind: KindFeature, Domain: d}), 1)
	tab.MustAppendRow([]Value{0})
	if err := tab.Set(0, 0, 9); err == nil {
		t.Fatal("expected out-of-domain error")
	}
	if err := tab.Set(0, 0, 1); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if tab.At(0, 0) != 1 {
		t.Fatal("Set did not store value")
	}
}

func TestStarSchemaValidation(t *testing.T) {
	ss := buildCustomerStar(t)
	tr, err := ss.TupleRatio("Employers")
	if err != nil {
		t.Fatalf("TupleRatio: %v", err)
	}
	if tr != 2.0 {
		t.Fatalf("tuple ratio = %v, want 2.0 (6 customers / 3 employers)", tr)
	}
	if _, err := ss.TupleRatio("Nope"); err == nil {
		t.Fatal("expected error for unknown dimension")
	}
	names := ss.DimensionNames()
	if len(names) != 1 || names[0] != "Employers" {
		t.Fatalf("DimensionNames = %v", names)
	}
}

func TestStarSchemaRejectsNonDenseKeys(t *testing.T) {
	empDom := NewDomain("EmployerID", 2)
	dim := NewTable("Employers", MustSchema(
		Column{Name: "EmployerID", Kind: KindPrimaryKey, Domain: empDom},
	), 2)
	dim.MustAppendRow([]Value{1})
	dim.MustAppendRow([]Value{0})
	fact := NewTable("S", MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "FK", Kind: KindForeignKey, Domain: empDom, Refs: "Employers"},
	), 0)
	if _, err := NewStarSchema(fact, dim); err == nil {
		t.Fatal("expected dense-identity key error")
	}
}

func TestStarSchemaRejectsCardinalityMismatch(t *testing.T) {
	empDom := NewDomain("EmployerID", 3)
	dim := NewTable("Employers", MustSchema(
		Column{Name: "EmployerID", Kind: KindPrimaryKey, Domain: empDom},
	), 2)
	dim.MustAppendRow([]Value{0})
	dim.MustAppendRow([]Value{1}) // only 2 rows, domain says 3
	fact := NewTable("S", MustSchema(
		Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
		Column{Name: "FK", Kind: KindForeignKey, Domain: empDom, Refs: "Employers"},
	), 0)
	if _, err := NewStarSchema(fact, dim); err == nil {
		t.Fatal("expected key-cardinality error")
	}
}

// verifyFD checks that the functional dependency det → dep holds in relation
// t: every pair of rows agreeing on column det also agrees on column dep.
// FK → X_R in the join output is the property that makes avoiding joins
// safe at all.
func verifyFD(t Relation, det, dep int) error {
	schema := t.Schema()
	seen := make([]Value, schema.Cols[det].Domain.Size)
	for i := range seen {
		seen[i] = -1
	}
	row := make([]Value, schema.Width())
	for i, n := 0, t.NumRows(); i < n; i++ {
		t.CopyRow(row, i)
		d, v := row[det], row[dep]
		if seen[d] == -1 {
			seen[d] = v
			continue
		}
		if seen[d] != v {
			return fmt.Errorf("FD %s→%s violated at row %d: %s=%d maps to both %d and %d",
				schema.Cols[det].Name, schema.Cols[dep].Name, i, schema.Cols[det].Name, d, seen[d], v)
		}
	}
	return nil
}

// verifyKFKFDs checks, on a joined relation (materialized or JoinView), that
// each foreign key column functionally determines every feature column
// brought in from its dimension table (columns named "<dim>.<feat>").
func verifyKFKFDs(joined Relation, ss *StarSchema) error {
	schema := joined.Schema()
	for _, fkCol := range schema.ColumnsOfKind(KindForeignKey) {
		prefix := schema.Cols[fkCol].Refs + "."
		for i, c := range schema.Cols {
			if c.Kind == KindFeature && strings.HasPrefix(c.Name, prefix) {
				if err := verifyFD(joined, fkCol, i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func TestJoinProducesFDAndWidth(t *testing.T) {
	ss := buildCustomerStar(t)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatalf("NewJoinView: %v", err)
	}
	joined := Materialize(jv, "joined")
	// Fact width 3 + 2 dimension features.
	if joined.Schema().Width() != 5 {
		t.Fatalf("joined width = %d, want 5", joined.Schema().Width())
	}
	if joined.NumRows() != ss.Fact.NumRows() {
		t.Fatalf("KFK join must preserve fact cardinality: %d vs %d", joined.NumRows(), ss.Fact.NumRows())
	}
	if err := verifyKFKFDs(joined, ss); err != nil {
		t.Fatalf("FD FK→XR must hold in join output: %v", err)
	}
	// Spot-check one row: customer 1 has employer 1 → State=WI(1), Revenue=low(0).
	stateCol := joined.Schema().Index("Employers.State")
	revCol := joined.Schema().Index("Employers.Revenue")
	if stateCol < 0 || revCol < 0 {
		t.Fatalf("joined schema missing dimension columns: %v", joined.Schema().Names())
	}
	if state, rev := cell(joined, 1, stateCol), cell(joined, 1, revCol); state != 1 || rev != 0 {
		t.Fatalf("join lookup wrong: state=%d rev=%d", state, rev)
	}
}

func TestVerifyFDDetectsViolation(t *testing.T) {
	d2 := NewDomain("d", 2)
	tab := NewTable("t", MustSchema(
		Column{Name: "a", Kind: KindFeature, Domain: d2},
		Column{Name: "b", Kind: KindFeature, Domain: d2},
	), 3)
	tab.MustAppendRow([]Value{0, 0})
	tab.MustAppendRow([]Value{0, 1}) // a=0 maps to both 0 and 1
	if err := verifyFD(tab, 0, 1); err == nil {
		t.Fatal("expected FD violation")
	}
}

// Property: the KFK join always satisfies FK → dimension features, for
// randomly generated star schemas.
func TestJoinFDProperty(t *testing.T) {
	f := func(seed uint64, nRRaw, nSRaw uint8) bool {
		r := rng.New(seed)
		nR := int(nRRaw%20) + 2
		nS := int(nSRaw%50) + 4
		keyDom := NewDomain("RID", nR)
		featDom := NewDomain("xr", 3)
		dim := NewTable("R", MustSchema(
			Column{Name: "RID", Kind: KindPrimaryKey, Domain: keyDom},
			Column{Name: "XR1", Kind: KindFeature, Domain: featDom},
			Column{Name: "XR2", Kind: KindFeature, Domain: featDom},
		), nR)
		for i := 0; i < nR; i++ {
			dim.MustAppendRow([]Value{Value(i), Value(r.Intn(3)), Value(r.Intn(3))})
		}
		fact := NewTable("S", MustSchema(
			Column{Name: "Y", Kind: KindTarget, Domain: NewDomain("Y", 2)},
			Column{Name: "XS", Kind: KindFeature, Domain: featDom},
			Column{Name: "FK", Kind: KindForeignKey, Domain: keyDom, Refs: "R"},
		), nS)
		for i := 0; i < nS; i++ {
			fact.MustAppendRow([]Value{Value(r.Intn(2)), Value(r.Intn(3)), Value(r.Intn(nR))})
		}
		ss, err := NewStarSchema(fact, dim)
		if err != nil {
			return false
		}
		jv, err := NewJoinView(ss)
		if err != nil {
			return false
		}
		joined := Materialize(jv, "joined")
		return verifyKFKFDs(jv, ss) == nil && verifyKFKFDs(joined, ss) == nil && joined.NumRows() == nS
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitFractions(t *testing.T) {
	ss := buildCustomerStar(t)
	jv, err := NewJoinView(ss)
	if err != nil {
		t.Fatalf("NewJoinView: %v", err)
	}
	// Inflate to 100 rows for a meaningful split.
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i % jv.NumRows()
	}
	sv, err := NewSelectView(jv, idx)
	if err != nil {
		t.Fatal(err)
	}
	big := Materialize(sv, "big")
	sp, err := PaperSplit(big, rng.New(1))
	if err != nil {
		t.Fatalf("PaperSplit: %v", err)
	}
	if sp.Train.NumRows() != 50 || sp.Validation.NumRows() != 25 || sp.Test.NumRows() != 25 {
		t.Fatalf("split sizes %d/%d/%d, want 50/25/25",
			sp.Train.NumRows(), sp.Validation.NumRows(), sp.Test.NumRows())
	}
	// Determinism.
	sp2, _ := PaperSplit(big, rng.New(1))
	if !reflect.DeepEqual(copiedRows(sp.Train), copiedRows(sp2.Train)) {
		t.Fatal("split not deterministic")
	}
}

func TestSplitRejectsBadFractions(t *testing.T) {
	ss := buildCustomerStar(t)
	if _, err := SplitFractions(ss.Fact, 0.9, 0.2, rng.New(1)); err == nil {
		t.Fatal("expected fraction error")
	}
	if _, err := SplitFractions(ss.Fact, 0, 0.2, rng.New(1)); err == nil {
		t.Fatal("expected fraction error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ss := buildCustomerStar(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ss.Fact); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "Customers", ss.Fact.Schema())
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumRows() != ss.Fact.NumRows() {
		t.Fatalf("row count %d != %d", back.NumRows(), ss.Fact.NumRows())
	}
	for i := 0; i < back.NumRows(); i++ {
		for j := 0; j < back.Schema().Width(); j++ {
			if back.At(i, j) != ss.Fact.At(i, j) {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSVRejectsUnknownLabel(t *testing.T) {
	ss := buildCustomerStar(t)
	in := "Churn,Gender,Employer\nmaybe,F,0\n"
	if _, err := ReadCSV(strings.NewReader(in), "bad", ss.Fact.Schema()); err == nil {
		t.Fatal("expected unknown-label error")
	}
}

func TestCSVRejectsOutOfRangeInteger(t *testing.T) {
	// Employer is an unlabeled size-3 domain. 4294967297 is 1 modulo 2^32,
	// so a value narrowed to 32 bits before the domain check reads back as
	// the valid code 1.
	ss := buildCustomerStar(t)
	for _, v := range []string{"4294967297", "-4294967295", "3", "-1"} {
		in := "Churn,Gender,Employer\nno,F," + v + "\n"
		if _, err := ReadCSV(strings.NewReader(in), "bad", ss.Fact.Schema()); err == nil {
			t.Fatalf("Employer=%s: expected out-of-domain error", v)
		}
	}
}

func TestCSVRejectsHeaderMismatch(t *testing.T) {
	ss := buildCustomerStar(t)
	in := "A,B,C\n0,0,0\n"
	if _, err := ReadCSV(strings.NewReader(in), "bad", ss.Fact.Schema()); err == nil {
		t.Fatal("expected header error")
	}
}

func TestColumnsOfKindAndNames(t *testing.T) {
	ss := buildCustomerStar(t)
	fks := ss.Fact.Schema().ColumnsOfKind(KindForeignKey)
	if len(fks) != 1 || fks[0] != 2 {
		t.Fatalf("ColumnsOfKind(FK) = %v", fks)
	}
	if got := ss.Fact.Schema().FeatureNames(); len(got) != 1 || got[0] != "Gender" {
		t.Fatalf("FeatureNames = %v", got)
	}
	if ColumnKind(99).String() == "" {
		t.Fatal("String must not be empty for unknown kinds")
	}
}
