package serve

import (
	"errors"
	"testing"

	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/relational"
	"repro/internal/tree"
)

// TestFallbackMatchesEagerPredict covers the gather path: a decision tree
// (no linear form) served through JoinView row assembly must predict
// exactly what the tree predicts on the eagerly joined dataset.
func TestFallbackMatchesEagerPredict(t *testing.T) {
	ss := star(t, "Movies", 4096)
	train, _ := joinAllDataset(t, ss)
	tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 4, CP: 1e-3})
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := model.New(tr, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Factorized() {
		t.Fatal("tree engine claims a factorized form")
	}
	if _, err := engine.PredictFactorized(make([]relational.Value, len(engine.InputFeatures()))); err == nil {
		t.Fatal("PredictFactorized on a tree engine did not error")
	}

	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	eagerJoined := relational.Materialize(jv, "joined")
	targetCol := eagerJoined.Schema().ColumnsOfKind(relational.KindTarget)[0]
	eager, err := ml.ViewDataset(eagerJoined, targetCol, ml.JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := make([]relational.Value, len(engine.InputFeatures()))
	rowBuf := make([]relational.Value, train.NumFeatures())
	for i := 0; i < ss.Fact.NumRows(); i++ {
		engine.RequestFromFactRow(req, ss.Fact.Row(i))
		p, err := engine.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.Predict(eager.RowInto(rowBuf, i)); p.Class != want {
			t.Fatalf("row %d: served class %d != eager Predict %d", i, p.Class, want)
		}
	}
}

// TestEngineRejectsMismatchedSchema pins the typed rejection when a model is
// bound to a star schema it was not trained on.
func TestEngineRejectsMismatchedSchema(t *testing.T) {
	ss := star(t, "Movies", 4096)
	other := star(t, "Flights", 1024)
	train, _ := joinAllDataset(t, ss)
	cls := &ml.ConstantClassifier{Class: 1}
	m, err := model.New(cls, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(m, ss); err != nil {
		t.Fatalf("matching schema rejected: %v", err)
	}
	_, err = NewEngine(m, other)
	var sme *model.SchemaMismatchError
	if !errors.As(err, &sme) {
		t.Fatalf("got %v, want *model.SchemaMismatchError", err)
	}

	// Same columns, resized domain: a model whose recorded cardinality
	// drifted from the live schema must be rejected too.
	resized := append([]ml.Feature(nil), train.Features...)
	resized[len(resized)-1].Cardinality++
	m2, err := model.New(cls, resized, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEngine(m2, ss)
	if !errors.As(err, &sme) {
		t.Fatalf("resized domain: got %v, want *model.SchemaMismatchError", err)
	}
}

// TestValidateRejectsBadRequests covers request-level validation.
func TestValidateRejectsBadRequests(t *testing.T) {
	ss := star(t, "Movies", 4096)
	train, _ := joinAllDataset(t, ss)
	m, err := model.New(&ml.ConstantClassifier{Class: 0}, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Validate(make([]relational.Value, 1)); err == nil {
		t.Fatal("short request accepted")
	}
	req := make([]relational.Value, len(engine.InputFeatures()))
	if err := engine.Validate(req); err != nil {
		t.Fatalf("zero request rejected: %v", err)
	}
	req[0] = relational.Value(engine.InputFeatures()[0].Cardinality)
	if err := engine.Validate(req); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	req[0] = -1
	if err := engine.Validate(req); err == nil {
		t.Fatal("negative value accepted")
	}
}

// TestOpenFKBecomesAuxInput: Expedia's Searches FK is open-domain — excluded
// from the model's features — yet its dimension columns are features, so the
// engine must demand the FK as an auxiliary input.
func TestOpenFKBecomesAuxInput(t *testing.T) {
	ss := star(t, "Expedia", 8192)
	train, _ := joinAllDataset(t, ss)
	for _, f := range train.Features {
		if f.Name == "FK_Searches" {
			t.Fatal("open FK leaked into the feature view")
		}
	}
	m, err := model.New(&ml.ConstantClassifier{Class: 1}, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	aux := 0
	for _, in := range engine.InputFeatures() {
		if in.Aux {
			aux++
			if in.Name != "FK_Searches" || in.Dim != "Searches" {
				t.Fatalf("unexpected aux input %+v", in)
			}
		}
	}
	if aux != 1 {
		t.Fatalf("got %d aux inputs, want 1", aux)
	}
}
