package serve

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
	"repro/internal/svm"
)

// star generates one of the paper's star schemas at a test-friendly scale.
func star(t testing.TB, name string, scale int) *relational.StarSchema {
	t.Helper()
	spec, err := dataset.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// joinAllDataset builds the JoinAll training dataset over the zero-copy
// join view of a star schema.
func joinAllDataset(t testing.TB, ss *relational.StarSchema) (*ml.Dataset, relational.Relation) {
	t.Helper()
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	targetCol := jv.Schema().ColumnsOfKind(relational.KindTarget)[0]
	ds, err := ml.ViewDataset(jv, targetCol, ml.JoinAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds, jv
}

// trainLinearFamily fits the three linear-family learners of the
// equivalence criterion on a JoinAll dataset.
func trainLinearFamily(t testing.TB, train *ml.Dataset) map[string]ml.Classifier {
	t.Helper()
	out := map[string]ml.Classifier{}

	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	out["naive-bayes"] = nbc

	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-3, Epochs: 3, Seed: 5})
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	out["logreg"] = lr

	s, err := svm.New(svm.Config{Kernel: svm.Linear, C: 1, Seed: 3, SubsampleCap: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Fit(train); err != nil {
		t.Fatal(err)
	}
	out["linear-svm"] = s
	return out
}

// TestFactorizedBitIdenticalToJoined is the tentpole equivalence test: for
// NB, logistic regression, and the linear SVM, on multiple generated star
// schemas (including one with an open-domain FK, exercising auxiliary
// inputs), the factorized score of every fact row is bit-identical to the
// gather path's score over the eagerly assembled joined row, and the
// predicted class matches the classifier's own Predict over the eagerly
// materialized joined dataset. The model additionally round-trips through
// the codec first, so the test pins the full train → save → load → serve
// pipeline.
//
// The score bit-identity holds by construction (both paths fold the same
// weights in the same grouped order). The Predict agreement is
// mathematically exact but fold-order-sensitive in the last ulp — the
// learner sums weights in its own order — so it could only diverge on a
// decision margin within rounding error of zero; with these fixed seeds
// the assertion is deterministic, and a failure after a scoring change
// means grouped and flat folds landed on opposite sides of zero for some
// row (i.e. a real knife-edge, not flakiness).
func TestFactorizedBitIdenticalToJoined(t *testing.T) {
	schemas := map[string]*relational.StarSchema{
		"Flights": star(t, "Flights", 512),
		"Yelp":    star(t, "Yelp", 2048),
		"Expedia": star(t, "Expedia", 8192), // Searches FK is open-domain
	}
	for schemaName, ss := range schemas {
		t.Run(schemaName, func(t *testing.T) {
			train, _ := joinAllDataset(t, ss)
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
			eagerX, _ := ml.ScanRowMajor(eager)
			k := eager.NumFeatures()
			for name, cls := range trainLinearFamily(t, train) {
				t.Run(name, func(t *testing.T) {
					m, err := model.New(cls, train.Features, nil)
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := model.Encode(&buf, m); err != nil {
						t.Fatal(err)
					}
					loaded, err := model.Decode(&buf)
					if err != nil {
						t.Fatal(err)
					}
					engine, err := NewEngine(loaded, ss)
					if err != nil {
						t.Fatal(err)
					}
					if !engine.Factorized() {
						t.Fatalf("%s did not produce a factorized engine", name)
					}
					served, _ := loaded.Classifier()

					n := ss.Fact.NumRows()
					req := make([]relational.Value, len(engine.InputFeatures()))
					for i := 0; i < n; i++ {
						engine.RequestFromFactRow(req, ss.Fact.Row(i))
						pf, err := engine.PredictFactorized(req)
						if err != nil {
							t.Fatal(err)
						}
						pj, err := engine.PredictJoined(req)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(pf.Score) != math.Float64bits(pj.Score) {
							t.Fatalf("row %d: factorized score %v != joined score %v", i, pf.Score, pj.Score)
						}
						if pf.Class != pj.Class {
							t.Fatalf("row %d: factorized class %d != joined class %d", i, pf.Class, pj.Class)
						}
						if want := served.Predict(eagerX[i*k : (i+1)*k]); pf.Class != want {
							t.Fatalf("row %d: factorized class %d != eager-join Predict %d", i, pf.Class, want)
						}
					}
				})
			}
		})
	}
}

// TestBatchMatchesSingle pins the morsel-parallel batch path to the
// sequential one, bit for bit, on both factorized and fallback engines.
func TestBatchMatchesSingle(t *testing.T) {
	ss := star(t, "Walmart", 2048)
	train, _ := joinAllDataset(t, ss)
	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := model.New(nbc, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	n := min(ss.Fact.NumRows(), 300)
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = engine.RequestFromFactRow(make([]relational.Value, len(engine.InputFeatures())), ss.Fact.Row(i))
	}
	batch, err := engine.PredictBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		p, err := engine.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if p != batch[i] {
			t.Fatalf("request %d: batch %+v != single %+v", i, batch[i], p)
		}
	}
}

// TestBatchMatchesSingleANN pins the batched-forward gather path (the MLP
// implements ml.BatchPredictor, so PredictBatch assembles rows and runs one
// GEMM forward) to the per-request Predict path, class for class.
func TestBatchMatchesSingleANN(t *testing.T) {
	ss := star(t, "Movies", 1024)
	train, _ := joinAllDataset(t, ss)
	mlp := ann.New(ann.Config{Hidden1: 8, Hidden2: 4, LearningRate: 1e-2, Epochs: 2, Seed: 5})
	if err := mlp.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := model.New(mlp, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Factorized() {
		t.Fatal("MLP must serve through the gather path")
	}
	n := min(ss.Fact.NumRows(), 200)
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = engine.RequestFromFactRow(make([]relational.Value, len(engine.InputFeatures())), ss.Fact.Row(i))
	}
	batch, err := engine.PredictBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		p, err := engine.Predict(req)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Class != p.Class {
			t.Fatalf("request %d: batch class %d != single class %d", i, batch[i].Class, p.Class)
		}
		if batch[i].Scored {
			t.Fatalf("request %d: MLP predictions must not carry scores", i)
		}
	}
}
