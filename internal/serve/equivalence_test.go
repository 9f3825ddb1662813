package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
	"repro/internal/svm"
	"repro/internal/tree"
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

// TestServedAnswersMatchPredict pins every serving entry to Engine.Predict,
// bit for bit, for the engines without a factorized form: the MLP, a tree and
// a quadratic-kernel SVM (the one that carries a score on the gather path).
// For every request, PredictBatch, Slot.Predict, Server.Predict, /predict and
// /predict_batch must each return Predict's class, scoredness and score bits.
func TestServedAnswersMatchPredict(t *testing.T) {
	ss := star(t, "Movies", 1024)
	train, _ := joinAllDataset(t, ss)
	net := ann.New(ann.Config{Hidden1: 8, Hidden2: 4, LearningRate: 1e-2, Epochs: 2, Seed: 5})
	if err := net.Fit(train); err != nil {
		t.Fatal(err)
	}
	tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 4, CP: 1e-3})
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	quad, err := svm.New(svm.Config{Kernel: svm.Quadratic, C: 1, Gamma: 0.1, Seed: 3, SubsampleCap: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := quad.Fit(train); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	srv := NewRegistryServer(reg, DefaultServerConfig())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, c := range []struct {
		name   string
		cls    ml.Classifier
		scored bool
	}{{"mlp", net, false}, {"tree", tr, false}, {"svm-quadratic", quad, true}} {
		t.Run(c.name, func(t *testing.T) {
			m, err := model.New(c.cls, train.Features, nil)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := NewEngine(m, ss)
			if err != nil {
				t.Fatal(err)
			}
			if engine.Factorized() {
				t.Fatalf("%s claims a factorized form", c.name)
			}
			slot, err := reg.Register(c.name, engine)
			if err != nil {
				t.Fatal(err)
			}
			n := min(ss.Fact.NumRows(), 200)
			reqs := make([][]relational.Value, n)
			inputs := make([]map[string]int32, n)
			want := make([]Prediction, n)
			ones := 0
			for i := range reqs {
				reqs[i] = engine.RequestFromFactRow(make([]relational.Value, len(engine.InputFeatures())), ss.Fact.Row(i))
				inputs[i] = inputObject(engine, ss.Fact.Row(i))
				if want[i], err = engine.Predict(reqs[i]); err != nil {
					t.Fatal(err)
				}
				if want[i].Scored != c.scored {
					t.Fatalf("request %d: Predict scored = %v, want %v", i, want[i].Scored, c.scored)
				}
				ones += int(want[i].Class)
			}
			if ones == 0 || ones == n {
				t.Fatalf("degenerate predictions (%d/%d positive): the test has no discriminating power", ones, n)
			}
			same := func(path string, i int, got Prediction) {
				t.Helper()
				w := want[i]
				if got.Class != w.Class || got.Scored != w.Scored || math.Float64bits(got.Score) != math.Float64bits(w.Score) {
					t.Fatalf("request %d: %s %+v != Predict %+v", i, path, got, w)
				}
			}

			batch, err := engine.PredictBatch(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				same("PredictBatch", i, batch[i])
				p, err := slot.Predict(req)
				if err != nil {
					t.Fatal(err)
				}
				same("Slot.Predict", i, p)
				if p, err = srv.Predict(slot, req); err != nil {
					t.Fatal(err)
				}
				same("Server.Predict", i, p)

				resp, body := postJSON(t, hs.URL+"/predict?model="+c.name, map[string]any{"input": inputs[i]})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("/predict %d: status %d: %s", i, resp.StatusCode, body)
				}
				var pr predictResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Fatal(err)
				}
				p = Prediction{Class: pr.Prediction, Scored: pr.Score != nil}
				if p.Scored {
					p.Score = *pr.Score
				}
				same("/predict", i, p)
			}

			resp, body := postJSON(t, hs.URL+"/predict_batch?model="+c.name, map[string]any{"inputs": inputs})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/predict_batch: status %d: %s", resp.StatusCode, body)
			}
			var br batchResponse
			if err := json.Unmarshal(body, &br); err != nil {
				t.Fatal(err)
			}
			if br.N != n || len(br.Predictions) != n || (c.scored && len(br.Scores) != n) || (!c.scored && br.Scores != nil) {
				t.Fatalf("/predict_batch: n=%d, %d predictions, %d scores for %d requests", br.N, len(br.Predictions), len(br.Scores), n)
			}
			for i := range reqs {
				p := Prediction{Class: br.Predictions[i], Scored: c.scored}
				if c.scored {
					p.Score = br.Scores[i]
				}
				same("/predict_batch", i, p)
			}
		})
	}
}
