package sim

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/tree"
)

// treeLearner is the gini decision tree with fixed mid-grid parameters,
// fast enough for unit tests.
func treeLearner() Learner {
	return Learner{
		Name: "tree-gini",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3})
			if err := tr.Fit(train); err != nil {
				return nil, err
			}
			return tr, nil
		},
	}
}

func TestOneXrValidation(t *testing.T) {
	if _, err := NewOneXr(4, 40, 4, 4, 0.1, 2, Skew{}, 1); err == nil {
		t.Fatal("nS too small must be rejected")
	}
	if _, err := NewOneXr(100, 40, 4, 4, 1.5, 2, Skew{}, 1); err == nil {
		t.Fatal("p outside [0,1] must be rejected")
	}
	if _, err := NewOneXr(100, 40, 4, 0, 0.1, 2, Skew{}, 1); err == nil {
		t.Fatal("dR < 1 must be rejected")
	}
}

func TestOneXrShapes(t *testing.T) {
	sc, err := NewOneXr(200, 20, 3, 4, 0.1, 2, Skew{}, 42)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := sc.Sample(rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// JoinAll: dS + 1 FK + dR features.
	if got := trial.Train[ml.JoinAll].NumFeatures(); got != 3+1+4 {
		t.Fatalf("JoinAll features = %d, want 8", got)
	}
	if got := trial.Train[ml.NoJoin].NumFeatures(); got != 3+1 {
		t.Fatalf("NoJoin features = %d, want 4", got)
	}
	if got := trial.Train[ml.NoFK].NumFeatures(); got != 3+4 {
		t.Fatalf("NoFK features = %d, want 7", got)
	}
	if trial.Train[ml.JoinAll].NumExamples() != 200 {
		t.Fatalf("train size %d", trial.Train[ml.JoinAll].NumExamples())
	}
	if trial.Val[ml.JoinAll].NumExamples() != 50 || trial.Test[ml.JoinAll].NumExamples() != 50 {
		t.Fatal("val/test must be nS/4 each")
	}
	if len(trial.BayesTest) != 50 {
		t.Fatal("BayesTest size wrong")
	}
}

func TestOneXrBayesConsistency(t *testing.T) {
	// With p = 0 the observed test labels must equal the Bayes labels.
	sc, err := NewOneXr(200, 20, 2, 2, 0, 2, Skew{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := sc.Sample(rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	_, labels := ml.ScanRowMajor(trial.Test[ml.JoinAll])
	for i, y := range labels {
		if y != trial.BayesTest[i] {
			t.Fatalf("noise-free labels must match Bayes at %d", i)
		}
	}
}

func TestOneXrNoiseRate(t *testing.T) {
	// With p = 0.2 about 20% of labels should disagree with Bayes.
	sc, err := NewOneXr(4000, 40, 2, 2, 0.2, 2, Skew{}, 11)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := sc.Sample(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	_, labels := ml.ScanRowMajor(trial.Test[ml.JoinAll])
	flips := 0
	for i, y := range labels {
		if y != trial.BayesTest[i] {
			flips++
		}
	}
	rate := float64(flips) / float64(len(labels))
	if math.Abs(rate-0.2) > 0.05 {
		t.Fatalf("noise rate %v, want ≈0.2", rate)
	}
}

func TestOneXrSkewSamplers(t *testing.T) {
	for _, skew := range []Skew{
		{Kind: SkewZipf, Param: 2},
		{Kind: SkewNeedle, Param: 0.5},
	} {
		sc, err := NewOneXr(400, 40, 2, 2, 0.1, 2, skew, 13)
		if err != nil {
			t.Fatal(err)
		}
		trial, err := sc.Sample(rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		// FK is the last NoJoin feature; check head value dominates.
		ds := trial.Train[ml.NoJoin]
		fkIdx := ds.NumFeatures() - 1
		counts := map[int]int{}
		fks := make([]relational.Value, ds.NumExamples())
		ds.ScanFeature(fks, fkIdx, 0)
		for _, v := range fks {
			counts[int(v)]++
		}
		if counts[0] < ds.NumExamples()/5 {
			t.Fatalf("%v skew head mass too small: %d/%d", skew.Kind, counts[0], ds.NumExamples())
		}
	}
}

func TestXSXRValidation(t *testing.T) {
	if _, err := NewXSXR(100, 10, 12, 12, 1); err == nil {
		t.Fatal("oversized TPT must be rejected")
	}
	if _, err := NewXSXR(4, 10, 2, 2, 1); err == nil {
		t.Fatal("tiny nS must be rejected")
	}
}

func TestXSXRNoiseFree(t *testing.T) {
	sc, err := NewXSXR(400, 20, 3, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := sc.Sample(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// H(Y|X) = 0: observed test labels equal Bayes labels.
	test := trial.Test[ml.JoinAll]
	_, labels := ml.ScanRowMajor(test)
	for i, y := range labels {
		if y != trial.BayesTest[i] {
			t.Fatalf("XSXR must be noise-free, mismatch at %d", i)
		}
	}
	if got := test.NumFeatures(); got != 3+1+3 {
		t.Fatalf("JoinAll width %d", got)
	}
}

func TestXSXRFDHolds(t *testing.T) {
	// Same FK always brings the same X_R: check on the joined training view.
	sc, err := NewXSXR(600, 15, 2, 3, 19)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := sc.Sample(rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	ds := trial.Train[ml.JoinAll]
	// Features: XS0 XS1 FK XR0 XR1 XR2 — FK at index 2.
	fkIdx := 2
	seen := map[int32][3]int32{}
	x, _ := ml.ScanRowMajor(ds)
	k := ds.NumFeatures()
	for i := 0; i < ds.NumExamples(); i++ {
		row := x[i*k : (i+1)*k]
		xr := [3]int32{row[3], row[4], row[5]}
		if prev, ok := seen[row[fkIdx]]; ok && prev != xr {
			t.Fatalf("FD FK→XR violated for FK=%d", row[fkIdx])
		}
		seen[row[fkIdx]] = xr
	}
}

func TestRepOneXrReplication(t *testing.T) {
	sc, err := NewRepOneXr(200, 20, 2, 5, 0.1, Skew{}, 23)
	if err != nil {
		t.Fatal(err)
	}
	trial, err := sc.Sample(rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	ds := trial.Train[ml.JoinAll]
	// Features: XS0 XS1 FK Xr XR1 XR2 XR3 XR4 — all XR equal Xr.
	x, _ := ml.ScanRowMajor(ds)
	k := ds.NumFeatures()
	for i := 0; i < ds.NumExamples(); i++ {
		row := x[i*k : (i+1)*k]
		xr := row[3]
		for j := 4; j < 8; j++ {
			if row[j] != xr {
				t.Fatalf("RepOneXr features must replicate Xr at row %d", i)
			}
		}
	}
	if sc.Name() != "RepOneXr" {
		t.Fatal("name wrong")
	}
}

func TestDecomposeValidation(t *testing.T) {
	if _, err := Decompose(nil, nil, nil); err == nil {
		t.Fatal("no runs must error")
	}
	if _, err := Decompose([][]int8{{}}, [][]int8{{}}, [][]int8{{}}); err == nil {
		t.Fatal("empty test set must error")
	}
	if _, err := Decompose([][]int8{{1, 0}}, [][]int8{{1}}, [][]int8{{1, 0}}); err == nil {
		t.Fatal("inconsistent sizes must error")
	}
}

func TestDecomposeHandExample(t *testing.T) {
	// 2 test points, 4 runs. Point 0: preds all 1, bayes 1 → bias 0, var 0.
	// Point 1: preds {1,1,1,0}, bayes 0 → main=1 ≠ 0: bias 1, var 0.25.
	preds := [][]int8{{1, 1}, {1, 1}, {1, 1}, {1, 0}}
	bayes := [][]int8{{1, 0}, {1, 0}, {1, 0}, {1, 0}}
	obs := bayes
	d, err := Decompose(preds, bayes, obs)
	if err != nil {
		t.Fatal(err)
	}
	if d.AvgBias != 0.5 {
		t.Fatalf("AvgBias %v, want 0.5", d.AvgBias)
	}
	if math.Abs(d.BiasedVar-0.125) > 1e-12 { // 0.25 variance on 1 of 2 points
		t.Fatalf("BiasedVar %v, want 0.125", d.BiasedVar)
	}
	if d.UnbiasedVar != 0 {
		t.Fatalf("UnbiasedVar %v, want 0", d.UnbiasedVar)
	}
	if math.Abs(d.NetVariance+0.125) > 1e-12 {
		t.Fatalf("NetVariance %v, want -0.125", d.NetVariance)
	}
	// Errors: point0 never wrong; point1 wrong in 3/4 runs → 3/8 overall.
	if math.Abs(d.AvgTestError-0.375) > 1e-12 {
		t.Fatalf("AvgTestError %v, want 0.375", d.AvgTestError)
	}
}

func TestMonteCarloTreeOneXr(t *testing.T) {
	// Integration: on OneXr at a healthy tuple ratio (1000/40 = 25), the
	// decision tree's NoJoin error must track JoinAll within 0.02 — the
	// paper's central simulation finding (§4.1, Figure 2).
	sc, err := NewOneXr(1000, 40, 4, 4, 0.1, 2, Skew{}, 31)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MonteCarlo(sc, treeLearner(), 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	join := res.Views[ml.JoinAll].AvgTestError
	noJoin := res.Views[ml.NoJoin].AvgTestError
	if math.Abs(join-noJoin) > 0.02 {
		t.Fatalf("NoJoin %v must track JoinAll %v", noJoin, join)
	}
	// Both should be near the Bayes error 0.1.
	if join > 0.2 || noJoin > 0.2 {
		t.Fatalf("errors too far above Bayes: %v %v", join, noJoin)
	}
	if res.Runs != 5 || res.Scenario != "OneXr" {
		t.Fatalf("metadata wrong: %+v", res)
	}
}

func TestSweep(t *testing.T) {
	pts, err := Sweep([]float64{20, 40}, func(nr float64) (Scenario, error) {
		return NewOneXr(300, int(nr), 2, 2, 0.1, 2, Skew{}, 37)
	}, treeLearner(), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Param != 20 || pts[1].Param != 40 {
		t.Fatalf("sweep points wrong: %+v", pts)
	}
}

func TestMonteCarloRejectsZeroRuns(t *testing.T) {
	sc, _ := NewOneXr(100, 10, 2, 2, 0.1, 2, Skew{}, 1)
	if _, err := MonteCarlo(sc, treeLearner(), 0, 1); err == nil {
		t.Fatal("zero runs must error")
	}
}

func TestSkewKindString(t *testing.T) {
	if SkewNone.String() != "uniform" || SkewZipf.String() != "zipf" || SkewNeedle.String() != "needle" {
		t.Fatal("skew names wrong")
	}
	if SkewKind(9).String() == "" {
		t.Fatal("unknown skew must render")
	}
}
