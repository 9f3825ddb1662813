// Integration tests asserting the paper's headline claims end-to-end, at
// reduced scale. These are the "does the reproduction reproduce" checks;
// per-module behaviour is tested inside each internal package.
package main

import (
	"io"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/knn"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/tree"
)

// claimOptions is larger than unit-test scale but still seconds-fast.
func claimOptions() experiments.Options {
	return experiments.Options{
		Scale:  256,
		Effort: core.EffortFast,
		SVMCap: 150,
		Runs:   4,
		Seed:   7,
		Out:    io.Discard,
	}
}

// Claim 1 (§3.3): for the decision tree, the same set of joins is safe to
// avoid as for linear models — NoJoin tracks JoinAll within 1% on every
// dataset whose tuple ratios exceed the tree threshold.
func TestClaimTreeJoinsSafeToAvoid(t *testing.T) {
	o := claimOptions()
	cells, err := experiments.Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	byDS := map[string][2]float64{}
	for _, c := range cells {
		if c.Model != "DecisionTree(gini)" {
			continue
		}
		v := byDS[c.Dataset]
		switch c.View {
		case ml.JoinAll:
			v[0] = c.TestAcc
		case ml.NoJoin:
			v[1] = c.TestAcc
		}
		byDS[c.Dataset] = v
	}
	for ds, v := range byDS {
		if ds == "Yelp" {
			continue // tuple ratio 2.5 — the known exception
		}
		if gap := v[0] - v[1]; gap > 0.015 {
			t.Errorf("dataset %s: tree NoJoin %v lags JoinAll %v beyond 1%%", ds, v[1], v[0])
		}
	}
}

// Claim 2 (§3.3, Yelp): where the join is NOT safe to avoid, linear models
// lose much more accuracy than the decision tree.
func TestClaimLinearLosesMoreAtLowTupleRatio(t *testing.T) {
	o := claimOptions()
	spec, err := dataset.SpecByName("Yelp")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, o.Scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnv(ss, 11)
	if err != nil {
		t.Fatal(err)
	}
	gap := func(s core.Spec) float64 {
		ja, err := core.Run(env, ml.JoinAll, s, 13)
		if err != nil {
			t.Fatal(err)
		}
		nj, err := core.Run(env, ml.NoJoin, s, 13)
		if err != nil {
			t.Fatal(err)
		}
		return ja.TestAcc - nj.TestAcc
	}
	treeGap := gap(core.TreeSpec(tree.Gini, o.Effort))
	lrGap := gap(core.LogRegSpec(o.Effort))
	if lrGap < treeGap+0.02 {
		t.Fatalf("linear Yelp drop (%v) must exceed tree drop (%v) — the paper's key contrast", lrGap, treeGap)
	}
}

// Claim 3 (§4.1, Figure 2B): in the OneXr worst case, the tree's NoJoin
// error tracks JoinAll even at tuple ratio ≈ 3, where 1-NN has long since
// deviated.
func TestClaimSimulationThresholds(t *testing.T) {
	o := claimOptions()
	treeLearner := sim.Learner{
		Name: "tree",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3})
			return tr, tr.Fit(train)
		},
	}
	knnLearner := sim.Learner{
		Name: "1-NN",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			k := knn.New()
			return k, k.Fit(train)
		},
	}
	// Tuple ratio 1000/330 ≈ 3.
	sc, err := sim.NewOneXr(1000, 330, 4, 4, 0.1, 2, sim.Skew{}, 17)
	if err != nil {
		t.Fatal(err)
	}
	treeRes, err := sim.MonteCarlo(sc, treeLearner, o.Runs, 19)
	if err != nil {
		t.Fatal(err)
	}
	knnRes, err := sim.MonteCarlo(sc, knnLearner, o.Runs, 19)
	if err != nil {
		t.Fatal(err)
	}
	treeGap := treeRes.Views[ml.NoJoin].AvgTestError - treeRes.Views[ml.JoinAll].AvgTestError
	knnGap := knnRes.Views[ml.NoJoin].AvgTestError - knnRes.Views[ml.JoinAll].AvgTestError
	if math.Abs(treeGap) > 0.03 {
		t.Fatalf("tree gap at tuple ratio 3 should be tiny, got %v", treeGap)
	}
	if knnGap < 0.05 {
		t.Fatalf("1-NN should have deviated well before tuple ratio 3, gap %v", knnGap)
	}
}

// Claim 4 (§5, Figure 4): the RBF-SVM's NoJoin deviation at low tuple
// ratios is carried by net variance (extra overfitting), not bias.
func TestClaimNetVarianceExplainsRBFGap(t *testing.T) {
	o := claimOptions()
	svmLearner := sim.Learner{
		Name: "rbf",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			s, err := svm.New(svm.Config{Kernel: svm.RBF, C: 10, Gamma: 0.1, SubsampleCap: o.SVMCap, Seed: seed})
			if err != nil {
				return nil, err
			}
			return s, s.Fit(train)
		},
	}
	sc, err := sim.NewOneXr(1000, 330, 4, 4, 0.1, 2, sim.Skew{}, 23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.MonteCarlo(sc, svmLearner, 8, 29)
	if err != nil {
		t.Fatal(err)
	}
	joinVar := res.Views[ml.JoinAll].NetVariance
	noJoinVar := res.Views[ml.NoJoin].NetVariance
	if noJoinVar <= joinVar {
		t.Fatalf("NoJoin net variance (%v) must exceed JoinAll's (%v) at low tuple ratio", noJoinVar, joinVar)
	}
}

// Claim 5 (§3.3, Figure 1): avoiding the join speeds up the end-to-end
// pipeline; NB with backward selection benefits most.
func TestClaimNoJoinIsFaster(t *testing.T) {
	o := claimOptions()
	spec, err := dataset.SpecByName("Movies") // widest dimension tables
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, o.Scale, 31)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnv(ss, 37)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := core.RuntimeStudy(env, core.NaiveBayesBFSSpec(), 41)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Speedup() < 1.5 {
		t.Fatalf("NB-BFS NoJoin speedup %vx; expected well above 1.5x on wide dimensions", rc.Speedup())
	}
}

// Claim 6 (§6.2, Figure 11): X_R-based smoothing beats random reassignment
// when foreign features carry the signal.
func TestClaimXRSmoothingBeatsRandom(t *testing.T) {
	o := claimOptions()
	o.Runs = 6
	panels, err := experiments.Figure11(o, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	var randomErr, xrErr float64
	for _, p := range panels {
		switch p.Strategy {
		case "random":
			randomErr = p.Points[0].Errors[ml.NoJoin]
		case "xr":
			xrErr = p.Points[0].Errors[ml.NoJoin]
		}
	}
	if xrErr >= randomErr {
		t.Fatalf("X_R smoothing (%v) must beat random (%v) at gamma 0.5", xrErr, randomErr)
	}
}

// Claim 7: the logistic regression Decision scores and the LR overfitting
// mechanism line up — dropping the FK's domain below the linear threshold
// makes LR overfit where the tree stays calm (training-vs-test gap).
func TestClaimLinearOverfitsOnWideFK(t *testing.T) {
	gen := func(n int, seed uint64) *ml.Dataset {
		// 600-value FK, ratio ≈ 1.7: far below the linear threshold.
		r := rng.New(seed)
		const nR = 600
		var xs []relational.Value
		var ys []int8
		for i := 0; i < n; i++ {
			fk := r.Intn(nR)
			y := int8(fk % 2)
			if r.Bernoulli(0.25) {
				y = 1 - y
			}
			xs = append(xs, int32(fk))
			ys = append(ys, y)
		}
		return mustRows([]ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}, xs, ys)
	}
	train := gen(1000, 43)
	test := gen(4000, 47)
	lr := linear.NewLogReg(linear.LogRegConfig{Seed: 53})
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	overfit := ml.Accuracy(lr, train) - ml.Accuracy(lr, test)
	if overfit < 0.05 {
		t.Fatalf("LR should visibly overfit a ratio-1.7 FK: gap %v", overfit)
	}
}

// mustRows is ml.FromRows for test blocks that are valid by construction.
func mustRows(features []ml.Feature, x []relational.Value, y []int8) *ml.Dataset {
	d, err := ml.FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}
