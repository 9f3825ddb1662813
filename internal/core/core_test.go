package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/svm"
	"repro/internal/tree"
)

// smallEnv generates a heavily scaled Walmart-shaped dataset for fast tests.
func smallEnv(t *testing.T) *Env {
	t.Helper()
	spec, err := dataset.SpecByName("Walmart")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, 256, 5)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(ss, 7)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestThresholds(t *testing.T) {
	if Threshold(FamilyLinear) != 20 || Threshold(FamilyRBFSVM) != 6 || Threshold(FamilyTreeANN) != 3 {
		t.Fatal("paper thresholds wrong")
	}
	if Threshold(Family(9)) != 20 {
		t.Fatal("fallback must be conservative")
	}
	if FamilyLinear.String() != "linear" || FamilyRBFSVM.String() != "rbf-svm" || FamilyTreeANN.String() != "tree/ann" {
		t.Fatal("family names wrong")
	}
	if Family(9).String() == "" {
		t.Fatal("unknown family must render")
	}
}

func TestAdviseRespectsThresholdsAndOpenFKs(t *testing.T) {
	// Yelp at scale 64: Businesses ratio ≈ 18.7 (unscaled tuple ratio,
	// advisor uses raw n_S/n_R = 2×Table-1), Users ≈ 4.9.
	spec, err := dataset.SpecByName("Yelp")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Trees tolerate ratio >= 3: both tables avoidable.
	treeAdvice, err := Advise(ss, FamilyTreeANN)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Advice{}
	for _, a := range treeAdvice {
		byName[a.Dimension] = a
	}
	if !byName["Businesses"].SafeToAvoid {
		t.Fatalf("Businesses (ratio %v) must be avoidable for trees", byName["Businesses"].TupleRatio)
	}
	if !byName["Users"].SafeToAvoid {
		t.Fatalf("Users (ratio %v ≈ 5) must be avoidable for trees (threshold 3)", byName["Users"].TupleRatio)
	}
	// Linear models need ratio >= 20: Users must NOT be avoidable.
	linAdvice, err := Advise(ss, FamilyLinear)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range linAdvice {
		if a.Dimension == "Users" && a.SafeToAvoid {
			t.Fatalf("Users ratio %v must not be avoidable for linear models", a.TupleRatio)
		}
	}
	// Open FKs are never avoidable regardless of ratio.
	espec, _ := dataset.SpecByName("Expedia")
	ess, err := dataset.Generate(espec, 256, 2)
	if err != nil {
		t.Fatal(err)
	}
	eAdvice, err := Advise(ess, FamilyTreeANN)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range eAdvice {
		if a.Dimension == "Searches" {
			if !a.OpenFK || a.SafeToAvoid {
				t.Fatalf("open-FK dimension must be flagged and not avoidable: %+v", a)
			}
		}
	}
}

func TestAdviseRejectsNoFKSchema(t *testing.T) {
	d2 := relational.NewDomain("Y", 2)
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: d2},
		relational.Column{Name: "x", Kind: relational.KindFeature, Domain: d2},
	), 4)
	for i := 0; i < 4; i++ {
		fact.MustAppendRow([]relational.Value{relational.Value(i % 2), relational.Value(i % 2)})
	}
	ss, err := relational.NewStarSchema(fact)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(ss, FamilyLinear); err == nil {
		t.Fatal("schema without FKs must error")
	}
}

func TestEnvSplitsAreDisjointSizes(t *testing.T) {
	env := smallEnv(t)
	n := env.Joined.NumRows()
	got := env.Split.Train.NumRows() + env.Split.Validation.NumRows() + env.Split.Test.NumRows()
	if got != n {
		t.Fatalf("splits cover %d of %d rows", got, n)
	}
	frac := float64(env.Split.Train.NumRows()) / float64(n)
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("train fraction %v, want 0.5", frac)
	}
}

func TestRunTreeOnAllViews(t *testing.T) {
	env := smallEnv(t)
	spec := TreeSpec(tree.Gini, EffortFast)
	for _, v := range []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK} {
		res, err := Run(env, v, spec, 11)
		if err != nil {
			t.Fatalf("view %v: %v", v, err)
		}
		if res.TestAcc < 0.5 || res.TestAcc > 1 {
			t.Fatalf("view %v: implausible accuracy %v", v, res.TestAcc)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("view %v: elapsed not measured", v)
		}
		if res.Model != "DecisionTree(gini)" {
			t.Fatalf("model name %q", res.Model)
		}
	}
}

func TestNoJoinTracksJoinAllOnHighTupleRatioData(t *testing.T) {
	// Walmart: both dims have high tuple ratios → tree NoJoin ≈ JoinAll.
	env := smallEnv(t)
	spec := TreeSpec(tree.Gini, EffortFast)
	ja, err := Run(env, ml.JoinAll, spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	nj, err := Run(env, ml.NoJoin, spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(ja.TestAcc - nj.TestAcc); diff > 0.03 {
		t.Fatalf("NoJoin %v must track JoinAll %v (diff %v)", nj.TestAcc, ja.TestAcc, diff)
	}
}

func TestRobustnessSweepShape(t *testing.T) {
	env := smallEnv(t)
	rows, err := RobustnessSweep(env, TreeSpec(tree.Gini, EffortFast), 17)
	if err != nil {
		t.Fatal(err)
	}
	// Walmart has q=2: JoinAll + 2 singles + NoJoin = 4 rows (no pairs).
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if len(rows[0].Omitted) != 0 {
		t.Fatal("first row must be the JoinAll baseline")
	}
	last := rows[len(rows)-1]
	if len(last.Omitted) != 2 {
		t.Fatalf("last row must omit all dimensions, got %v", last.Omitted)
	}
}

func TestRobustnessSweepPairsForThreeDims(t *testing.T) {
	spec, _ := dataset.SpecByName("Flights")
	ss, err := dataset.Generate(spec, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(ss, 19)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RobustnessSweep(env, TreeSpec(tree.Gini, EffortFast), 23)
	if err != nil {
		t.Fatal(err)
	}
	// q=3: 1 baseline + 3 singles + 3 pairs + 1 NoJoin = 8.
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(rows))
	}
}

func TestRuntimeStudy(t *testing.T) {
	env := smallEnv(t)
	rc, err := RuntimeStudy(env, TreeSpec(tree.Gini, EffortFast), 29)
	if err != nil {
		t.Fatal(err)
	}
	if rc.JoinAll <= 0 || rc.NoJoin <= 0 {
		t.Fatal("durations must be positive")
	}
	if rc.Speedup() <= 0 {
		t.Fatal("speedup must be positive")
	}
	if (RuntimeComparison{}).Speedup() != 0 {
		t.Fatal("zero-duration speedup must be 0")
	}
}

func TestAllSpecsRoster(t *testing.T) {
	specs := AllSpecs(EffortFast, 200)
	if len(specs) != 10 {
		t.Fatalf("paper evaluates 10 classifiers, roster has %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
	}
	for _, want := range []string{
		"DecisionTree(gini)", "DecisionTree(information)", "DecisionTree(gain-ratio)",
		"1-NN", "SVM(linear)", "SVM(quadratic)", "SVM(rbf)",
		"ANN(MLP)", "NaiveBayes(BFS)", "LogisticRegression(L1)",
	} {
		if !names[want] {
			t.Fatalf("roster missing %q; has %v", want, names)
		}
	}
	if _, err := SpecByName("SVM(rbf)", EffortFast, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nope", EffortFast, 100); err == nil {
		t.Fatal("unknown spec must error")
	}
}

func TestEverySpecRunsEndToEnd(t *testing.T) {
	// Integration: every classifier in the roster completes a tuned run on
	// a tiny dataset and produces sane accuracies.
	spec, _ := dataset.SpecByName("Walmart")
	ss, err := dataset.Generate(spec, 1024, 31)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(ss, 37)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSpecs(EffortFast, 150) {
		res, err := Run(env, ml.NoJoin, s, 41)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.TestAcc < 0.3 || res.TestAcc > 1 {
			t.Fatalf("%s: implausible accuracy %v", s.Name, res.TestAcc)
		}
	}
}

func TestFullGridsMatchPaper(t *testing.T) {
	// The EffortFull grids must enumerate the paper's §3.2 axes exactly.
	tr := TreeSpec(tree.Gini, EffortFull)
	_ = tr
	grid := ml.NewGrid().Axis("minsplit", 1, 10, 100, 1000).Axis("cp", 1e-4, 1e-3, 0.01, 0.1, 0)
	if got := len(grid.Points()); got != 20 {
		t.Fatalf("tree grid = %d points, want 20", got)
	}
	svmGrid := ml.NewGrid().Axis("C", 0.1, 1, 10, 100, 1000).Axis("gamma", 1e-4, 1e-3, 0.01, 0.1, 1, 10)
	if got := len(svmGrid.Points()); got != 30 {
		t.Fatalf("svm grid = %d points, want 30", got)
	}
}

func TestRunOmitUnknownViewColumns(t *testing.T) {
	env := smallEnv(t)
	// Omitting every dimension on a dS=1 dataset still leaves home + FKs,
	// so this must succeed; but a NoJoin view omitting nothing more also
	// works. Exercise the error path with an impossible view: NoFK on a
	// schema where NoFK still has features won't error, so instead verify
	// RunOmit omits correctly by comparing accuracies.
	all := map[string]bool{"Stores": true, "Indicators": true}
	res, err := RunOmit(env, ml.JoinAll, all, TreeSpec(tree.Gini, EffortFast), 43)
	if err != nil {
		t.Fatal(err)
	}
	nj, err := Run(env, ml.NoJoin, TreeSpec(tree.Gini, EffortFast), 43)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc != nj.TestAcc {
		t.Fatalf("omitting all dims must equal NoJoin: %v vs %v", res.TestAcc, nj.TestAcc)
	}
}

func TestSVMSpecUsesSubsampleCap(t *testing.T) {
	// Just verify an RBF spec runs on a small env without error and within
	// the cap (indirect: it completes quickly).
	env := smallEnv(t)
	res, err := Run(env, ml.NoJoin, SVMSpec(svm.RBF, EffortFast, 120), 47)
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 0.3 {
		t.Fatalf("capped SVM accuracy %v implausible", res.TestAcc)
	}
}

func TestNewEnvDeterministicSplit(t *testing.T) {
	spec, _ := dataset.SpecByName("Books")
	ss, err := dataset.Generate(spec, 512, 53)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := NewEnv(ss, 59)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEnv(ss, 59)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Split.Train.At(0, 0) != e2.Split.Train.At(0, 0) {
		t.Fatal("env split not deterministic")
	}
	_ = rng.New(1) // keep import
}

// requireSameRuns runs every (spec, view) experiment cell on both envs and
// requires bit-identical accuracies and grid winners.
func requireSameRuns(t *testing.T, a, b *Env, specs []Spec, views ...ml.View) {
	t.Helper()
	for _, mspec := range specs {
		for _, v := range views {
			ares, err := Run(a, v, mspec, 11)
			if err != nil {
				t.Fatalf("%s/%v: %v", mspec.Name, v, err)
			}
			bres, err := Run(b, v, mspec, 11)
			if err != nil {
				t.Fatalf("%s/%v: %v", mspec.Name, v, err)
			}
			if ares.TestAcc != bres.TestAcc || ares.TrainAcc != bres.TrainAcc || ares.ValAcc != bres.ValAcc {
				t.Fatalf("%s/%v diverged: (test %v train %v val %v) vs (test %v train %v val %v)",
					mspec.Name, v, ares.TestAcc, ares.TrainAcc, ares.ValAcc,
					bres.TestAcc, bres.TrainAcc, bres.ValAcc)
			}
			for k, pv := range ares.BestPoint {
				if bres.BestPoint[k] != pv {
					t.Fatalf("%s/%v picked different grid points: %v vs %v",
						mspec.Name, v, ares.BestPoint, bres.BestPoint)
				}
			}
		}
	}
}

// walmartStar generates the Walmart schema at the given scale.
func walmartStar(t *testing.T, scale int) *relational.StarSchema {
	t.Helper()
	spec, err := dataset.SpecByName("Walmart")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, scale, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// newJoinViewEnv is the factorized zero-copy oracle every storage test
// compares the segmented Env against: the join stays a relational.JoinView
// over the row-major base tables, nothing is materialized, and each cell
// access resolves the FK indirection lazily. The split permutation depends
// only on seed and row count, so it matches NewEnv's.
func newJoinViewEnv(t *testing.T, ss *relational.StarSchema, seed uint64) *Env {
	t.Helper()
	joined, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	env, err := newEnvOver(ss, joined, seed)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// withSegmentDefaults sets SegmentDefaults for the rest of the test.
func withSegmentDefaults(t *testing.T, opts relational.SegmentOptions) {
	old := SegmentDefaults
	SegmentDefaults = opts
	t.Cleanup(func() { SegmentDefaults = old })
}

func TestFactorizedPipelineMatchesMaterialized(t *testing.T) {
	// Acceptance check for the zero-copy refactor: the JoinView +
	// view-backed-Dataset pipeline must produce bit-identical accuracies to
	// the materialized pipeline — same seeds, same split permutation, same
	// grid winner.
	ss := walmartStar(t, 256)
	lazy := newJoinViewEnv(t, ss, 7)
	eager, err := NewEnv(ss, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lazy.Joined.(*relational.JoinView); !ok {
		t.Fatalf("lazy env joined is %T, want *relational.JoinView", lazy.Joined)
	}
	if _, ok := eager.Joined.(*relational.SegmentedTable); !ok {
		t.Fatalf("eager env joined is %T, want *relational.SegmentedTable", eager.Joined)
	}
	requireSameRuns(t, lazy, eager, []Spec{TreeSpec(tree.Gini, EffortFast), OneNNSpec(), NaiveBayesBFSSpec()},
		ml.JoinAll, ml.NoJoin)
}

func TestPartialJoinSweep(t *testing.T) {
	env := smallEnv(t)
	pts, err := PartialJoinSweep(env, "Stores", TreeSpec(tree.Gini, EffortFast), 61)
	if err != nil {
		t.Fatal(err)
	}
	// Walmart's Stores table has 9 foreign features → 10 sweep points.
	if len(pts) != 10 {
		t.Fatalf("got %d sweep points, want 10", len(pts))
	}
	if pts[0].Kept != 0 || pts[9].Kept != 9 {
		t.Fatalf("endpoints wrong: %+v %+v", pts[0], pts[9])
	}
	for _, p := range pts {
		if p.TestAcc < 0.4 || p.TestAcc > 1 {
			t.Fatalf("kept=%d: implausible accuracy %v", p.Kept, p.TestAcc)
		}
		if len(p.Feature) != p.Kept {
			t.Fatalf("kept=%d but %d feature names recorded", p.Kept, len(p.Feature))
		}
	}
	if _, err := PartialJoinSweep(env, "Nope", TreeSpec(tree.Gini, EffortFast), 61); err == nil {
		t.Fatal("unknown dimension must error")
	}
}

func TestColumnarEngineMatchesRowEngine(t *testing.T) {
	// Acceptance check for the columnar storage engine: the same experiment
	// cells run against a multi-segment segmented env must produce
	// bit-identical accuracies and grid winners to the zero-copy JoinView
	// oracle — the two differ only in physical layout, never in cell values
	// or split permutation.
	ss := walmartStar(t, 256)
	withSegmentDefaults(t, relational.SegmentOptions{SegmentSize: 256})
	row := newJoinViewEnv(t, ss, 7)
	seg, err := NewEnvEngine(ss, 7, EngineSegmented)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := row.Joined.(*relational.JoinView); !ok {
		t.Fatalf("row env joined is %T, want *relational.JoinView", row.Joined)
	}
	if st, ok := seg.Joined.(*relational.SegmentedTable); !ok || st.NumSegments() < 2 {
		t.Fatalf("segmented env joined is %T, want a multi-segment *relational.SegmentedTable", seg.Joined)
	}
	requireSameRuns(t, row, seg, []Spec{TreeSpec(tree.Gini, EffortFast), NaiveBayesBFSSpec()}, ml.JoinAll, ml.NoJoin)
}

func TestColumnarIsDefaultEngine(t *testing.T) {
	// The Engine zero value and NewEnv select columnar storage: an
	// in-memory SegmentedTable of the default segment size, whatever
	// SegmentDefaults holds.
	if Engine(0) != EngineSegmented {
		t.Fatal("Engine zero value must be EngineSegmented")
	}
	ss := walmartStar(t, 512)
	withSegmentDefaults(t, relational.SegmentOptions{SegmentSize: 64, SpillDir: t.TempDir()})
	env, err := NewEnv(ss, 7)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := env.Joined.(*relational.SegmentedTable)
	if !ok {
		t.Fatalf("NewEnv joined is %T, want *relational.SegmentedTable", env.Joined)
	}
	if st.Spilled() || st.SegmentSize() != relational.DefaultSegmentSize {
		t.Fatalf("NewEnv table spilled=%v segsize=%d; want in-memory, %d rows per segment",
			st.Spilled(), st.SegmentSize(), relational.DefaultSegmentSize)
	}
}

// TestIterativeLearnersEngineEquivalence is the acceptance check for the
// columnar epoch paths: the three iterative learners (logreg SGD, SMO, the
// MLP) must produce bit-identical accuracies and grid winners on the
// JoinView oracle and the segmented env across the Flights/Yelp/Expedia schema shapes
// (three dims with pairs sweep, two closed FKs, an open FK).
func TestIterativeLearnersEngineEquivalence(t *testing.T) {
	for dsName, scale := range map[string]int{"Flights": 192, "Yelp": 320, "Expedia": 512} {
		spec, err := dataset.SpecByName(dsName)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := dataset.Generate(spec, scale, 5)
		if err != nil {
			t.Fatal(err)
		}
		row := newJoinViewEnv(t, ss, 7)
		seg, err := NewEnvEngine(ss, 7, EngineSegmented)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRuns(t, row, seg, []Spec{
			LogRegSpec(EffortFast),
			SVMSpec(svm.Linear, EffortFast, 120),
			ANNSpec(EffortFast),
		}, ml.JoinAll)
	}
}

// TestArtifactBytesIdenticalAcrossEngines is the end-to-end pin of the
// compute-kernel layer at the artifact boundary: the GEMM learners (ANN,
// SVM, logreg), Naive Bayes and the decision tree trained on the JoinView
// oracle and on the segmented env must export byte-identical model
// artifacts — the deterministic codec makes parameter bit-equality visible
// as byte equality, so any kernel-order divergence anywhere in the batched
// paths fails here.
func TestArtifactBytesIdenticalAcrossEngines(t *testing.T) {
	dspec, err := dataset.SpecByName("Movies")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(dspec, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	row := newJoinViewEnv(t, ss, 7)
	seg, err := NewEnvEngine(ss, 7, EngineSegmented)
	if err != nil {
		t.Fatal(err)
	}
	for _, specName := range []string{
		"ANN(MLP)", "SVM(rbf)", "LogisticRegression(L1)", "NaiveBayes(BFS)", "DecisionTree(gini)",
	} {
		spec, err := SpecByName(specName, EffortFast, 100)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(artifactBytes(t, row, spec), artifactBytes(t, seg, spec)) {
			t.Fatalf("%s: row- and segmented-trained artifacts differ", specName)
		}
	}
}

// artifactBytes trains spec's artifact on env and returns its encoding.
func artifactBytes(t *testing.T, env *Env, spec Spec) []byte {
	t.Helper()
	artifact, _, err := BuildArtifact(env, spec, 7, nil)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	var raw bytes.Buffer
	if err := model.Encode(&raw, artifact); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// TestTrainingIdenticalAcrossCoreCounts pins the determinism contract
// against the worker count: over 64-row segments the morsel fan-out groups
// segments differently per core count (segmentCuts), and the partial
// results must still reduce to byte-identical artifacts for every learner
// family at GOMAXPROCS 1 and 8.
func TestTrainingIdenticalAcrossCoreCounts(t *testing.T) {
	dspec, err := dataset.SpecByName("Movies")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(dspec, 512, 7)
	if err != nil {
		t.Fatal(err)
	}
	withSegmentDefaults(t, relational.SegmentOptions{SegmentSize: 64})
	env, err := NewEnvEngine(ss, 7, EngineSegmented)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, specName := range []string{
		"DecisionTree(gini)", "NaiveBayes(BFS)", "ANN(MLP)", "SVM(linear)", "SVM(quadratic)", "SVM(rbf)",
		"LogisticRegression(L1)",
	} {
		spec, err := SpecByName(specName, EffortFast, 100)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(1)
		one := artifactBytes(t, env, spec)
		runtime.GOMAXPROCS(8)
		eight := artifactBytes(t, env, spec)
		if !bytes.Equal(one, eight) {
			t.Fatalf("%s: artifacts trained at GOMAXPROCS 1 and 8 differ", specName)
		}
	}
}
