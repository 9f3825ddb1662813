// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the same code path as the cmd/ binaries at a reduced
// scale (absolute numbers are not the target — the JoinAll/NoJoin/NoFK
// orderings and tuple-ratio crossovers are) and reports the key findings as
// benchmark metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Environment knobs (all optional): REPRO_SCALE (default 256),
// REPRO_RUNS (default 3), REPRO_SVMCAP (default 150).
package main

import (
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/tree"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return def
}

func benchOptions() experiments.Options {
	return experiments.Options{
		Scale:  envInt("REPRO_SCALE", 256),
		Effort: core.EffortFast,
		SVMCap: envInt("REPRO_SVMCAP", 150),
		Runs:   envInt("REPRO_RUNS", 3),
		Seed:   1,
		Out:    io.Discard,
	}
}

// BenchmarkTable1Stats regenerates the dataset statistics table.
func BenchmarkTable1Stats(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		stats, err := experiments.Table1(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(stats) != 7 {
			b.Fatal("expected 7 datasets")
		}
	}
}

// BenchmarkTable2Trees regenerates the trees + 1-NN accuracy table and
// reports the mean |JoinAll − NoJoin| gap for the gini tree — the paper's
// headline "< 1%" finding.
func BenchmarkTable2Trees(b *testing.B) {
	o := benchOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		gap = meanViewGap(cells, "DecisionTree(gini)")
	}
	b.ReportMetric(gap, "gini-join-gap")
}

// BenchmarkTable3Kernel regenerates the SVM/ANN/NB/LR accuracy table and
// reports the RBF-SVM JoinAll−NoJoin gap.
func BenchmarkTable3Kernel(b *testing.B) {
	o := benchOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Table3(o)
		if err != nil {
			b.Fatal(err)
		}
		gap = meanViewGap(cells, "SVM(rbf)")
	}
	b.ReportMetric(gap, "rbf-join-gap")
}

// meanViewGap averages JoinAll − NoJoin test accuracy over datasets for one
// model.
func meanViewGap(cells []experiments.AccuracyCell, model string) float64 {
	byDS := map[string]map[ml.View]float64{}
	for _, c := range cells {
		if c.Model != model {
			continue
		}
		if byDS[c.Dataset] == nil {
			byDS[c.Dataset] = map[ml.View]float64{}
		}
		byDS[c.Dataset][c.View] = c.TestAcc
	}
	sum, n := 0.0, 0
	for _, views := range byDS {
		sum += math.Abs(views[ml.JoinAll] - views[ml.NoJoin])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable4Robustness regenerates the dimension-dropping sweep.
func BenchmarkTable4Robustness(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatal("expected 7 datasets")
		}
	}
}

// BenchmarkTable5And6Training regenerates the training-accuracy companions.
func BenchmarkTable5And6Training(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		t2, err := experiments.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Table5(o, t2); err != nil {
			b.Fatal(err)
		}
		t3, err := experiments.Table3(o)
		if err != nil {
			b.Fatal(err)
		}
		if err := experiments.Table6(o, t3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Runtime regenerates the runtime study and reports the
// median NoJoin speedup across (model, dataset) pairs.
func BenchmarkFigure1Runtime(b *testing.B) {
	o := benchOptions()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(o)
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range rows {
			if s := r.Speedup(); s > 0 {
				sum += s
				n++
			}
		}
		speedup = sum / float64(n)
	}
	b.ReportMetric(speedup, "mean-nojoin-speedup")
}

// BenchmarkFigure2OneXr regenerates the six OneXr panels.
func BenchmarkFigure2OneXr(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure2(o, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 6 {
			b.Fatal("expected panels A-F")
		}
	}
}

// BenchmarkFigure3And4NetVariance regenerates the 1-NN / RBF-SVM nR sweeps
// with their net-variance series.
func BenchmarkFigure3And4NetVariance(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure3And4(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 2 {
			b.Fatal("expected 1-NN and RBF panels")
		}
	}
}

// BenchmarkFigure5Skew regenerates the FK-skew panels.
func BenchmarkFigure5Skew(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure5(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 4 {
			b.Fatal("expected panels A-D")
		}
	}
}

// BenchmarkFigure6XSXR regenerates the XSXR panels.
func BenchmarkFigure6XSXR(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure6(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 4 {
			b.Fatal("expected panels A-D")
		}
	}
}

// BenchmarkFigures7to9RepOneXr regenerates the RepOneXr sweeps for all
// three models.
func BenchmarkFigures7to9RepOneXr(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figures7to9(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 6 {
			b.Fatal("expected 3 figures × 2 tuple ratios")
		}
	}
}

// BenchmarkFigure10Compression regenerates the FK domain-compression study.
func BenchmarkFigure10Compression(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure10(o, []int{2, 5, 10, 25})
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 2 {
			b.Fatal("expected Flights and Yelp")
		}
	}
}

// BenchmarkFigure11Smoothing regenerates the FK smoothing study.
func BenchmarkFigure11Smoothing(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure11(o, []float64{0, 0.5, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		if len(panels) != 2 {
			b.Fatal("expected random and xr strategies")
		}
	}
}

// --- Factorized-execution benchmarks: materialized vs zero-copy join. ---

// benchJoinPipeline measures one JoinAll data-preparation pipeline — join,
// carve the JoinAll dataset, scan every example once through the access path
// — under the materialized (eager Join) or factorized (JoinView) execution
// mode. Beyond ns/op and testing's own allocs, it reports:
//
//	alloc-bytes/op — total heap bytes allocated per pipeline run
//	peak-live-bytes — heap live after building the pipeline (post-GC),
//	                  i.e. what the prepared dataset keeps resident
//
// both via runtime.ReadMemStats, so the memory win of the view path is
// visible in the bench trajectory.
func benchJoinPipeline(b *testing.B, lazy bool) {
	spec, err := dataset.SpecByName("Movies")
	if err != nil {
		b.Fatal(err)
	}
	ss, err := dataset.Generate(spec, envInt("REPRO_SCALE", 256), 3)
	if err != nil {
		b.Fatal(err)
	}
	baseline := liveBytes()
	var allocTotal, peakLive uint64
	var sink relational.Value
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m0, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		jv, err := relational.NewJoinView(ss)
		if err != nil {
			b.Fatal(err)
		}
		var joined relational.Relation = jv
		if !lazy {
			joined = relational.Materialize(jv, "joined")
		}
		ds, err := ml.ViewDataset(joined, ss.TargetCol, ml.JoinAll, nil)
		if err != nil {
			b.Fatal(err)
		}
		// The forced GC inside liveBytes would dominate ns/op; sample the
		// pipeline's resident size off the clock.
		b.StopTimer()
		if live := liveBytes(); live > baseline && live-baseline > peakLive {
			peakLive = live - baseline
		}
		b.StartTimer()
		buf := make([]relational.Value, 256)
		for j := 0; j < ds.NumFeatures(); j++ {
			for from := 0; ; {
				m := ds.ScanFeature(buf, j, from)
				if m == 0 {
					break
				}
				for _, v := range buf[:m] {
					sink += v
				}
				from += m
			}
		}
		runtime.ReadMemStats(&m2)
		allocTotal += m2.TotalAlloc - m0.TotalAlloc
		runtime.KeepAlive(joined)
	}
	b.StopTimer()
	_ = sink
	b.ReportMetric(float64(allocTotal)/float64(b.N), "alloc-bytes/op")
	b.ReportMetric(float64(peakLive), "peak-live-bytes")
}

// liveBytes forces a collection and returns the live heap size.
func liveBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkJoinMaterialized is the historical eager pipeline: the joined
// table exists physically before any dataset is carved from it.
func BenchmarkJoinMaterialized(b *testing.B) { benchJoinPipeline(b, false) }

// BenchmarkJoinView is the factorized pipeline: the join stays virtual and
// every access resolves through the FK indirection.
func BenchmarkJoinView(b *testing.B) { benchJoinPipeline(b, true) }

// --- Learner benchmarks: one Fit on the segmented engine. ---

// benchTrainSplit prepares the Movies JoinAll training split on the
// segmented engine. Env construction (including the one-time join
// materialization) is setup, not measurement: the paper's pipelines tune
// hyper-parameters with grid search, so one prepared split is trained on
// many times.
func benchTrainSplit(b *testing.B) *ml.Dataset {
	b.Helper()
	train, _ := benchSplits(b)
	return train
}

// benchSplits is benchTrainSplit with the matching validation split.
func benchSplits(b *testing.B) (train, val *ml.Dataset) {
	b.Helper()
	spec, err := dataset.SpecByName("Movies")
	if err != nil {
		b.Fatal(err)
	}
	ss, err := dataset.Generate(spec, envInt("REPRO_SCALE", 256), 3)
	if err != nil {
		b.Fatal(err)
	}
	env, err := core.NewEnvEngine(ss, 7, core.EngineSegmented)
	if err != nil {
		b.Fatal(err)
	}
	train, val, _, err = env.ViewSplits(ml.JoinAll, nil)
	if err != nil {
		b.Fatal(err)
	}
	return train, val
}

// BenchmarkSpecTrain measures one whole Spec.Train — the grid (or, for
// Naive Bayes, the backward selection) with its validation scoring — for
// the three learners whose model selection shares work across points. The
// SVM cap is perfbench train's. Not gated: it tracks model-selection cost
// next to the single-fit benches above.
func BenchmarkSpecTrain(b *testing.B) {
	train, val := benchSplits(b)
	for _, name := range []string{"SVM(rbf)", "DecisionTree(gini)", "NaiveBayes(BFS)"} {
		spec, err := core.SpecByName(name, core.EffortFast, 400)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := spec.Train(train, val, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNBFitColumnar measures one Naive Bayes Fit — the paper's
// cheapest learner, where data access dominates arithmetic: a label scan
// plus per-feature column scans.
func BenchmarkNBFitColumnar(b *testing.B) {
	train := benchTrainSplit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nb.New(nb.Config{})
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeSplitColumnar measures one decision-tree Fit — dominated by
// the per-node batched column-scan split search.
func BenchmarkTreeSplitColumnar(b *testing.B) {
	train := benchTrainSplit(b)
	cfg := tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tree.New(cfg)
		if err := tr.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogRegFitColumnar measures one logistic-regression Fit (30 SGD
// epochs): every feature is scanned once into the active-index matrix and
// the pass is amortized over all epochs.
func BenchmarkLogRegFitColumnar(b *testing.B) {
	train := benchTrainSplit(b)
	cfg := linear.LogRegConfig{Lambda: 1e-3, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := linear.NewLogReg(cfg)
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMFitColumnar measures one SMO Fit — batched column scans into
// the pinned row block, the morsel-parallel kernel-cache build, and the
// optimization loop.
func BenchmarkSVMFitColumnar(b *testing.B) {
	train := benchTrainSplit(b)
	cfg := svm.Config{
		Kernel:       svm.RBF,
		C:            10,
		Gamma:        0.1,
		SubsampleCap: envInt("REPRO_SVMCAP", 1024),
		Seed:         7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := svm.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkANNFitColumnar measures one MLP Fit (mini-batch sparse Adam) fed
// from the one-pass active-index matrix. Network sizes match the EffortFast
// grid so the bench measures data access against a realistic arithmetic
// load.
func BenchmarkANNFitColumnar(b *testing.B) {
	train := benchTrainSplit(b)
	cfg := ann.Config{
		Hidden1:      32,
		Hidden2:      16,
		LearningRate: 1e-2,
		Epochs:       10,
		Seed:         7,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ann.New(cfg)
		if err := m.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMKernelCacheGemm measures one n×n SVM Gram-matrix build at the
// SVMFit bench scale — the dominant arithmetic of a capped SMO fit: match
// counts as a blocked one-hot X·Xᵀ per i-block, kernel values from a
// (d+1)-entry LUT, i-blocks fanned across ml.ParallelFor.
func BenchmarkSVMKernelCacheGemm(b *testing.B) {
	train := benchTrainSplit(b)
	n := train.NumExamples()
	if cap := envInt("REPRO_SVMCAP", 1024); n > cap {
		perm := rng.New(7).Perm(n)
		train = train.Subset(perm[:cap])
		n = cap
	}
	block, _ := ml.ScanRowMajor(train)
	k, err := svm.NewKernel(svm.RBF, 0.1, train.NumFeatures())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float32, svm.GramLen(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.GramBlocked(dst, block, n)
	}
}

// benchServeEngine trains Naive Bayes on the Movies JoinAll view, binds a
// serving engine, and precomputes a request stream from the fact table —
// the shared setup of the serving-path pair.
func benchServeEngine(b *testing.B) (*serve.Engine, [][]relational.Value) {
	o := benchOptions()
	spec, err := dataset.SpecByName("Movies")
	if err != nil {
		b.Fatal(err)
	}
	ss, err := dataset.Generate(spec, o.Scale, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		b.Fatal(err)
	}
	targetCol := jv.Schema().ColumnsOfKind(relational.KindTarget)[0]
	train, err := ml.ViewDataset(jv, targetCol, ml.JoinAll, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := nb.New(nb.Config{})
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	artifact, err := model.New(m, train.Features, nil)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := serve.NewEngine(artifact, ss)
	if err != nil {
		b.Fatal(err)
	}
	n := ss.Fact.NumRows()
	if n > 1024 {
		n = 1024
	}
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = engine.RequestFromFactRow(make([]relational.Value, len(engine.InputFeatures())), ss.Fact.Row(i))
	}
	return engine, reqs
}

// BenchmarkServeFactorized measures one inference request on the factorized
// path: per-dimension partial-score lookups keyed by FK, no join, no
// per-request allocation.
func BenchmarkServeFactorized(b *testing.B) {
	engine, reqs := benchServeEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.PredictFactorized(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeJoined measures the same request stream with the join paid
// per request: gather the dimension rows, assemble the joined feature
// vector, score it.
func BenchmarkServeJoined(b *testing.B) {
	engine, reqs := benchServeEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.PredictJoined(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeEngineANN binds an MLP artifact to the Movies schema — a
// gather-path model whose per-request forward pass allocates both hidden
// layers — plus a request stream.
func benchServeEngineANN(b *testing.B) (*serve.Engine, [][]relational.Value) {
	o := benchOptions()
	spec, err := dataset.SpecByName("Movies")
	if err != nil {
		b.Fatal(err)
	}
	ss, err := dataset.Generate(spec, o.Scale, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		b.Fatal(err)
	}
	targetCol := jv.Schema().ColumnsOfKind(relational.KindTarget)[0]
	train, err := ml.ViewDataset(jv, targetCol, ml.JoinAll, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := ann.New(ann.Config{Hidden1: 32, Hidden2: 16, LearningRate: 1e-2, Epochs: 2, Seed: 7})
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	artifact, err := model.New(m, train.Features, nil)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := serve.NewEngine(artifact, ss)
	if err != nil {
		b.Fatal(err)
	}
	n := min(ss.Fact.NumRows(), 1024)
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = engine.RequestFromFactRow(make([]relational.Value, len(engine.InputFeatures())), ss.Fact.Row(i))
	}
	return engine, reqs
}

// BenchmarkServeBatchScalar scores one full request stream against the MLP
// artifact through the per-request API — join gather plus one scalar forward
// pass (which allocates both hidden layers) per request, the cost a client
// pays issuing single-prediction calls in a loop.
func BenchmarkServeBatchScalar(b *testing.B) {
	engine, reqs := benchServeEngineANN(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if _, err := engine.PredictJoined(req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeBatchGemm scores the same stream through PredictBatch: the
// stream fans out in morsels across the worker pool, and each request in a
// morsel is gathered and scored by the MLP's own Predict, so the answers are
// Predict's bit for bit. It measures that morsel fan-out of gather plus
// Predict; the name (and its gated baseline) is kept from when the batch
// path ended in a GEMM forward pass.
func BenchmarkServeBatchGemm(b *testing.B) {
	engine, reqs := benchServeEngineANN(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.PredictBatch(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeEngineANNWide binds a first-layer-dominant MLP (wide hidden
// layer over the feature-rich Yelp schema, narrow tail): per-request cost is
// dominated by the gather and the z1 fold, while the dense tail stays small.
// BenchmarkServeConcurrentScalar measures this shape.
func benchServeEngineANNWide(b *testing.B) (*serve.Engine, [][]relational.Value) {
	o := benchOptions()
	spec, err := dataset.SpecByName("Yelp")
	if err != nil {
		b.Fatal(err)
	}
	ss, err := dataset.Generate(spec, o.Scale, o.Seed)
	if err != nil {
		b.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		b.Fatal(err)
	}
	targetCol := jv.Schema().ColumnsOfKind(relational.KindTarget)[0]
	train, err := ml.ViewDataset(jv, targetCol, ml.JoinAll, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := ann.New(ann.Config{Hidden1: 128, Hidden2: 4, LearningRate: 1e-2, Epochs: 1, Seed: 7})
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	artifact, err := model.New(m, train.Features, nil)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := serve.NewEngine(artifact, ss)
	if err != nil {
		b.Fatal(err)
	}
	n := min(ss.Fact.NumRows(), 1024)
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = engine.RequestFromFactRow(make([]relational.Value, len(engine.InputFeatures())), ss.Fact.Row(i))
	}
	return engine, reqs
}

// serveConcurrency is the client parallelism of the ServeConcurrent trio,
// matching the load-harness default.
const serveConcurrency = 64

// setServeParallelism makes RunParallel drive serveConcurrency goroutines
// regardless of GOMAXPROCS (SetParallelism is a multiplier over procs).
func setServeParallelism(b *testing.B) {
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((serveConcurrency + procs - 1) / procs)
}

// BenchmarkServeConcurrentScalar is the gather path under concurrency:
// clients issuing independent per-request predictions against the MLP
// artifact, each paying the join gather plus a scalar forward pass (which
// allocates both hidden layers per call).
func BenchmarkServeConcurrentScalar(b *testing.B) {
	engine, reqs := benchServeEngineANNWide(b)
	var ctr atomic.Int64
	setServeParallelism(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 31
		for pb.Next() {
			if _, err := engine.PredictJoined(reqs[i%len(reqs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkServeConcurrentFactorized drives the same concurrency at the
// linear artifact through the full slot path (snapshot resolve +
// Engine.Predict's factorized score). The gate pins it at 0 allocs/op: the
// whole serving stack on the factorized path is allocation-free, not just
// the score.
func BenchmarkServeConcurrentFactorized(b *testing.B) {
	engine, reqs := benchServeEngine(b)
	reg := serve.NewRegistry()
	slot, err := reg.Register("m", engine)
	if err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Int64
	setServeParallelism(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 31
		for pb.Next() {
			if _, err := slot.Predict(reqs[i%len(reqs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkServeConcurrentHardened is the Factorized bench re-run through
// the hardened in-process entry: the same slot path plus the bounded
// admission gate and panic-to-error recovery every production request pays.
// The gate pins it at 0 allocs/op too — hardening the serving path must not
// cost the zero-alloc contract.
func BenchmarkServeConcurrentHardened(b *testing.B) {
	engine, reqs := benchServeEngine(b)
	reg := serve.NewRegistry()
	slot, err := reg.Register("m", engine)
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.NewRegistryServer(reg, serve.ServerConfig{MaxInflight: 4 * serveConcurrency})
	var ctr atomic.Int64
	setServeParallelism(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(ctr.Add(1)) * 31
		for pb.Next() {
			if _, err := srv.Predict(slot, reqs[i%len(reqs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- Segmented-engine benchmarks: constant-feature skipping + segment morsels. ---

// BenchmarkTreeSplitZoneSkip measures a tree fit over a segmented dataset
// padded with constant columns — the shape the constant-feature skip
// targets: the split search proves each constant feature irrelevant from
// the table's append-time [min, max] (ColumnRange) and never gathers it.
func BenchmarkTreeSplitZoneSkip(b *testing.B) {
	const n, nConst = 40000, 6
	cols := []relational.Column{
		{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		{Name: "FK", Kind: relational.KindForeignKey, Domain: relational.NewDomain("RID", 600), Refs: "R"},
		{Name: "a", Kind: relational.KindFeature, Domain: relational.NewDomain("a", 8)},
	}
	for k := 0; k < nConst; k++ {
		cols = append(cols, relational.Column{
			Name: "const" + strconv.Itoa(k), Kind: relational.KindFeature,
			Domain: relational.NewDomain("c"+strconv.Itoa(k), 512),
		})
	}
	st, err := relational.NewSegmentedTable("bench", relational.MustSchema(cols...), relational.SegmentOptions{})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(11)
	row := make([]relational.Value, len(cols))
	for i := 0; i < n; i++ {
		fk := relational.Value(r.Intn(600))
		a := relational.Value(r.Intn(8))
		row[0] = relational.Value((int(fk)/20 + int(a)) % 2)
		row[1], row[2] = fk, a
		for k := 0; k < nConst; k++ {
			row[3+k] = 300
		}
		st.MustAppendRow(row)
	}
	ds, err := ml.FromRelation(st, []int{1, 2, 3, 4, 5, 6, 7, 8}, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tree.New(cfg)
		if err := tr.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSegParScan pins the segment-per-morsel fan-out against the
// single-slab sequential scan it replaces: both sides fold the same column
// of the same cells into the same sum, the slab in one sequential pass, the
// segmented table as one ml.ParallelFor task per segment with the partial
// sums reduced in ascending segment order — the deterministic-reduction
// discipline every segmented training path follows, so the result is
// bit-identical while the wall clock scales with cores.
func benchSegParScan(b *testing.B, parallel bool) {
	const n, segSize = 1 << 20, 1 << 15
	schema := relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "x", Kind: relational.KindFeature, Domain: relational.NewDomain("x", 4096)},
	)
	st, err := relational.NewSegmentedTable("bench", schema, relational.SegmentOptions{SegmentSize: segSize})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(13)
	block := make([]relational.Value, 0, 2*segSize)
	for i := 0; i < n; i++ {
		block = append(block, relational.Value(r.Intn(2)), relational.Value(r.Intn(4096)))
		if len(block) == cap(block) {
			st.MustAppendRows(block)
			block = block[:0]
		}
	}
	// The slab is the same cells as one n-row segment: one contiguous
	// vector per column.
	ct, err := relational.MaterializeSegmented(st, "slab", relational.SegmentOptions{SegmentSize: n})
	if err != nil {
		b.Fatal(err)
	}
	want := int64(0)
	buf := make([]relational.Value, segSize)
	for from := 0; from < n; {
		m := ct.ScanColumn(1, from, buf)
		for _, v := range buf[:m] {
			want += int64(v)
		}
		from += m
	}
	numSegs := st.NumSegments()
	partial := make([]int64, numSegs)
	bufs := make([][]relational.Value, numSegs)
	for s := range bufs {
		lo, hi := st.SegmentRows(s)
		bufs[s] = make([]relational.Value, hi-lo)
	}
	// Level the heap state left behind by earlier benches in a long sweep —
	// both sides of the pair start from the same GC baseline.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		if parallel {
			ml.ParallelFor(numSegs, func(s int) {
				lo, _ := st.SegmentRows(s)
				buf := bufs[s]
				st.ScanColumn(1, lo, buf)
				var sum int64
				for _, v := range buf {
					sum += int64(v)
				}
				partial[s] = sum
			})
			for _, p := range partial {
				got += p
			}
		} else {
			for from := 0; from < n; {
				m := ct.ScanColumn(1, from, buf)
				for _, v := range buf[:m] {
					got += int64(v)
				}
				from += m
			}
		}
		if got != want {
			b.Fatalf("scan folded %d, want %d", got, want)
		}
	}
}

// BenchmarkSegParScanSlab scans the one-segment slab table sequentially.
func BenchmarkSegParScanSlab(b *testing.B) { benchSegParScan(b, false) }

// BenchmarkSegParScanSeg fans one scan task per segment and reduces the
// partial sums in segment order — bit-identical, core-scaled.
func BenchmarkSegParScanSeg(b *testing.B) { benchSegParScan(b, true) }

// --- Ablation benches for the main design decisions. ---

// BenchmarkAblationKernelMatchCount compares the match-count RBF kernel
// against an explicit one-hot dot-product implementation on identical rows.
func BenchmarkAblationKernelMatchCount(b *testing.B) {
	feats := make([]ml.Feature, 12)
	for i := range feats {
		feats[i] = ml.Feature{Name: "f", Cardinality: 64}
	}
	enc := ml.NewEncoder(feats)
	rowA := make([]int32, len(feats))
	rowB := make([]int32, len(feats))
	for i := range rowA {
		rowA[i] = int32(i * 5 % 64)
		rowB[i] = int32(i * 3 % 64)
	}
	k, err := svm.NewKernel(svm.RBF, 0.1, len(feats))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("match-count", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += k.Eval(rowA, rowB)
		}
		_ = sink
	})
	b.Run("explicit-one-hot", func(b *testing.B) {
		va := make([]float64, enc.Dims)
		vb := make([]float64, enc.Dims)
		for j, v := range rowA {
			va[enc.Index(j, v)] = 1
		}
		for j, v := range rowB {
			vb[enc.Index(j, v)] = 1
		}
		var sink float64
		for i := 0; i < b.N; i++ {
			sq := 0.0
			for d := 0; d < enc.Dims; d++ {
				diff := va[d] - vb[d]
				sq += diff * diff
			}
			sink += math.Exp(-0.1 * sq)
		}
		_ = sink
	})
}

// BenchmarkAblationTreeSplit measures tree fitting on a large-domain FK
// (the sort-based optimal binary partition) vs a small-domain feature set,
// isolating the cost of wide categorical splits.
func BenchmarkAblationTreeSplit(b *testing.B) {
	mk := func(card int) *ml.Dataset {
		var xs []relational.Value
		var ys []int8
		for i := 0; i < 4000; i++ {
			fk := int32(i % card)
			xs = append(xs, fk, int32(i%4))
			ys = append(ys, int8(fk%2))
		}
		ds := mustRows([]ml.Feature{
			{Name: "FK", Cardinality: card, IsFK: true},
			{Name: "x", Cardinality: 4},
		}, xs, ys)
		return ds
	}
	for _, card := range []int{16, 256, 2048} {
		ds := mk(card)
		b.Run("card="+strconv.Itoa(card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3})
				if err := tr.Fit(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPartialJoin measures the §5.2 partial-join trade-off
// sweep (the extension experiment): accuracy as foreign features are added
// back one at a time.
func BenchmarkAblationPartialJoin(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		curve, err := experiments.PartialJoinTradeoff(o, "Yelp")
		if err != nil {
			b.Fatal(err)
		}
		if len(curve.Points) < 2 {
			b.Fatal("trade-off curve too short")
		}
	}
}

// BenchmarkAblationParallelMonteCarlo measures the worker-pool Monte-Carlo
// harness throughput at the ambient GOMAXPROCS (runs are pre-split RNG
// streams, so the result is identical to a sequential execution).
func BenchmarkAblationParallelMonteCarlo(b *testing.B) {
	sc, err := sim.NewOneXr(500, 40, 4, 4, 0.1, 2, sim.Skew{}, 5)
	if err != nil {
		b.Fatal(err)
	}
	learner := sim.Learner{
		Name: "tree",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			tr := tree.New(tree.Config{Criterion: tree.Gini, MinSplit: 10, CP: 1e-3})
			return tr, tr.Fit(train)
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.MonteCarlo(sc, learner, 4, 7); err != nil {
			b.Fatal(err)
		}
	}
}
