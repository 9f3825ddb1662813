package main

// metricDef is one catalog entry. BENCHMARK.json at the repository root
// lists the same names, units and directions; the smoke test keeps the two
// in step.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric (workload/metric) a per-layer
	// metric should move when that layer gets faster or slower.
	moves string
}

// endToEnd is what a user of the system sees. Every workload reports all
// six, measured with no timing wrappers inside the op. Times are process
// CPU time: the hypervisor of a shared machine steals a share of the wall
// time that moves from minute to minute, and the kernel leaves it out of
// CPU time.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "op_cpu_p50_us", unit: "us", better: "lower"},
	{name: "op_cpu_tail_us", unit: "us", better: "lower"},
	{name: "ops_per_cpu_s", unit: "1/s", better: "higher"},
	{name: "accuracy", unit: "ratio", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// familyLayers are the learner families a study round trains, keyed by the
// metric prefix; each reports train time, allocation and GC cycles.
var familyLayers = []string{"tree", "svm", "ann", "nb", "linear"}

// trainPhases are the training-phase spans obs.TrainPhases exports.
var trainPhases = []string{
	"tree_split", "gram_build", "smo_pass", "ann_epoch",
	"nb_count", "reduce", "logreg_epoch", "scan",
}

// perLayer is what the traced pass reports. Every workload emits every
// entry; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"wall.setup_s", "s", "lower", ""},
		{"wall.op_p50_us", "us", "lower", ""},
		{"wall.op_tail_us", "us", "lower", ""},
		{"wall.ops_per_s", "1/s", "higher", ""},
		{"host.steal_share", "ratio", "lower", "wall.op_p50_us"},
		{"relational.ingest_s", "s", "lower", "train/setup_s"},
		{"relational.materialize_s", "s", "lower", "train/setup_s"},
		{"relational.segcache_hits", "count", "lower", "train/op_cpu_p50_us"},
		{"relational.segcache_misses", "count", "lower", "train/op_cpu_p50_us"},
		{"relational.segcache_evictions", "count", "lower", "train/op_cpu_p50_us"},
		{"relational.segcache_faulted_mb", "MB", "lower", "train/op_cpu_p50_us"},
		{"relational.segcache_hit_ratio", "ratio", "higher", "train/op_cpu_p50_us"},
		{"core.view_splits_us", "us", "lower", "train/op_cpu_p50_us"},
		{"ml.accuracy_ms", "ms", "lower", "train/op_cpu_p50_us"},
	}
	for _, f := range familyLayers {
		defs = append(defs,
			metricDef{f + ".train_ms", "ms", "lower", "train/op_cpu_p50_us, train/op_cpu_tail_us"},
			metricDef{f + ".alloc_mb", "MB", "lower", "train/op_cpu_p50_us, train/op_cpu_tail_us"},
			metricDef{f + ".gc_cycles", "count", "lower", "train/op_cpu_p50_us, train/op_cpu_tail_us"},
		)
	}
	for _, p := range trainPhases {
		defs = append(defs, metricDef{"train.phase." + p + "_ms", "ms", "lower", "train/op_cpu_p50_us, train/op_cpu_tail_us"})
	}
	return append(defs,
		metricDef{"model.encode_ms", "ms", "lower", "train/op_cpu_p50_us"},
		metricDef{"model.save_ms", "ms", "lower", "train/op_cpu_p50_us"},
		metricDef{"model.artifact_kb", "kB", "lower", "train/op_cpu_p50_us"},
		metricDef{"model.decode_ms", "ms", "lower", "serve/setup_s"},
		metricDef{"serve.bind_ms", "ms", "lower", "serve/setup_s"},
		metricDef{"serve.score_p50_us", "us", "lower", "serve/op_cpu_p50_us"},
		metricDef{"serve.score_p99_us", "us", "lower", "serve/op_cpu_tail_us"},
		metricDef{"serve.transport_us", "us", "lower", "serve/op_cpu_p50_us, serve/op_cpu_tail_us"},
		metricDef{"serve.server_p50_us", "us", "lower", "serve/op_cpu_p50_us"},
		metricDef{"serve.loopback_us", "us", "lower", "serve/op_cpu_p50_us"},
		metricDef{"serve.coalescer_mean_batch", "count", "higher", "serve/op_cpu_p50_us, serve/op_cpu_tail_us"},
		metricDef{"serve.allocs_per_req", "count", "lower", "serve/op_cpu_p50_us, serve/op_cpu_tail_us"},
		metricDef{"serve.agreement", "ratio", "higher", "serve/accuracy"},
		metricDef{"loadgen.late_p99_us", "us", "lower", "serve/op_cpu_tail_us"},
		metricDef{"loadgen.inflight_cap", "count", "higher", "serve/ops_per_cpu_s"},
		metricDef{"unattributed_share", "ratio", "lower", "all/op_cpu_p50_us"},
		metricDef{"tracing_overhead_share", "ratio", "lower", "all/op_cpu_p50_us"},
		metricDef{"op_samples", "count", "higher", "all/op_cpu_tail_us"},
	)
}()

// zeroLayers sets every per-layer metric the workload has not measured to
// 0, so each traced run emits the full catalog.
func (r *report) zeroLayers() {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.metrics[m.name] = 0
		}
	}
}
