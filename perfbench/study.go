package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/relational"
)

// cell is one (spec, view) training job of a study op.
type cell struct {
	spec   core.Spec
	family string
	view   ml.View
}

// familyOf maps a spec name to its per-layer family prefix.
func familyOf(spec string) string {
	switch {
	case strings.HasPrefix(spec, "DecisionTree"):
		return "tree"
	case strings.HasPrefix(spec, "SVM"):
		return "svm"
	case strings.HasPrefix(spec, "ANN"):
		return "ann"
	case strings.HasPrefix(spec, "NaiveBayes"):
		return "nb"
	default:
		return "linear"
	}
}

func cellsOf(specs []core.Spec, views ...ml.View) []cell {
	var cells []cell
	for _, s := range specs {
		for _, v := range views {
			cells = append(cells, cell{spec: s, family: familyOf(s.Name), view: v})
		}
	}
	return cells
}

// tracer times consecutive layer calls of one op. When off it reads no
// clock, so an untraced op runs exactly the program's calls.
type tracer struct {
	on         bool
	last       time.Time
	vals       map[string]float64
	attributed time.Duration
}

func newTracer(on bool) *tracer { return &tracer{on: on, vals: map[string]float64{}} }

func (t *tracer) start() {
	if t.on {
		t.last = time.Now()
	}
}

// lap attributes the time since start (or the previous lap) to a layer
// metric, converted by unit; an empty name attributes without reporting.
func (t *tracer) lap(name string, unit func(time.Duration) float64) {
	if !t.on {
		return
	}
	now := time.Now()
	d := now.Sub(t.last)
	t.last = now
	t.attributed += d
	if name != "" {
		t.vals[name] += unit(d)
	}
}

// study is a prepared training workload: an env, its cells, and where the
// artifacts go.
type study struct {
	env   *core.Env
	cells []cell
	seed  uint64
	dir   string
}

// cellOut is one cell's checked output.
type cellOut struct {
	acc  float64
	path string
}

// countingWriter counts bytes written.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// round runs one study op: every cell through ViewSplits → Train →
// Accuracy → model.New → model.Save. With the tracer on it also times each
// call, the model encode, the allocation and GC cycles of each Train, and
// the training-phase span deltas.
func (s *study) round(t *tracer) ([]cellOut, error) {
	var phases0 map[string]obs.PhaseTotals
	if t.on {
		phases0 = obs.TrainPhases()
	}
	var m0, m1 runtime.MemStats
	outs := make([]cellOut, len(s.cells))
	for i, c := range s.cells {
		t.start()
		train, val, test, err := s.env.ViewSplits(c.view, nil)
		if err != nil {
			return nil, err
		}
		t.lap("core.view_splits_us", us)
		if t.on {
			runtime.ReadMemStats(&m0)
			t.start()
		}
		cls, _, _, err := c.spec.Train(train, val, s.seed)
		if err != nil {
			return nil, fmt.Errorf("%s/%v: %w", c.spec.Name, c.view, err)
		}
		t.lap(c.family+".train_ms", ms)
		if t.on {
			runtime.ReadMemStats(&m1)
			t.vals[c.family+".alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			t.vals[c.family+".gc_cycles"] += float64(m1.NumGC - m0.NumGC)
			t.start()
		}
		acc := ml.Accuracy(cls, test)
		t.lap("ml.accuracy_ms", ms)
		meta := map[string]string{core.MetaSpec: c.spec.Name, core.MetaView: c.view.String()}
		m, err := model.New(cls, train.Features, meta)
		if err != nil {
			return nil, err
		}
		t.lap("", nil)
		if t.on {
			var cw countingWriter
			if err := model.Encode(&cw, m); err != nil {
				return nil, err
			}
			t.lap("model.encode_ms", ms)
			t.vals["model.artifact_kb"] += float64(cw.n) / 1e3
		}
		path := filepath.Join(s.dir, fmt.Sprintf("cell%02d.model", i))
		if err := model.Save(path, m); err != nil {
			return nil, err
		}
		t.lap("model.save_ms", ms)
		outs[i] = cellOut{acc: acc, path: path}
	}
	if t.on {
		for phase, tot := range obs.TrainPhases() {
			t.vals["train.phase."+phase+"_ms"] += float64(tot.Ns-phases0[phase].Ns) / 1e6
		}
	}
	return outs, nil
}

// studyPart is one dataset of a training workload: its inputs, the env
// its cells train on, and the checks on their outputs.
type studyPart struct {
	dataset string
	scale   int
	cells   []cell
	// prepare runs once, untimed, after input generation; it may set
	// engine options and record reference outputs.
	prepare func(in *inputs) error
	// newEnv builds the env the cells train on; it is the timed
	// materialization step of set-up.
	newEnv func(ss *relational.StarSchema) (*core.Env, error)
	// check validates the part's outputs of one op beyond the accuracy
	// repeat check; misses is the part's segment-cache fault count.
	check func(env *core.Env, outs []cellOut, misses uint64) error
}

// runStudy measures a training workload: repeated set-up, one warm-up op
// that fixes the reference accuracies, then ops until the time is up. One
// op runs every part's cells in turn. A traced run alternates untraced and
// traced ops so the tracing overhead is measured in the same process.
func runStudy(cfg config, parts []studyPart) (*report, error) {
	rep := newReport()
	ins := make([]*inputs, len(parts))
	for i, p := range parts {
		in, err := generate(p.dataset, p.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		if p.prepare != nil {
			if err := p.prepare(in); err != nil {
				return nil, fmt.Errorf("prepare %s: %w", p.dataset, err)
			}
		}
		ins[i] = in
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	// Set-up is timed in process CPU seconds; its wall time is reported
	// with the traced pass.
	times := phaseTimes{}
	envs := make([]*core.Env, len(parts))
	closeEnvs := func() error {
		var first error
		for i, env := range envs {
			if env != nil {
				if err := env.Close(); err != nil && first == nil {
					first = err
				}
				envs[i] = nil
			}
		}
		return first
	}
	err := repeatSetup(cfg, func() error {
		var ingest, materialize time.Duration
		w0 := time.Now()
		for i, p := range parts {
			c0 := cpuTime()
			ss, err := ins[i].ingest()
			if err != nil {
				return fmt.Errorf("ingest %s: %w", p.dataset, err)
			}
			c1 := cpuTime()
			if envs[i], err = p.newEnv(ss); err != nil {
				return fmt.Errorf("materialize %s: %w", p.dataset, err)
			}
			ingest += c1 - c0
			materialize += cpuTime() - c1
		}
		times.add("relational.ingest_s", ingest)
		times.add("relational.materialize_s", materialize)
		times.add("setup_s", ingest+materialize)
		times.add("wall.setup_s", time.Since(w0))
		return nil
	}, closeEnvs)
	defer closeEnvs()
	if err != nil {
		return nil, err
	}
	for name, vs := range times {
		rep.set(name, median(vs))
	}
	rep.notef("setup: %d repetitions, median %.4f CPU s (ingest %.4f s, materialize %.4f s), %.4f wall s",
		len(times["setup_s"]), rep.metrics["setup_s"], rep.metrics["relational.ingest_s"],
		rep.metrics["relational.materialize_s"], rep.metrics["wall.setup_s"])

	studies := make([]*study, len(parts))
	for i, p := range parts {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("artifacts%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		studies[i] = &study{env: envs[i], cells: p.cells, seed: cfg.seed, dir: dir}
	}

	var ref []float64
	doOp := func(t *tracer) (wall, cpu time.Duration, ok bool) {
		rep.attempted++
		outs := make([][]cellOut, len(parts))
		misses := make([]uint64, len(parts))
		h0, m0, e0, f0 := segCounters()
		w0, c0 := time.Now(), cpuTime()
		var err error
		for i, s := range studies {
			_, pm0, _, _ := segCounters()
			if outs[i], err = s.round(t); err != nil {
				break
			}
			_, pm1, _, _ := segCounters()
			misses[i] = pm1 - pm0
		}
		cpu, wall = cpuTime()-c0, time.Since(w0)
		h1, m1, e1, f1 := segCounters()
		var all []cellOut
		for i, p := range parts {
			if err == nil && p.check != nil {
				err = p.check(envs[i], outs[i], misses[i])
			}
			all = append(all, outs[i]...)
		}
		if err == nil {
			err = checkAccuracies(&ref, all)
		}
		if err != nil {
			rep.failed++
			rep.mismatches++
			rep.notef("op %d failed: %v", rep.attempted, err)
			return wall, cpu, false
		}
		if t.on {
			t.vals["relational.segcache_hits"] = float64(h1 - h0)
			t.vals["relational.segcache_misses"] = float64(m1 - m0)
			t.vals["relational.segcache_evictions"] = float64(e1 - e0)
			t.vals["relational.segcache_faulted_mb"] = float64(f1-f0) / 1e6
			if h1-h0+m1-m0 > 0 {
				t.vals["relational.segcache_hit_ratio"] = float64(h1-h0) / float64(h1-h0+m1-m0)
			}
			t.vals["unattributed_share"] = (wall - t.attributed).Seconds() / wall.Seconds()
		}
		return wall, cpu, true
	}

	// Warm-up: fills caches and fixes the reference accuracies.
	doOp(newTracer(false))

	var cpuUs, wallUs, tracedCPUUs []float64
	layers := medianOf{}
	ok := 0
	var busyCPU, busyWall time.Duration
	minIter := minOps(cfg)
	if cfg.trace {
		minIter *= 2
	}
	deadline := time.Now().Add(cfg.duration(1))
	var rssMB []float64
	for i := 0; time.Now().Before(deadline) || i < minIter; i++ {
		traced := cfg.trace && i%2 == 1
		t := newTracer(traced)
		if err := clearPeakRSS(); err != nil {
			return nil, err
		}
		wall, cpu, good := doOp(t)
		if !good {
			continue
		}
		if traced {
			tracedCPUUs = append(tracedCPUUs, us(cpu))
			for k, v := range t.vals {
				layers.add(k, v)
			}
			continue
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		ok++
		busyCPU += cpu
		busyWall += wall
		cpuUs = append(cpuUs, us(cpu))
		wallUs = append(wallUs, us(wall))
		rssMB = append(rssMB, rss)
	}
	if len(cpuUs) == 0 {
		return nil, fmt.Errorf("no measured op succeeded")
	}
	summarize(cpuUs, ok, busyCPU).set(rep, "one op")
	// The peak of the whole run would be the largest of the ops' peaks,
	// which swings with where the collector happens to run; the median op
	// peak does not.
	rep.set("peak_rss_mb", median(rssMB))
	wallSummary(rep, wallUs, ok, busyWall)
	rep.notef("op wall time: p50 %.1f us (not gated)", rep.metrics["wall.op_p50_us"])
	var sum float64
	for _, a := range ref {
		sum += a
	}
	rep.set("accuracy", sum/float64(len(ref)))
	rep.notef("accuracy: mean held-out test accuracy over %d (spec, view) cells", len(ref))
	if cfg.trace {
		layers.setAll(rep)
		base := median(cpuUs)
		rep.set("tracing_overhead_share", (median(tracedCPUUs)-base)/base)
		rep.set("op_samples", float64(len(tracedCPUUs)))
		rep.notef("traced ops: %d (untraced baseline ops: %d)", len(tracedCPUUs), len(cpuUs))
		rep.zeroLayers()
	}
	return rep, nil
}

// minOps is the fewest measured ops a run takes even past its deadline,
// so the median and the traced/untraced comparison have support.
func minOps(cfg config) int {
	if cfg.tiny {
		return 1
	}
	return 3
}

// checkAccuracies requires every cell's accuracy to repeat exactly the
// first successful op's: training is deterministic for a fixed seed.
func checkAccuracies(ref *[]float64, outs []cellOut) error {
	if *ref == nil {
		for _, o := range outs {
			*ref = append(*ref, o.acc)
		}
		return nil
	}
	for i, o := range outs {
		if o.acc != (*ref)[i] {
			return fmt.Errorf("cell %d accuracy %v, reference %v", i, o.acc, (*ref)[i])
		}
	}
	return nil
}

// segCounters snapshots the process-wide segment-cache counters.
func segCounters() (hits, misses, evictions, faultedBytes uint64) {
	return relational.SegCacheHits.Value(), relational.SegCacheMisses.Value(),
		relational.SegCacheEvictions.Value(), relational.SegCacheFaultedBytes.Value()
}

// runTrain is the train workload. One op is the paper's study round on
// Flights in memory, then the tree and Naive Bayes on Movies read through
// the segment pager with a cache budget well under the heap file: the same
// learners with the pager's fault path doing most of the work.
func runTrain(cfg config) (*report, error) {
	var specs []core.Spec
	for _, s := range core.AllSpecs(core.EffortFast, 400) {
		if s.Name != "1-NN" { // O(n²) scoring; 12 s at scale 4
			specs = append(specs, s)
		}
	}
	scale := 16
	if cfg.tiny {
		scale = 256
	}
	spill, err := spillPart(cfg)
	if err != nil {
		return nil, err
	}
	return runStudy(cfg, []studyPart{{
		dataset: "Flights",
		scale:   scale,
		cells:   cellsOf(specs, ml.JoinAll, ml.NoJoin),
		newEnv: func(ss *relational.StarSchema) (*core.Env, error) {
			return core.NewEnv(ss, cfg.seed)
		},
	}, spill})
}

// spillPart is DecisionTree(gini) and NaiveBayes(BFS) on JoinAll of Movies,
// on the segmented engine with a spill directory and a cache budget of a
// sixth of the heap file. Its artifacts must equal the in-memory engine's.
func spillPart(cfg config) (studyPart, error) {
	var specs []core.Spec
	for _, name := range []string{"DecisionTree(gini)", "NaiveBayes(BFS)"} {
		s, err := core.SpecByName(name, core.EffortFast, 400)
		if err != nil {
			return studyPart{}, err
		}
		specs = append(specs, s)
	}
	cells := cellsOf(specs, ml.JoinAll)
	scale := 512
	if cfg.tiny {
		scale = 2048
	}
	spillDir := filepath.Join(cfg.workDir, "spill")
	var refs [][]byte
	return studyPart{
		dataset: "Movies",
		scale:   scale,
		cells:   cells,
		prepare: func(in *inputs) error {
			if err := os.MkdirAll(spillDir, 0o755); err != nil {
				return err
			}
			ss, err := in.ingest()
			if err != nil {
				return err
			}
			// Reference artifacts from the default in-memory engine.
			core.SegmentDefaults = relational.SegmentOptions{}
			memEnv, err := core.NewEnv(ss, cfg.seed)
			if err != nil {
				return err
			}
			refStudy := &study{env: memEnv, cells: cells, seed: cfg.seed, dir: cfg.workDir}
			outs, err := refStudy.round(newTracer(false))
			if err != nil {
				return err
			}
			for _, o := range outs {
				b, err := os.ReadFile(o.path)
				if err != nil {
					return err
				}
				refs = append(refs, b)
			}
			if err := memEnv.Close(); err != nil {
				return err
			}
			// Probe the heap-file size with nothing evicted, then budget
			// the cache at a sixth of it.
			core.SegmentDefaults = relational.SegmentOptions{SegmentSize: 64, SpillDir: spillDir}
			probe, err := core.NewEnvEngine(ss, cfg.seed, core.EngineSegmented)
			if err != nil {
				return err
			}
			heap, err := dirBytes(spillDir)
			if cerr := probe.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			core.SegmentDefaults.CacheBytes = heap / 6
			return nil
		},
		newEnv: func(ss *relational.StarSchema) (*core.Env, error) {
			return core.NewEnvEngine(ss, cfg.seed, core.EngineSegmented)
		},
		check: func(env *core.Env, outs []cellOut, misses uint64) error {
			st, ok := env.Joined.(*relational.SegmentedTable)
			if !ok || !st.Spilled() {
				return fmt.Errorf("joined table did not spill")
			}
			if misses == 0 {
				return fmt.Errorf("no segment faults: the cache budget held the whole table")
			}
			for i, o := range outs {
				b, err := os.ReadFile(o.path)
				if err != nil {
					return err
				}
				if !bytes.Equal(b, refs[i]) {
					return fmt.Errorf("%s artifact differs from the in-memory engine's", cells[i].spec.Name)
				}
			}
			return nil
		},
	}, nil
}
