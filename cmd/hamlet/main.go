// Command hamlet regenerates the paper's real-data experiments: Table 1
// (dataset statistics), Tables 2–3 (holdout test accuracy), Table 4
// (robustness to discarding dimension tables), Tables 5–6 (training
// accuracy), and Figure 1 (end-to-end runtimes).
//
// Usage:
//
//	hamlet -table 2 [-scale 64] [-effort fast|full] [-svmcap 400] [-seed 1] [-engine seg|row]
//	hamlet -figure 1
//	hamlet -all
//
// It is also the training half of the serving pipeline: -train tunes one
// classifier spec on a generated dataset's JoinAll view and persists the
// fitted model (internal/model artifact) for cmd/hamletd to serve, and
// -eval loads an artifact back and reports its holdout test accuracy:
//
//	hamlet -train -dataset Movies -spec "NaiveBayes(BFS)" -model m.bin [-scale 64 -seed 1]
//	hamlet -eval -model m.bin [-dataset Movies -scale 64 -seed 1]
//
// The default segmented engine (-engine seg) materializes the join into
// fixed-size columnar segments; -segsize tunes the partition and
// -spilldir/-cachebytes enable the out-of-core tier (segments on disk, LRU
// cache in memory); -engine row keeps the join a zero-copy view instead. Two
// artifacts can be compared ignoring provenance metadata — the CI proof that
// an out-of-core run trains bit-identically to an in-memory one:
//
//	hamlet -modeldiff other.bin -model m.bin
//
// -fsck walks every segment heap file in a spill directory offline and
// verifies magic, format version, payload length, CRC32C, and column
// structure — the same checks the pager runs on every fault-in — exiting
// non-zero on any corruption or orphaned temp file:
//
//	hamlet -fsck /tmp/spill
//
// -faults injects deterministic I/O faults (short reads, torn writes,
// ENOSPC, EIO, latency) into the segmented engine's spill path, for chaos
// testing that training either fails with a typed error or produces a
// bit-identical artifact — never silently wrong bytes:
//
//	hamlet -train ... -engine seg -spilldir d -faults "read:eio:nth=40"
//
// Scale divides every dataset cardinality so the whole study runs on one
// core; tuple ratios — the quantity the paper's findings depend on — are
// preserved at every scale.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hamlet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hamlet", flag.ContinueOnError)
	table := fs.Int("table", 0, "table to regenerate (1-6)")
	figure := fs.Int("figure", 0, "figure to regenerate (1)")
	all := fs.Bool("all", false, "regenerate every table and Figure 1")
	scale := fs.Int("scale", 64, "divide dataset cardinalities by this factor")
	effort := fs.String("effort", "fast", "hyper-parameter grids: fast or full (paper-exact)")
	svmCap := fs.Int("svmcap", 400, "SMO training-set cap (0 = unbounded)")
	seed := fs.Uint64("seed", 1, "random seed")
	engine := fs.String("engine", "seg", "storage engine for experiment data: seg (segmented columnar, the default) or row (zero-copy join view)")
	segSize := fs.Int("segsize", 0, "segmented engine: rows per segment (0 = default)")
	spillDir := fs.String("spilldir", "", "segmented engine: spill sealed segments to a heap file in this directory (out-of-core)")
	cacheBytes := fs.Int64("cachebytes", 0, "segmented engine: LRU cache budget in bytes for resident spilled segments (0 = never evict)")
	modelDiff := fs.String("modeldiff", "", "compare the -model artifact against this artifact ignoring metadata; exit nonzero when payloads differ")
	fsckDir := fs.String("fsck", "", "verify every segment heap file in this spill directory (checksums, headers, orphaned temps) and exit nonzero on corruption")
	faults := fs.String("faults", "", `inject I/O faults into the spill path, e.g. "read:eio:nth=40,write:enospc:every=9" (ops: open/read/write/sync/rename/close; kinds: eio/enospc/shortread/tornwrite/latency)`)
	csvOut := fs.String("csv", "", "also export accuracy cells (tables 2/3/5/6) as CSV to this path")
	jsonOut := fs.String("json", "", "also export accuracy cells as JSON to this path")
	serving := fs.Bool("serving", false, "run the serving study: factorized vs per-request-join inference timings")
	train := fs.Bool("train", false, "train -spec on -dataset's JoinAll view and save the model artifact to -model")
	eval := fs.Bool("eval", false, "load the -model artifact and report holdout test accuracy")
	modelPath := fs.String("model", "", "model artifact path (-train writes it, -eval reads it)")
	timings := fs.Bool("timings", false, "print per-phase training span totals (scan, gram_build, epochs, ...) after the run and embed them in -train artifact metadata")
	datasetName := fs.String("dataset", "", "dataset name for -train/-eval (see Table 1: Expedia, Movies, Yelp, Walmart, LastFM, Books, Flights)")
	specName := fs.String("spec", "NaiveBayes(BFS)", "classifier spec for -train (a Tables 2-3 model name)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	o := experiments.Options{
		Scale:  *scale,
		SVMCap: *svmCap,
		Seed:   *seed,
		Out:    os.Stdout,
	}
	switch *effort {
	case "fast":
		o.Effort = core.EffortFast
	case "full":
		o.Effort = core.EffortFull
	default:
		return fmt.Errorf("unknown effort %q (want fast or full)", *effort)
	}
	eng, err := core.ParseEngine(*engine)
	if err != nil {
		return err
	}
	o.Engine = eng
	core.SegmentDefaults = relational.SegmentOptions{
		SegmentSize: *segSize,
		SpillDir:    *spillDir,
		CacheBytes:  *cacheBytes,
	}
	if *faults != "" {
		rules, err := fault.ParseSpec(*faults)
		if err != nil {
			return err
		}
		inj := fault.NewInjector(fault.OS, int64(*seed), rules...)
		core.SegmentDefaults.FS = inj
		// The fired summary prints on every exit path — a chaos run that
		// never tripped its faults proved nothing, and the summary is how
		// the caller can tell.
		defer func() {
			fmt.Fprintf(o.Out, "fault injection: %s\n", inj.FiredString())
		}()
	}
	if *timings {
		core.EmbedTimings = true
		defer printTimings(o.Out)
	}

	export := func(cells []experiments.AccuracyCell) error {
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := report.WriteAccuracyCSV(f, cells); err != nil {
				return err
			}
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := report.WriteJSON(f, report.Bundle{Cells: cells}); err != nil {
				return err
			}
		}
		return nil
	}

	if *fsckDir != "" {
		return runFsck(*fsckDir, o.Out)
	}
	if *modelDiff != "" {
		return runModelDiff(*modelPath, *modelDiff, o)
	}
	if *train {
		return runTrain(*modelPath, *datasetName, *specName, o)
	}
	if *serving {
		_, err := experiments.ServingStudy(o)
		return err
	}
	if *eval {
		return runEval(*modelPath, *datasetName, o, explicit)
	}
	if *all {
		var allCells []experiments.AccuracyCell
		for _, t := range []int{1, 2, 3, 4, 5, 6} {
			cells, err := runTable(t, o)
			if err != nil {
				return err
			}
			allCells = append(allCells, cells...)
			fmt.Println()
		}
		if _, err := experiments.Figure1(o); err != nil {
			return err
		}
		return export(allCells)
	}
	if *table > 0 {
		cells, err := runTable(*table, o)
		if err != nil {
			return err
		}
		return export(cells)
	}
	if *figure == 1 {
		_, err := experiments.Figure1(o)
		return err
	}
	return fmt.Errorf("nothing to do: pass -table N, -figure 1, or -all")
}

// printTimings renders the process-wide training-phase span totals — how much
// wall time each phase (column scan, Gram build, epochs, count/reduce, split
// search) accumulated across every Fit this invocation ran.
func printTimings(w io.Writer) {
	phases := obs.TrainPhases()
	names := make([]string, 0, len(phases))
	for name, t := range phases {
		if t.Calls > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintln(w, "training phase timings:")
	for _, name := range names {
		t := phases[name]
		fmt.Fprintf(w, "  %-14s %12s  (%d calls, avg %s)\n",
			name, time.Duration(t.Ns), t.Calls, time.Duration(t.Ns/t.Calls))
	}
}

// runFsck verifies every segment heap file in dir and reports; any issue —
// bad magic, version or CRC mismatch, truncated blob, undecodable columns,
// orphaned temp file — makes the run exit non-zero.
func runFsck(dir string, w io.Writer) error {
	rep, err := relational.FsckDir(fault.OS, dir)
	if err != nil {
		return err
	}
	relational.WriteFsckReport(w, rep)
	if !rep.OK() {
		return fmt.Errorf("fsck: %d issue(s) in %s", len(rep.Issues), dir)
	}
	return nil
}

// runModelDiff compares two artifacts' payloads, ignoring metadata: the
// artifacts are loaded, their Meta maps (which record provenance — engine,
// dataset, seed — and legitimately differ between, say, an in-memory and an
// out-of-core training run) are stripped, and both are re-encoded through
// the deterministic codec. Identical bytes mean identical fitted models.
func runModelDiff(pathA, pathB string, o experiments.Options) error {
	if pathA == "" {
		return fmt.Errorf("-modeldiff requires -model <path> as the comparison base")
	}
	encode := func(path string) ([]byte, string, error) {
		m, err := model.Load(path)
		if err != nil {
			return nil, "", err
		}
		m.Meta = nil
		var buf bytes.Buffer
		if err := model.Encode(&buf, m); err != nil {
			return nil, "", err
		}
		return buf.Bytes(), m.Kind, nil
	}
	a, kindA, err := encode(pathA)
	if err != nil {
		return err
	}
	b, kindB, err := encode(pathB)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("artifacts differ: %s (%s, %d bytes) vs %s (%s, %d bytes)",
			pathA, kindA, len(a), pathB, kindB, len(b))
	}
	fmt.Fprintf(o.Out, "artifacts identical: %s == %s (%s, %d payload bytes)\n", pathA, pathB, kindA, len(a))
	return nil
}

// buildEnv generates a named dataset and prepares the experiment Env.
func buildEnv(name string, o experiments.Options) (*core.Env, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	ss, err := dataset.Generate(spec, o.Scale, o.Seed)
	if err != nil {
		return nil, err
	}
	return core.NewEnvEngine(ss, o.Seed, o.Engine)
}

// runTrain is the train half of the serving pipeline: tune the spec on the
// dataset's JoinAll view, report accuracies, and persist the artifact.
func runTrain(modelPath, datasetName, specName string, o experiments.Options) error {
	if modelPath == "" || datasetName == "" {
		return fmt.Errorf("-train requires -model <path> and -dataset <name>")
	}
	spec, err := core.SpecByName(specName, o.Effort, o.SVMCap)
	if err != nil {
		return err
	}
	env, err := buildEnv(datasetName, o)
	if err != nil {
		return err
	}
	defer env.Close()
	if st, ok := env.Joined.(*relational.SegmentedTable); ok {
		fmt.Fprintf(o.Out, "segmented join view: %d segments, spilled=%v\n", st.NumSegments(), st.Spilled())
	}
	m, res, err := core.BuildArtifact(env, spec, o.Seed, map[string]string{
		core.MetaDataset: datasetName,
		core.MetaScale:   strconv.Itoa(o.Scale),
		core.MetaEngine:  o.Engine.String(),
	})
	if err != nil {
		return err
	}
	if err := model.Save(modelPath, m); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "trained %s on %s (scale %d, seed %d): val %.4f, test %.4f\n",
		specName, datasetName, o.Scale, o.Seed, res.ValAcc, res.TestAcc)
	fmt.Fprintf(o.Out, "saved %s artifact (%s) to %s\n", m.Kind, m.Fingerprint().Short(), modelPath)
	return nil
}

// runEval loads an artifact and reports its holdout test accuracy on the
// regenerated dataset. Dataset, scale, and seed default from the artifact
// metadata — so `hamlet -eval -model m.bin` just works on a hamlet-trained
// model — but an explicitly passed flag always wins.
func runEval(modelPath, datasetName string, o experiments.Options, explicit map[string]bool) error {
	if modelPath == "" {
		return fmt.Errorf("-eval requires -model <path>")
	}
	m, err := model.Load(modelPath)
	if err != nil {
		return err
	}
	if datasetName == "" {
		datasetName = m.Meta[core.MetaDataset]
		if datasetName == "" {
			return fmt.Errorf("-eval: artifact has no dataset metadata; pass -dataset")
		}
	}
	if s := m.Meta[core.MetaScale]; s != "" && !explicit["scale"] {
		if v, err := strconv.Atoi(s); err == nil {
			o.Scale = v
		}
	}
	if s := m.Meta[core.MetaSeed]; s != "" && !explicit["seed"] {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			o.Seed = v
		}
	}
	env, err := buildEnv(datasetName, o)
	if err != nil {
		return err
	}
	defer env.Close()
	acc, err := core.EvalArtifact(env, m)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "%s (%s) on %s holdout test: %.4f\n", m.Kind, m.Fingerprint().Short(), datasetName, acc)
	return nil
}

// runTable renders one table and returns its accuracy cells where the table
// has them (Table 1's stats and Table 4's sweep rows export nothing).
func runTable(t int, o experiments.Options) ([]experiments.AccuracyCell, error) {
	switch t {
	case 1:
		_, err := experiments.Table1(o)
		return nil, err
	case 2:
		return experiments.Table2(o)
	case 3:
		return experiments.Table3(o)
	case 4:
		_, err := experiments.Table4(o)
		return nil, err
	case 5:
		cells, err := experiments.Table2(o)
		if err != nil {
			return nil, err
		}
		return cells, experiments.Table5(o, cells)
	case 6:
		cells, err := experiments.Table3(o)
		if err != nil {
			return nil, err
		}
		return cells, experiments.Table6(o, cells)
	default:
		return nil, fmt.Errorf("unknown table %d (want 1-6)", t)
	}
}
