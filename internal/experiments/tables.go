// Package experiments regenerates every table and figure of the paper's
// evaluation: Tables 1–6 (dataset statistics, holdout and training
// accuracies, the robustness sweep) and Figures 1–11 (runtimes, the
// simulation study, FK compression and smoothing). The cmd/ binaries and
// the repository's benchmarks are thin wrappers over this package, so the
// same code path backs both interactive runs and `go test -bench`.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/svm"
	"repro/internal/texttable"
	"repro/internal/tree"
)

// Options control the scale/effort of every experiment. Defaults reproduce
// the paper's shapes in minutes on one core; the paper-exact settings
// (Scale=1, EffortFull, Runs=100) are available but take much longer.
type Options struct {
	// Scale divides every dataset cardinality (default 64).
	Scale int
	// Effort selects reduced or paper-exact hyper-parameter grids.
	Effort core.Effort
	// SVMCap bounds SMO training-set size (default 400; 0 = unbounded).
	SVMCap int
	// Runs is the Monte-Carlo repetition count for simulations (default 10;
	// the paper uses 100).
	Runs int
	// Seed fixes all randomness.
	Seed uint64
	// Out receives the rendered tables (default discards).
	Out io.Writer
}

// withDefaults normalizes an Options value.
func (o Options) withDefaults() Options {
	if o.Scale < 1 {
		o.Scale = 64
	}
	if o.SVMCap == 0 {
		o.SVMCap = 400
	}
	if o.Runs < 1 {
		o.Runs = 10
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	return o
}

// envFor generates and prepares one dataset.
func envFor(name string, o Options) (*core.Env, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	ss, err := dataset.Generate(spec, o.Scale, o.Seed+hashName(name))
	if err != nil {
		return nil, err
	}
	return core.NewEnvEngine(ss, o.Seed^0x5ca1ab1e, core.EngineSegmented)
}

// hashName derives a stable per-dataset seed offset.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// DatasetNames lists the seven datasets in Table 1 order.
func DatasetNames() []string {
	names := make([]string, 0, 7)
	for _, s := range dataset.Specs() {
		names = append(names, s.Name)
	}
	return names
}

// Table1 prints the dataset statistics table and returns the stats.
func Table1(o Options) ([]dataset.Stats, error) {
	o = o.withDefaults()
	tab := texttable.New("Dataset", "(nS, dS)", "q", "(nR, dR)", "TupleRatio")
	var all []dataset.Stats
	for _, spec := range dataset.Specs() {
		ss, err := dataset.Generate(spec, o.Scale, o.Seed+hashName(spec.Name))
		if err != nil {
			return nil, err
		}
		st := dataset.Describe(spec.Name, ss)
		all = append(all, st)
		for i, d := range st.Dims {
			name, nsds, q := "", "", ""
			if i == 0 {
				name = st.Name
				nsds = fmt.Sprintf("(%d, %d)", st.NS, st.DS)
				q = fmt.Sprintf("%d", st.Q)
			}
			ratio := texttable.F2(d.TupleRatio)
			if d.Open {
				ratio = "N/A"
			}
			tab.Row(name, nsds, q, fmt.Sprintf("(%d, %d)", d.NR, d.DR), ratio)
		}
	}
	fmt.Fprintln(o.Out, "Table 1: dataset statistics (scaled by 1/"+fmt.Sprint(o.Scale)+")")
	if err := tab.Render(o.Out); err != nil {
		return nil, err
	}
	return all, nil
}

// AccuracyCell is one (dataset, model, view) accuracy pair.
type AccuracyCell struct {
	Dataset  string
	Model    string
	View     ml.View
	TestAcc  float64
	TrainAcc float64
}

// runRoster evaluates the given specs on every dataset under the given
// views, producing cells for Tables 2/3 (test) and 5/6 (train).
func runRoster(o Options, specs []core.Spec, views []ml.View) ([]AccuracyCell, error) {
	var cells []AccuracyCell
	for _, name := range DatasetNames() {
		env, err := envFor(name, o)
		if err != nil {
			return nil, err
		}
		for _, spec := range specs {
			for _, v := range views {
				res, err := core.Run(env, v, spec, o.Seed+7)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s/%s/%v: %w", name, spec.Name, v, err)
				}
				cells = append(cells, AccuracyCell{
					Dataset: name, Model: spec.Name, View: v,
					TestAcc: res.TestAcc, TrainAcc: res.TrainAcc,
				})
			}
		}
	}
	return cells, nil
}

// renderAccuracy prints one Tables-2/3-style block: rows = datasets,
// columns = model × view.
func renderAccuracy(o Options, title string, cells []AccuracyCell, train bool) error {
	// Column order: preserve first-appearance order of (model, view).
	type colKey struct {
		model string
		view  ml.View
	}
	var cols []colKey
	seen := map[colKey]bool{}
	values := map[string]map[colKey]float64{}
	var datasets []string
	for _, c := range cells {
		k := colKey{c.Model, c.View}
		if !seen[k] {
			seen[k] = true
			cols = append(cols, k)
		}
		if values[c.Dataset] == nil {
			values[c.Dataset] = map[colKey]float64{}
			datasets = append(datasets, c.Dataset)
		}
		if train {
			values[c.Dataset][k] = c.TrainAcc
		} else {
			values[c.Dataset][k] = c.TestAcc
		}
	}
	header := []string{"Dataset"}
	for _, k := range cols {
		header = append(header, shortModel(k.model)+"/"+k.view.String())
	}
	tab := texttable.New(header...)
	for _, d := range datasets {
		row := []interface{}{d}
		for _, k := range cols {
			row = append(row, texttable.F(values[d][k]))
		}
		tab.Row(row...)
	}
	fmt.Fprintln(o.Out, title)
	return tab.Render(o.Out)
}

// shortModel compresses model names for column headers.
func shortModel(name string) string {
	r := strings.NewReplacer(
		"DecisionTree", "DT",
		"LogisticRegression", "LR",
		"NaiveBayes", "NB",
		"information", "info",
		"gain-ratio", "gr",
		"quadratic", "quad",
	)
	return r.Replace(name)
}

// Table2 reproduces the decision trees + 1-NN holdout accuracy table.
// Returned cells also carry training accuracy (Table 5).
func Table2(o Options) ([]AccuracyCell, error) {
	o = o.withDefaults()
	specs := []core.Spec{
		core.TreeSpec(tree.Gini, o.Effort),
		core.TreeSpec(tree.InfoGain, o.Effort),
		core.TreeSpec(tree.GainRatio, o.Effort),
	}
	cells, err := runRoster(o, specs, []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK})
	if err != nil {
		return nil, err
	}
	knnCells, err := runRoster(o, []core.Spec{core.OneNNSpec()}, []ml.View{ml.JoinAll, ml.NoJoin})
	if err != nil {
		return nil, err
	}
	cells = append(cells, knnCells...)
	if err := renderAccuracy(o, "Table 2: holdout test accuracy (trees + 1-NN)", cells, false); err != nil {
		return nil, err
	}
	return cells, nil
}

// Table3 reproduces the SVM/ANN/NB/LR holdout accuracy table.
func Table3(o Options) ([]AccuracyCell, error) {
	o = o.withDefaults()
	specs := []core.Spec{
		core.SVMSpec(svm.Linear, o.Effort, o.SVMCap),
		core.SVMSpec(svm.Quadratic, o.Effort, o.SVMCap),
		core.SVMSpec(svm.RBF, o.Effort, o.SVMCap),
		core.ANNSpec(o.Effort),
		core.NaiveBayesBFSSpec(),
		core.LogRegSpec(o.Effort),
	}
	cells, err := runRoster(o, specs, []ml.View{ml.JoinAll, ml.NoJoin})
	if err != nil {
		return nil, err
	}
	if err := renderAccuracy(o, "Table 3: holdout test accuracy (SVMs, ANN, NB, LR)", cells, false); err != nil {
		return nil, err
	}
	return cells, nil
}

// Table4Row is one dataset's robustness sweep.
type Table4Row struct {
	Dataset string
	Rows    []core.RobustnessRow
}

// Table4 reproduces the robustness study: drop dimension tables one (and,
// for Flights, two) at a time with the gini decision tree.
func Table4(o Options) ([]Table4Row, error) {
	o = o.withDefaults()
	spec := core.TreeSpec(tree.Gini, o.Effort)
	var out []Table4Row
	tab := texttable.New("Dataset", "Omitted", "TestAcc")
	for _, name := range DatasetNames() {
		env, err := envFor(name, o)
		if err != nil {
			return nil, err
		}
		rows, err := core.RobustnessSweep(env, spec, o.Seed+11)
		if err != nil {
			return nil, err
		}
		out = append(out, Table4Row{Dataset: name, Rows: rows})
		for _, r := range rows {
			omitted := "(none: JoinAll)"
			if len(r.Omitted) == len(env.Star.DimensionNames()) {
				omitted = "(all: NoJoin)"
			} else if len(r.Omitted) > 0 {
				omitted = strings.Join(r.Omitted, "+")
			}
			tab.Row(name, omitted, texttable.F(r.TestAcc))
		}
	}
	fmt.Fprintln(o.Out, "Table 4: robustness to discarding dimension tables (gini tree)")
	if err := tab.Render(o.Out); err != nil {
		return nil, err
	}
	return out, nil
}

// Table5 renders the training-accuracy companion of Table 2 from its cells.
func Table5(o Options, cells []AccuracyCell) error {
	o = o.withDefaults()
	return renderAccuracy(o, "Table 5: training accuracy (trees + 1-NN)", cells, true)
}

// Table6 renders the training-accuracy companion of Table 3 from its cells.
func Table6(o Options, cells []AccuracyCell) error {
	o = o.withDefaults()
	return renderAccuracy(o, "Table 6: training accuracy (SVMs, ANN, NB, LR)", cells, true)
}

// Figure1Row is one (model, dataset) runtime comparison.
type Figure1Row struct {
	Dataset string
	core.RuntimeComparison
}

// Figure1 reproduces the end-to-end runtime study for the six model
// families the paper plots: gini tree, 1-NN, RBF-SVM, ANN, NB-BFS, LR-L1.
func Figure1(o Options) ([]Figure1Row, error) {
	o = o.withDefaults()
	specs := []core.Spec{
		core.TreeSpec(tree.Gini, o.Effort),
		core.OneNNSpec(),
		core.SVMSpec(svm.RBF, o.Effort, o.SVMCap),
		core.ANNSpec(o.Effort),
		core.NaiveBayesBFSSpec(),
		core.LogRegSpec(o.Effort),
	}
	var rows []Figure1Row
	tab := texttable.New("Model", "Dataset", "JoinAll", "NoJoin", "Speedup")
	for _, spec := range specs {
		for _, name := range DatasetNames() {
			env, err := envFor(name, o)
			if err != nil {
				return nil, err
			}
			rc, err := core.RuntimeStudy(env, spec, o.Seed+13)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure1Row{Dataset: name, RuntimeComparison: rc})
			tab.Row(spec.Name, name, rc.JoinAll, rc.NoJoin, texttable.F2(rc.Speedup())+"x")
		}
	}
	fmt.Fprintln(o.Out, "Figure 1: end-to-end runtimes (tune+train+test), JoinAll vs NoJoin")
	if err := tab.Render(o.Out); err != nil {
		return nil, err
	}
	return rows, nil
}
