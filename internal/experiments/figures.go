package experiments

import (
	"fmt"

	"repro/internal/knn"
	"repro/internal/ml"
	"repro/internal/sim"
	"repro/internal/svm"
	"repro/internal/texttable"
	"repro/internal/tree"
)

// Simulation defaults from the paper's §4: (nS, nR, dS, dR, p) =
// (1000, 40, 4, 4, 0.1). SimScale (from Options.Scale relative to the
// default 64) is not applied to simulations — they are already laptop-sized
// — but Runs is.
const (
	defNS = 1000
	defNR = 40
	defDS = 4
	defDR = 4
	defP  = 0.1
)

// treeLearner returns the gini-tree simulation learner with a small tuned
// grid (minsplit × cp), matching the simulation study's use of the tree.
func treeLearner(effort int) sim.Learner {
	return sim.Learner{
		Name: "DecisionTree(gini)",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			grid := ml.NewGrid().Axis("minsplit", 1, 10, 100).Axis("cp", 1e-3, 0.01, 0)
			res, err := tree.GridSearch(grid, func(p ml.GridPoint) tree.Config {
				return tree.Config{Criterion: tree.Gini, MinSplit: int(p["minsplit"]), CP: p["cp"]}
			}, train, val)
			if err != nil {
				return nil, err
			}
			return res.Best, nil
		},
	}
}

// knnLearner returns the 1-NN simulation learner.
func knnLearner() sim.Learner {
	return sim.Learner{
		Name: "1-NN",
		Train: func(train, _ *ml.Dataset, _ uint64) (ml.Classifier, error) {
			k := knn.New()
			if err := k.Fit(train); err != nil {
				return nil, err
			}
			return k, nil
		},
	}
}

// svmLearner returns the RBF-SVM simulation learner with a small C×γ grid.
func svmLearner(cap int) sim.Learner {
	return sim.Learner{
		Name: "SVM(rbf)",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error) {
			grid := ml.NewGrid().Axis("C", 1, 100).Axis("gamma", 0.1, 1)
			res, err := svm.GridSearch(grid, func(p ml.GridPoint) svm.Config {
				return svm.Config{
					Kernel: svm.RBF, C: p["C"], Gamma: p["gamma"],
					SubsampleCap: cap, Seed: seed,
				}
			}, train, val)
			if err != nil {
				return nil, err
			}
			return res.Best, nil
		},
	}
}

// Panel is one figure panel: a swept parameter and its measured series.
type Panel struct {
	Figure  string
	Label   string
	XName   string
	Learner string
	Points  []sim.SweepPoint
}

// renderPanel prints a panel as the series the paper plots: average test
// error per view at each x value.
func renderPanel(o Options, p Panel) error {
	fmt.Fprintf(o.Out, "Figure %s (%s): %s sweep, learner=%s, runs=%d\n",
		p.Figure, p.Label, p.XName, p.Learner, o.Runs)
	tab := texttable.New(p.XName, "JoinAll", "NoJoin", "NoFK", "NetVar(JoinAll)", "NetVar(NoJoin)")
	for _, pt := range p.Points {
		tab.Row(pt.Param,
			texttable.F(pt.Views[ml.JoinAll].AvgTestError),
			texttable.F(pt.Views[ml.NoJoin].AvgTestError),
			texttable.F(pt.Views[ml.NoFK].AvgTestError),
			texttable.F(pt.Views[ml.JoinAll].NetVariance),
			texttable.F(pt.Views[ml.NoJoin].NetVariance),
		)
	}
	return tab.Render(o.Out)
}

// sweep wraps sim.Sweep with the package learner/seed conventions.
func sweep(o Options, params []float64, mk func(float64) (sim.Scenario, error), learner sim.Learner) ([]sim.SweepPoint, error) {
	return sim.Sweep(params, mk, learner, o.Runs, o.Seed+0xF16)
}

// Figure2 reproduces the six OneXr panels (A–F) for the gini tree.
// panels selects a subset by letter; nil runs all six.
func Figure2(o Options, panels []string) ([]Panel, error) {
	o = o.withDefaults()
	learner := treeLearner(0)
	run := map[string]bool{}
	for _, p := range panels {
		run[p] = true
	}
	all := len(panels) == 0
	var out []Panel

	add := func(label, xname string, params []float64, mk func(float64) (sim.Scenario, error)) error {
		if !all && !run[label] {
			return nil
		}
		pts, err := sweep(o, params, mk, learner)
		if err != nil {
			return err
		}
		p := Panel{Figure: "2", Label: label, XName: xname, Learner: learner.Name, Points: pts}
		out = append(out, p)
		return renderPanel(o, p)
	}

	if err := add("A", "nS", []float64{100, 500, 1000, 5000, 10000}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(int(x), defNR, defDS, defDR, defP, 2, sim.Skew{}, o.Seed+2)
	}); err != nil {
		return nil, err
	}
	if err := add("B", "nR", []float64{1 << 1, 1 << 3, 1 << 5, 1 << 7, 330, 1000}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, int(x), defDS, defDR, defP, 2, sim.Skew{}, o.Seed+3)
	}); err != nil {
		return nil, err
	}
	if err := add("C", "dS", []float64{1, 4, 7, 10}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, defNR, int(x), defDR, defP, 2, sim.Skew{}, o.Seed+4)
	}); err != nil {
		return nil, err
	}
	if err := add("D", "dR", []float64{1, 4, 7, 10}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, defNR, defDS, int(x), defP, 2, sim.Skew{}, o.Seed+5)
	}); err != nil {
		return nil, err
	}
	if err := add("E", "p", []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, defNR, defDS, defDR, x, 2, sim.Skew{}, o.Seed+6)
	}); err != nil {
		return nil, err
	}
	if err := add("F", "|DXr|", []float64{2, 10, 20, 40}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, defNR, defDS, defDR, defP, int(x), sim.Skew{}, o.Seed+7)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure3 reproduces the OneXr n_R sweep for 1-NN (A) and RBF-SVM (B); the
// net-variance columns of the same run are Figure 4.
func Figure3And4(o Options) ([]Panel, error) {
	o = o.withDefaults()
	params := []float64{2, 8, 32, 128, 330, 1000}
	mk := func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, int(x), defDS, defDR, defP, 2, sim.Skew{}, o.Seed+8)
	}
	var out []Panel
	for _, l := range []sim.Learner{knnLearner(), svmLearner(o.SVMCap)} {
		pts, err := sweep(o, params, mk, l)
		if err != nil {
			return nil, err
		}
		p := Panel{Figure: "3+4", Label: l.Name, XName: "nR", Learner: l.Name, Points: pts}
		out = append(out, p)
		if err := renderPanel(o, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Figure5 reproduces the FK-skew panels: Zipf parameter sweep (A), n_S sweep
// at Zipf 2 (B), needle probability sweep (C), n_S sweep at needle 0.5 (D).
func Figure5(o Options) ([]Panel, error) {
	o = o.withDefaults()
	learner := treeLearner(0)
	var out []Panel
	add := func(label, xname string, params []float64, mk func(float64) (sim.Scenario, error)) error {
		pts, err := sweep(o, params, mk, learner)
		if err != nil {
			return err
		}
		p := Panel{Figure: "5", Label: label, XName: xname, Learner: learner.Name, Points: pts}
		out = append(out, p)
		return renderPanel(o, p)
	}
	if err := add("A", "zipf", []float64{0, 1, 2, 3, 4}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, defNR, defDS, defDR, defP, 2, sim.Skew{Kind: sim.SkewZipf, Param: x}, o.Seed+9)
	}); err != nil {
		return nil, err
	}
	if err := add("B", "nS", []float64{100, 1000, 10000}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(int(x), defNR, defDS, defDR, defP, 2, sim.Skew{Kind: sim.SkewZipf, Param: 2}, o.Seed+10)
	}); err != nil {
		return nil, err
	}
	if err := add("C", "needleP", []float64{0.1, 0.4, 0.7, 1}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(defNS, defNR, defDS, defDR, defP, 2, sim.Skew{Kind: sim.SkewNeedle, Param: x}, o.Seed+11)
	}); err != nil {
		return nil, err
	}
	if err := add("D", "nS", []float64{100, 1000, 10000}, func(x float64) (sim.Scenario, error) {
		return sim.NewOneXr(int(x), defNR, defDS, defDR, defP, 2, sim.Skew{Kind: sim.SkewNeedle, Param: 0.5}, o.Seed+12)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure6 reproduces the XSXR panels: n_S (A), n_R (B), d_R (C), d_S (D).
func Figure6(o Options) ([]Panel, error) {
	o = o.withDefaults()
	learner := treeLearner(0)
	var out []Panel
	add := func(label, xname string, params []float64, mk func(float64) (sim.Scenario, error)) error {
		pts, err := sweep(o, params, mk, learner)
		if err != nil {
			return err
		}
		p := Panel{Figure: "6", Label: label, XName: xname, Learner: learner.Name, Points: pts}
		out = append(out, p)
		return renderPanel(o, p)
	}
	if err := add("A", "nS", []float64{100, 1000, 5000, 10000}, func(x float64) (sim.Scenario, error) {
		return sim.NewXSXR(int(x), defNR, defDS, defDR, o.Seed+13)
	}); err != nil {
		return nil, err
	}
	if err := add("B", "nR", []float64{2, 8, 32, 128, 1000}, func(x float64) (sim.Scenario, error) {
		return sim.NewXSXR(defNS, int(x), defDS, defDR, o.Seed+14)
	}); err != nil {
		return nil, err
	}
	if err := add("C", "dR", []float64{1, 4, 7, 10}, func(x float64) (sim.Scenario, error) {
		return sim.NewXSXR(defNS, defNR, defDS, int(x), o.Seed+15)
	}); err != nil {
		return nil, err
	}
	if err := add("D", "dS", []float64{1, 4, 7, 10}, func(x float64) (sim.Scenario, error) {
		return sim.NewXSXR(defNS, defNR, int(x), defDR, o.Seed+16)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Figures7to9 reproduce the RepOneXr d_R sweeps at tuple ratios 25× (nR=40)
// and 5× (nR=200) for the tree (Fig 7), RBF-SVM (Fig 8), and 1-NN (Fig 9).
func Figures7to9(o Options) ([]Panel, error) {
	o = o.withDefaults()
	params := []float64{1, 6, 11, 16}
	type cfg struct {
		fig     string
		learner sim.Learner
	}
	var out []Panel
	for _, c := range []cfg{
		{"7", treeLearner(0)},
		{"8", svmLearner(o.SVMCap)},
		{"9", knnLearner()},
	} {
		for _, nr := range []int{40, 200} {
			label := fmt.Sprintf("nR=%d", nr)
			mk := func(x float64) (sim.Scenario, error) {
				return sim.NewRepOneXr(defNS, nr, defDS, int(x), defP, sim.Skew{}, o.Seed+17)
			}
			pts, err := sweep(o, params, mk, c.learner)
			if err != nil {
				return nil, err
			}
			p := Panel{Figure: c.fig, Label: label, XName: "dR", Learner: c.learner.Name, Points: pts}
			out = append(out, p)
			if err := renderPanel(o, p); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
