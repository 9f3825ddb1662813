package sim

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ml"
	"repro/internal/rng"
)

// Learner wraps a model family for the simulation harness: Train must fit
// (and, if it wants, tune on the validation set) and return a classifier.
type Learner struct {
	Name  string
	Train func(train, val *ml.Dataset, seed uint64) (ml.Classifier, error)
}

// ViewResult aggregates a Monte-Carlo run for one feature view.
type ViewResult struct {
	View ml.View
	Decomposition
}

// RunResult is the outcome of a Monte-Carlo study of one learner on one
// scenario configuration.
type RunResult struct {
	Scenario string
	Learner  string
	Runs     int
	Views    [3]ViewResult
}

// MonteCarlo samples one *pinned* test set from the scenario, then trains
// the learner on `runs` independently sampled training/validation sets and
// evaluates every fitted model on the pinned test set. Holding the test
// points fixed while the training sets vary is what makes the Domingos
// decomposition well defined: the pointwise majority ("main prediction") is
// taken over models, at the same x. This is the paper's §4 protocol with
// the run count as a parameter (the paper uses 100).
func MonteCarlo(sc Scenario, learner Learner, runs int, seed uint64) (RunResult, error) {
	if runs < 1 {
		return RunResult{}, fmt.Errorf("sim: need at least one run")
	}
	res := RunResult{Scenario: sc.Name(), Learner: learner.Name, Runs: runs}
	root := rng.New(seed)

	pinned, err := sc.Sample(root.Split())
	if err != nil {
		return RunResult{}, fmt.Errorf("sim: sampling pinned test set: %w", err)
	}

	// Each run gets its own pre-split RNG stream, so results are identical
	// whether runs execute sequentially or on a worker pool.
	streams := make([]*rng.RNG, runs)
	for run := range streams {
		streams[run] = root.Split()
	}
	outs := make([]runOut, runs)
	workers := runtime.GOMAXPROCS(0)
	if workers > runs {
		workers = runs
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				outs[run] = oneRun(sc, learner, streams[run], pinned)
			}
		}()
	}
	for run := 0; run < runs; run++ {
		next <- run
	}
	close(next)
	wg.Wait()

	var preds, bayes, observed [3][][]int8
	for run := 0; run < runs; run++ {
		if outs[run].err != nil {
			return RunResult{}, fmt.Errorf("sim: run %d: %w", run, outs[run].err)
		}
		for _, v := range []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK} {
			preds[v] = append(preds[v], outs[run].preds[v])
			observed[v] = append(observed[v], outs[run].observed[v])
			bayes[v] = append(bayes[v], pinned.BayesTest)
		}
	}
	for _, v := range []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK} {
		d, err := Decompose(preds[v], bayes[v], observed[v])
		if err != nil {
			return RunResult{}, err
		}
		res.Views[v] = ViewResult{View: v, Decomposition: d}
	}
	return res, nil
}

// runOut carries one Monte-Carlo run's per-view predictions on the pinned
// test set.
type runOut struct {
	preds, observed [3][]int8
	err             error
}

// oneRun executes a single Monte-Carlo run: sample a fresh training trial,
// train one model per view, and predict the pinned test set.
func oneRun(sc Scenario, learner Learner, r *rng.RNG, pinned *TrialData) (out runOut) {
	trial, err := sc.Sample(r)
	if err != nil {
		out.err = err
		return out
	}
	for _, v := range []ml.View{ml.JoinAll, ml.NoJoin, ml.NoFK} {
		c, err := learner.Train(trial.Train[v], trial.Val[v], r.Uint64())
		if err != nil {
			out.err = fmt.Errorf("view %v: %w", v, err)
			return out
		}
		// The pinned test set is shared by every concurrent run, so each run
		// scans its own row-major copy of it.
		test := pinned.Test[v]
		x, o := ml.ScanRowMajor(test)
		k := test.NumFeatures()
		p := make([]int8, len(o))
		for i := range p {
			p[i] = c.Predict(x[i*k : (i+1)*k])
		}
		out.preds[v] = p
		out.observed[v] = o
	}
	return out
}

// SweepPoint is one x-axis point of a figure: the swept parameter value and
// the Monte-Carlo result there.
type SweepPoint struct {
	Param float64
	RunResult
}

// Sweep runs MonteCarlo at each scenario produced by mk(param) over the
// given parameter values — the shape of every Figure 2–9 panel.
func Sweep(params []float64, mk func(param float64) (Scenario, error), learner Learner, runs int, seed uint64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(params))
	for i, p := range params {
		sc, err := mk(p)
		if err != nil {
			return nil, fmt.Errorf("sim: sweep param %v: %w", p, err)
		}
		rr, err := MonteCarlo(sc, learner, runs, seed+uint64(i)*1_000_003)
		if err != nil {
			return nil, fmt.Errorf("sim: sweep param %v: %w", p, err)
		}
		out = append(out, SweepPoint{Param: p, RunResult: rr})
	}
	return out, nil
}
