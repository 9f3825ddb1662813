package ml

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/relational"
)

// Classifier is the interface every learner implements. Fit trains on a
// dataset; Predict classifies one example given as categorical codes in the
// same feature order the model was trained with.
type Classifier interface {
	Fit(train *Dataset) error
	Predict(row []relational.Value) int8
}

// Named is implemented by classifiers that expose a display name for report
// rows (e.g. "Decision Tree (gini)").
type Named interface {
	Name() string
}

// BatchPredictor is an optional Classifier extension: PredictBatch
// classifies every example of a dataset in one batched pass — typically a
// mat kernel over the dataset's active-index matrix instead of a per-example
// row gather and Predict call. Implementations must return exactly the class
// Predict returns for every example (the evaluation paths treat the two as
// interchangeable), with out[i] the class of example i.
type BatchPredictor interface {
	PredictBatch(ds *Dataset) []int8
}

// scoreMorsel is the example count of one Accuracies gather: the block
// holds (features + label) × scoreMorsel codes.
const scoreMorsel = 1024

// Accuracy returns the fraction of examples in ds classified correctly by c
// (see Accuracies).
func Accuracy(c Classifier, ds *Dataset) float64 {
	return Accuracies([]Classifier{c}, ds)[0]
}

// Accuracies returns Accuracy(c, ds) for every classifier of cs, reading ds
// once for all of those that score row at a time. Classifiers implementing
// BatchPredictor are scored in one batched pass each, their classes
// compared against labels read by one ScanLabels call. The rest share one
// morsel-at-a-time read: one GatherFeatures call reads a morsel's features
// and labels together (on a spilled table, one pin per touched segment),
// and each example is copied into a local row buffer before the Predict
// calls, so classifiers which internally iterate the same dataset (1-NN
// evaluated on its own training set) never see their argument clobbered.
// Both paths count the classes Predict returns, so neither the choice nor
// the company of other classifiers ever changes an accuracy.
func Accuracies(cs []Classifier, ds *Dataset) []float64 {
	out := make([]float64, len(cs))
	n := ds.NumExamples()
	if n == 0 {
		return out
	}
	var rowwise []Classifier
	var at []int
	var labels []int8
	for i, c := range cs {
		bp, ok := c.(BatchPredictor)
		if !ok {
			rowwise = append(rowwise, c)
			at = append(at, i)
			continue
		}
		if labels == nil {
			labels = make([]int8, n)
			ds.ScanLabels(labels, 0)
		}
		correct := 0
		for k, cls := range bp.PredictBatch(ds) {
			if cls == labels[k] {
				correct++
			}
		}
		out[i] = float64(correct) / float64(n)
	}
	if len(rowwise) == 0 {
		return out
	}
	w := ds.NumFeatures()
	feats := make([]int, w+1)
	for j := range w {
		feats[j] = j
	}
	feats[w] = LabelColumn
	stride := min(n, scoreMorsel)
	block := make([]relational.Value, (w+1)*stride)
	rows := make([]int, stride)
	row := make([]relational.Value, w)
	blockLabels := block[w*stride:]
	correct := make([]int, len(rowwise))
	for from := 0; from < n; from += stride {
		m := min(stride, n-from)
		for k := range rows[:m] {
			rows[k] = from + k
		}
		ds.GatherFeatures(block, stride, feats, rows[:m])
		for k := 0; k < m; k++ {
			for j := range row {
				row[j] = block[j*stride+k]
			}
			for c, cl := range rowwise {
				if cl.Predict(row) == int8(blockLabels[k]) {
					correct[c]++
				}
			}
		}
	}
	for c, i := range at {
		out[i] = float64(correct[c]) / float64(n)
	}
	return out
}

// Error returns the 0-1 loss of c on ds (1 − Accuracy).
func Error(c Classifier, ds *Dataset) float64 {
	return 1 - Accuracy(c, ds)
}

// GridPoint is one hyper-parameter assignment: a name → value map.
type GridPoint map[string]float64

// clone copies a grid point.
func (g GridPoint) clone() GridPoint {
	out := make(GridPoint, len(g))
	for k, v := range g {
		out[k] = v
	}
	return out
}

// String renders the point with sorted keys for deterministic logs.
func (g GridPoint) String() string {
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", k, g[k])
	}
	return s + "}"
}

// Grid enumerates the cross product of per-parameter value axes, exactly the
// "standard grid search" of §3.2.
type Grid struct {
	names []string
	axes  [][]float64
}

// NewGrid returns an empty grid (a single empty point).
func NewGrid() *Grid { return &Grid{} }

// Axis appends a parameter axis and returns the grid for chaining.
func (g *Grid) Axis(name string, values ...float64) *Grid {
	g.names = append(g.names, name)
	g.axes = append(g.axes, append([]float64(nil), values...))
	return g
}

// Points enumerates every point in the cross product, in deterministic
// lexicographic order of the axes as added.
func (g *Grid) Points() []GridPoint {
	points := []GridPoint{{}}
	for ai, name := range g.names {
		var next []GridPoint
		for _, p := range points {
			for _, v := range g.axes[ai] {
				q := p.clone()
				q[name] = v
				next = append(next, q)
			}
		}
		points = next
	}
	return points
}

// Factory constructs a classifier for a grid point.
type Factory func(GridPoint) (Classifier, error)

// TuneResult reports a completed grid search.
type TuneResult struct {
	Best        Classifier
	BestPoint   GridPoint
	BestValAcc  float64
	PointsTried int
}

// Winner is the grid-search reduction: the point with the highest
// validation accuracy wins, the earliest grid index on ties. Per-point
// accuracies are deterministic and the rule does not depend on the order
// points are offered in, so a parallel search selects the winner a
// sequential loop would. The zero value holds no point.
type Winner struct {
	Index int     // grid index of the winner
	Acc   float64 // its validation accuracy
	any   bool
}

// Offer considers grid point i with validation accuracy acc and reports
// whether it is now the winner.
func (w *Winner) Offer(i int, acc float64) bool {
	if w.any && !(acc > w.Acc || (acc == w.Acc && i < w.Index)) {
		return false
	}
	w.Index, w.Acc, w.any = i, acc, true
	return true
}

// GridSearch trains a classifier at every grid point on train, evaluates on
// validation accuracy, and refits nothing: the best already-fitted model is
// returned (the paper tunes on the validation split and reports holdout test
// accuracy of the tuned model). The winner follows Winner's rule, making
// results deterministic.
//
// Grid points are fitted and evaluated on a worker pool (see
// MaxParallelism): classifiers are constructed sequentially — factories need
// not be safe for concurrent calls — then the workers fit on the shared
// datasets, whose accessors are all safe for concurrent use, and the winner
// is reduced online, so the result is bit-identical to a sequential run.
func GridSearch(grid *Grid, factory Factory, train, validation *Dataset) (TuneResult, error) {
	points := grid.Points()
	if len(points) == 0 {
		return TuneResult{}, fmt.Errorf("ml: empty grid")
	}
	models := make([]Classifier, len(points))
	for i, p := range points {
		c, err := factory(p)
		if err != nil {
			return TuneResult{}, fmt.Errorf("ml: grid point %v: %w", p, err)
		}
		models[i] = c
	}
	// Online winner reduction: losers become garbage as soon as they are
	// judged, so at most workers+1 fitted models are live at once.
	var mu sync.Mutex
	var win Winner
	var best Classifier
	errs := make([]error, len(points))
	parallelFor(len(points), func(i int) {
		c := models[i]
		models[i] = nil
		if err := c.Fit(train); err != nil {
			errs[i] = fmt.Errorf("ml: fit at %v: %w", points[i], err)
			return
		}
		acc := Accuracy(c, validation)
		mu.Lock()
		if win.Offer(i, acc) {
			best = c
		}
		mu.Unlock()
	})
	for _, err := range errs {
		if err != nil {
			return TuneResult{}, err
		}
	}
	return TuneResult{Best: best, BestPoint: points[win.Index], BestValAcc: win.Acc, PointsTried: len(points)}, nil
}

// SharedSearch is GridSearch for learners that fit a whole grid at once,
// sharing the work its points have in common: config maps each point to
// the learner's configuration, and fit returns the fitted classifier and
// validation accuracy of every configuration, in grid order. The winner
// follows Winner's rule.
func SharedSearch[C any, M Classifier](grid *Grid, config func(GridPoint) C, fit func([]C) ([]M, []float64, error)) (TuneResult, error) {
	points := grid.Points()
	if len(points) == 0 {
		return TuneResult{}, fmt.Errorf("ml: empty grid")
	}
	cfgs := make([]C, len(points))
	for i, p := range points {
		cfgs[i] = config(p)
	}
	models, accs, err := fit(cfgs)
	if err != nil {
		return TuneResult{}, err
	}
	var win Winner
	for i, acc := range accs {
		win.Offer(i, acc)
	}
	return TuneResult{Best: models[win.Index], BestPoint: points[win.Index], BestValAcc: win.Acc, PointsTried: len(points)}, nil
}

// ConstantClassifier predicts a fixed class; the baseline for sanity checks
// and the fallback for degenerate training sets.
type ConstantClassifier struct{ Class int8 }

// Fit sets the class to the training majority.
func (c *ConstantClassifier) Fit(train *Dataset) error {
	c.Class = train.MajorityClass()
	return nil
}

// Predict returns the fixed class.
func (c *ConstantClassifier) Predict([]relational.Value) int8 { return c.Class }

// ExportLinear implements LinearExporter: a constant model is the degenerate
// linear model with zero weights and a bias carrying the class sign.
func (c *ConstantClassifier) ExportLinear(features []Feature) (float64, []float64, bool) {
	bias := -1.0
	if c.Class == 1 {
		bias = 1
	}
	return bias, make([]float64, NewEncoder(features).Dims), true
}

// Name implements Named.
func (c *ConstantClassifier) Name() string { return "Majority" }
