package core

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/knn"
	"repro/internal/linear"
	"repro/internal/ml"
	"repro/internal/nb"
	"repro/internal/svm"
	"repro/internal/tree"
)

// Spec describes one classifier family's training procedure: given train and
// validation splits, produce a tuned, fitted classifier. Most specs run the
// paper's grid search; Naive Bayes runs its backward-selection wrapper
// instead.
type Spec struct {
	Name  string
	Train func(train, val *ml.Dataset, seed uint64) (ml.Classifier, ml.GridPoint, float64, error)
}

// Effort scales the hyper-parameter grids. EffortFull is the paper's exact
// grid; EffortFast shrinks each axis to its most useful values so the whole
// study fits in unit-test/bench budgets while exercising the same code.
type Effort int

const (
	// EffortFast uses reduced grids (2–4 points per model).
	EffortFast Effort = iota
	// EffortFull uses the paper's §3.2 grids verbatim.
	EffortFull
)

// gridSearchSpec adapts an ml.Grid + factory into a Spec.
func gridSearchSpec(name string, grid *ml.Grid, factory func(p ml.GridPoint, seed uint64) (ml.Classifier, error)) Spec {
	return Spec{
		Name: name,
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, ml.GridPoint, float64, error) {
			return tuned(ml.GridSearch(grid, func(p ml.GridPoint) (ml.Classifier, error) {
				return factory(p, seed)
			}, train, val))
		},
	}
}

// TreeSpec builds the decision-tree spec for a split criterion with the
// paper's grid: minsplit ∈ {1,10,100,1000}, cp ∈ {1e-4,1e-3,0.01,0.1,0}.
// The grid is fitted by tree.GridSearch: one grow, every point derived.
func TreeSpec(criterion tree.Criterion, effort Effort) Spec {
	grid := treeGrid(effort)
	return Spec{
		Name: "DecisionTree(" + criterion.String() + ")",
		Train: func(train, val *ml.Dataset, _ uint64) (ml.Classifier, ml.GridPoint, float64, error) {
			return tuned(tree.GridSearch(grid, treeConfig(criterion), train, val))
		},
	}
}

// treeGrid is TreeSpec's minsplit × cp grid at an effort.
func treeGrid(effort Effort) *ml.Grid {
	if effort == EffortFull {
		return ml.NewGrid().Axis("minsplit", 1, 10, 100, 1000).Axis("cp", 1e-4, 1e-3, 0.01, 0.1, 0)
	}
	return ml.NewGrid().Axis("minsplit", 10, 100).Axis("cp", 1e-3, 0.01)
}

// treeConfig maps a TreeSpec grid point to its tree configuration.
func treeConfig(criterion tree.Criterion) func(ml.GridPoint) tree.Config {
	return func(p ml.GridPoint) tree.Config {
		return tree.Config{Criterion: criterion, MinSplit: int(p["minsplit"]), CP: p["cp"]}
	}
}

// tuned unpacks a grid search's result into Spec.Train's returns.
func tuned(res ml.TuneResult, err error) (ml.Classifier, ml.GridPoint, float64, error) {
	if err != nil {
		return nil, nil, 0, err
	}
	return res.Best, res.BestPoint, res.BestValAcc, nil
}

// SVMSpec builds the kernel-SVM spec. The paper's grid is C ∈
// {0.1,1,10,100,1000} and, for non-linear kernels, γ ∈ {1e-4…10}.
// subsampleCap bounds SMO's training-set size (0 disables). The grid is
// fitted by svm.GridSearch, which shares the subsample and the validation
// match counts across points.
func SVMSpec(kind svm.KernelKind, effort Effort, subsampleCap int) Spec {
	grid := svmGrid(kind, effort)
	return Spec{
		Name: "SVM(" + kind.String() + ")",
		Train: func(train, val *ml.Dataset, seed uint64) (ml.Classifier, ml.GridPoint, float64, error) {
			return tuned(svm.GridSearch(grid, svmConfig(kind, subsampleCap, seed), train, val))
		},
	}
}

// svmGrid is SVMSpec's C (× γ) grid at an effort.
func svmGrid(kind svm.KernelKind, effort Effort) *ml.Grid {
	grid := ml.NewGrid()
	if effort == EffortFull {
		grid.Axis("C", 0.1, 1, 10, 100, 1000)
		if kind != svm.Linear {
			grid.Axis("gamma", 1e-4, 1e-3, 0.01, 0.1, 1, 10)
		}
	} else {
		grid.Axis("C", 1, 100)
		if kind != svm.Linear {
			// Include a small gamma so wide feature sets (large d) keep
			// non-trivial kernel values: exp(−2γ(d−m)) vanishes for large
			// d−m unless gamma is small.
			grid.Axis("gamma", 0.01, 0.1, 1)
		}
	}
	return grid
}

// svmConfig maps an SVMSpec grid point to its SVM configuration. The
// linear kernel has no γ axis, and reads γ as 0.
func svmConfig(kind svm.KernelKind, subsampleCap int, seed uint64) func(ml.GridPoint) svm.Config {
	return func(p ml.GridPoint) svm.Config {
		return svm.Config{Kernel: kind, C: p["C"], Gamma: p["gamma"], SubsampleCap: subsampleCap, Seed: seed}
	}
}

// ANNSpec builds the multilayer-perceptron spec. The paper's grid tunes
// L2 ∈ {1e-4,1e-3,1e-2} and learning rate ∈ {1e-3,1e-2,1e-1}; hidden sizes
// stay at 256/64. epochs and hidden sizes are scaled down at EffortFast.
func ANNSpec(effort Effort) Spec {
	grid := ml.NewGrid()
	h1, h2, epochs := 256, 64, 20
	if effort == EffortFull {
		grid.Axis("l2", 1e-4, 1e-3, 1e-2).Axis("lr", 1e-3, 1e-2, 1e-1)
	} else {
		grid.Axis("l2", 1e-3).Axis("lr", 1e-2)
		h1, h2, epochs = 32, 16, 10
	}
	return gridSearchSpec("ANN(MLP)", grid, func(p ml.GridPoint, seed uint64) (ml.Classifier, error) {
		return ann.New(ann.Config{
			Hidden1:      h1,
			Hidden2:      h2,
			L2:           p["l2"],
			LearningRate: p["lr"],
			Epochs:       epochs,
			Seed:         seed,
		}), nil
	})
}

// LogRegSpec builds the L1 logistic-regression spec: a small lambda path,
// standing in for glmnet's automatic path.
func LogRegSpec(effort Effort) Spec {
	grid := ml.NewGrid()
	if effort == EffortFull {
		grid.Axis("lambda", 0, 1e-4, 1e-3, 1e-2, 0.1)
	} else {
		grid.Axis("lambda", 1e-4, 1e-2)
	}
	return gridSearchSpec("LogisticRegression(L1)", grid, func(p ml.GridPoint, seed uint64) (ml.Classifier, error) {
		return linear.NewLogReg(linear.LogRegConfig{Lambda: p["lambda"], Seed: seed}), nil
	})
}

// OneNNSpec builds the 1-nearest-neighbour spec (no hyper-parameters).
func OneNNSpec() Spec {
	return Spec{
		Name: "1-NN",
		Train: func(train, val *ml.Dataset, _ uint64) (ml.Classifier, ml.GridPoint, float64, error) {
			k := knn.New()
			if err := k.Fit(train); err != nil {
				return nil, nil, 0, err
			}
			return k, ml.GridPoint{}, ml.Accuracy(k, val), nil
		},
	}
}

// NaiveBayesBFSSpec builds the Naive Bayes + backward-selection spec. The
// wrapper consumes the validation split directly instead of a grid.
func NaiveBayesBFSSpec() Spec {
	return Spec{
		Name: "NaiveBayes(BFS)",
		Train: func(train, val *ml.Dataset, _ uint64) (ml.Classifier, ml.GridPoint, float64, error) {
			m, valAcc, err := nb.BackwardSelect(nb.Config{}, train, val)
			if err != nil {
				return nil, nil, 0, err
			}
			return m, ml.GridPoint{}, valAcc, nil
		},
	}
}

// AllSpecs returns the paper's full classifier roster in Tables 2–3 order:
// three decision trees, 1-NN, three SVMs, ANN, Naive Bayes, and logistic
// regression. svmCap bounds SMO training-set sizes.
func AllSpecs(effort Effort, svmCap int) []Spec {
	return []Spec{
		TreeSpec(tree.Gini, effort),
		TreeSpec(tree.InfoGain, effort),
		TreeSpec(tree.GainRatio, effort),
		OneNNSpec(),
		SVMSpec(svm.Linear, effort, svmCap),
		SVMSpec(svm.Quadratic, effort, svmCap),
		SVMSpec(svm.RBF, effort, svmCap),
		ANNSpec(effort),
		NaiveBayesBFSSpec(),
		LogRegSpec(effort),
	}
}

// SpecByName returns the named spec from AllSpecs.
func SpecByName(name string, effort Effort, svmCap int) (Spec, error) {
	for _, s := range AllSpecs(effort, svmCap) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("core: unknown spec %q", name)
}
