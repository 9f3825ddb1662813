package core

import (
	"fmt"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/svm"
)

// This file is the accuracy-level verification tier: the registry of
// approximate training kernels and the harness that gates each one against
// its bit-exact reference across the paper's dataset × engine matrix. It is
// the single implementation behind the core tests, `hamlet -verify
// accuracy`, and CI's accuracy-gate job — they differ only in how they
// render the cells. ml.CompareClassifiers does the per-pair measurement;
// this layer owns what to train and where the tolerances sit.

// ApproxKernel is one approximate training path registered with the
// accuracy gate: a bit-exact reference constructor, the approximate sibling
// (identical hyper-parameters, approximate algorithm), and the tolerance
// its held-out divergence must stay inside.
type ApproxKernel struct {
	Name        string
	Description string
	Tol         ml.Tolerance
	Ref, Approx func(seed uint64) (ml.Classifier, error)
}

// Verification tolerances, anchored at the gate's standard run (scale 256,
// seed 1; see VerifyOptions defaults).
//
// AccDelta is the primary bound — the paper's comparisons turn on held-out
// accuracy, and the JoinAll-vs-NoJoin gaps it reports span ~5–15 points, so
// a 3-point band keeps "equivalent" an order below "the effect being
// studied". On the smallest holdout in the matrix (Flights, ~66 test rows
// at scale 256) that is two flipped examples of headroom over the measured
// deltas (≤1.5 points, ARCHITECTURE.md "Verification tiers").
//
// Disagreement and LossDelta are backstops for failure modes accuracy
// cannot see: accuracies cancel when a model trades wins for losses, so the
// disagreement bound caps how differently-wrong the two models may be
// (measured: ≤14% of holdout flips, all near the decision boundary; the cap
// rejects the wholesale-flip regime), and the log-loss bound catches
// probability miscalibration behind unchanged argmax classes (measured:
// ≤0.16 mean-NLL delta).
const (
	gateAccDelta     = 0.03
	gateDisagreement = 0.20
	gateLossDelta    = 0.25
)

// approxSVM mirrors the EffortFast SVM grid point the benches use; only
// ErrorCache differs between reference and sibling.
func approxSVM(errorCache bool) func(seed uint64) (ml.Classifier, error) {
	return func(seed uint64) (ml.Classifier, error) {
		return svm.New(svm.Config{
			Kernel:       svm.RBF,
			C:            10,
			Gamma:        0.1,
			SubsampleCap: 400,
			Seed:         seed,
			ErrorCache:   errorCache,
		})
	}
}

// approxANN mirrors the EffortFast ANN shape; only FusedAdam differs.
func approxANN(fused bool) func(seed uint64) (ml.Classifier, error) {
	return func(seed uint64) (ml.Classifier, error) {
		return ann.New(ann.Config{
			Hidden1:      32,
			Hidden2:      16,
			LearningRate: 1e-2,
			Epochs:       10,
			Seed:         seed,
			FusedAdam:    fused,
		}), nil
	}
}

// ApproxKernels returns the registry of approximate kernels the accuracy
// gate covers. Every future approximate path (early stopping, sampling,
// quantized columns) registers here and inherits the full matrix run.
func ApproxKernels() []ApproxKernel {
	return []ApproxKernel{
		{
			Name:        "svm-errorcache",
			Description: "incremental-E SMO with max-violating-pair selection (svm.Config.ErrorCache)",
			Tol:         ml.Tolerance{AccDelta: gateAccDelta, Disagreement: gateDisagreement},
			Ref:         approxSVM(false),
			Approx:      approxSVM(true),
		},
		{
			Name:        "ann-fusedadam",
			Description: "dense fused Adam over contiguous slabs (ann.Config.FusedAdam)",
			Tol:         ml.Tolerance{AccDelta: gateAccDelta, Disagreement: gateDisagreement, LossDelta: gateLossDelta},
			Ref:         approxANN(false),
			Approx:      approxANN(true),
		},
	}
}

// VerifyDatasets is the standard dataset axis of the accuracy gate: the
// three real-world schemas the paper's headline comparisons use.
func VerifyDatasets() []string { return []string{"Flights", "Yelp", "Expedia"} }

// VerifyEngines is the standard engine axis: every storage engine feeds the
// same training kernels, so the gate exercises each scan path.
func VerifyEngines() []Engine { return []Engine{EngineRow, EngineSegmented} }

// VerifyCell is one (kernel, dataset, engine) accuracy-gate measurement.
type VerifyCell struct {
	Kernel  string
	Dataset string
	Engine  Engine
	Delta   ml.EquivDelta
	// Err is nil when the divergence is inside the kernel's tolerance.
	Err error
}

// VerifyOptions parameterizes a VerifyAccuracy run; zero values take the
// standard matrix (all registered kernels, VerifyDatasets × VerifyEngines,
// scale 256, seed 1).
type VerifyOptions struct {
	Scale    int
	Seed     uint64
	Datasets []string
	Engines  []Engine
	Kernels  []ApproxKernel
}

func (o *VerifyOptions) fillDefaults() {
	if o.Scale <= 0 {
		o.Scale = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.Datasets) == 0 {
		o.Datasets = VerifyDatasets()
	}
	if len(o.Engines) == 0 {
		o.Engines = VerifyEngines()
	}
	if len(o.Kernels) == 0 {
		o.Kernels = ApproxKernels()
	}
}

// VerifyAccuracy trains every registered approximate kernel next to its
// bit-exact reference across the dataset × engine matrix and measures the
// held-out divergence of each pair on the test split. It returns every
// cell (passing and failing, in deterministic matrix order) plus an error
// summarizing the failures, nil when the whole matrix is inside tolerance.
// Infrastructure failures (dataset generation, training) abort the run —
// they are bugs, not gate verdicts.
func VerifyAccuracy(o VerifyOptions) ([]VerifyCell, error) {
	o.fillDefaults()
	var cells []VerifyCell
	failed := 0
	for _, name := range o.Datasets {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			return cells, err
		}
		for _, engine := range o.Engines {
			ss, err := dataset.Generate(spec, o.Scale, o.Seed)
			if err != nil {
				return cells, err
			}
			env, err := NewEnvEngine(ss, o.Seed, engine)
			if err != nil {
				return cells, err
			}
			train, _, test, err := env.ViewSplits(ml.JoinAll, nil)
			if err != nil {
				env.Close()
				return cells, err
			}
			for _, k := range o.Kernels {
				ref, err := k.Ref(o.Seed)
				if err != nil {
					env.Close()
					return cells, fmt.Errorf("%s ref: %w", k.Name, err)
				}
				approx, err := k.Approx(o.Seed)
				if err != nil {
					env.Close()
					return cells, fmt.Errorf("%s approx: %w", k.Name, err)
				}
				if err := ref.Fit(train); err != nil {
					env.Close()
					return cells, fmt.Errorf("%s ref fit on %s/%s: %w", k.Name, name, engine, err)
				}
				if err := approx.Fit(train); err != nil {
					env.Close()
					return cells, fmt.Errorf("%s approx fit on %s/%s: %w", k.Name, name, engine, err)
				}
				delta := ml.CompareClassifiers(ref, approx, test)
				cell := VerifyCell{Kernel: k.Name, Dataset: name, Engine: engine, Delta: delta}
				if err := k.Tol.Check(delta); err != nil {
					cell.Err = fmt.Errorf("%s on %s/%s: %w", k.Name, name, engine, err)
					failed++
				}
				cells = append(cells, cell)
			}
			if err := env.Close(); err != nil {
				return cells, err
			}
		}
	}
	if failed > 0 {
		return cells, fmt.Errorf("accuracy gate: %d of %d cells outside tolerance", failed, len(cells))
	}
	return cells, nil
}
