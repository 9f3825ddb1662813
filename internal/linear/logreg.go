// Package linear implements the linear classifiers the paper compares
// against (§3): logistic regression with L1 regularization (the glmnet
// configuration) and a primal linear SVM. Both operate on one-hot encoded
// categorical features with one weight per (feature, value) pair, so a
// foreign key with a domain of size n_R contributes n_R weights — precisely
// the capacity blow-up the prior work's VC-dimension analysis worried about.
package linear

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// LogRegConfig configures L1-regularized logistic regression. The defaults
// mirror the paper's glmnet settings: an automatic lambda path of NLambda
// values, convergence threshold Thresh, and iteration cap MaxIter.
type LogRegConfig struct {
	// Lambda is the L1 penalty (soft-thresholding proximal step).
	Lambda float64
	// L2 is an optional ridge penalty (plain weight decay); the paper also
	// evaluated logistic regression with L2 regularization (§3) and found
	// no new insights — both are provided.
	L2 float64
	// Epochs of SGD over the training set (default 30).
	Epochs int
	// LearningRate is the initial step size (default 0.1, decayed 1/√t).
	LearningRate float64
	// Seed drives example shuffling.
	Seed uint64
}

// LogReg is an L1-regularized logistic regression classifier.
type LogReg struct {
	cfg LogRegConfig
	enc *ml.Encoder
	w   []float64
	b   float64
}

// NewLogReg returns an unfitted model.
func NewLogReg(cfg LogRegConfig) *LogReg {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	return &LogReg{cfg: cfg}
}

// Name implements ml.Named.
func (m *LogReg) Name() string { return "LogisticRegression(L1)" }

// Fit trains with proximal stochastic gradient descent: a plain logistic
// gradient step followed by the soft-thresholding proximal operator of the
// L1 penalty.
//
// Feature access runs column-at-a-time: every feature is scanned once per
// Fit (ml.ScanActiveIndices, (feature, span) tasks fanned across
// ml.ParallelFor) into a dense active-index matrix, and the epochs index that
// matrix instead of re-paying a row gather per example per epoch — SGD
// re-reads every feature every epoch, exactly the access pattern one column
// pass amortizes.
func (m *LogReg) Fit(train *ml.Dataset) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("linear: empty training set")
	}
	m.enc = ml.NewEncoder(train.Features)
	m.w = make([]float64, m.enc.Dims)
	m.b = 0
	n := train.NumExamples()
	r := rng.New(m.cfg.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	d := train.NumFeatures()
	idxMat, labels := ml.ScanActiveIndices(train, m.enc)

	step := m.cfg.LearningRate
	t := 1.0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochT0 := time.Now()
		r.ShuffleInts(order)
		for _, i := range order {
			idx, y := idxMat[i*d:(i+1)*d], float64(labels[i])
			// The epoch score is the one-hot gather-sum kernel (SGD's
			// sequential updates rule out batching whole epochs through
			// SpGemmOneHot bit-identically — each example's score reads the
			// weights as left by the previous example's update — so the
			// per-example score runs through mat's scalar form instead).
			z := mat.GatherSum(m.b, m.w, idx)
			p := sigmoid(z)
			g := p - y // d(loss)/dz
			eta := step / math.Sqrt(t)
			t++
			m.b -= eta * g
			shrink := eta * m.cfg.Lambda
			decay := 1 - eta*m.cfg.L2
			if decay < 0 {
				decay = 0
			}
			for _, k := range idx {
				wk := (m.w[k] - eta*g) * decay
				// Soft threshold (proximal L1).
				switch {
				case wk > shrink:
					wk -= shrink
				case wk < -shrink:
					wk += shrink
				default:
					wk = 0
				}
				m.w[k] = wk
			}
		}
		epochSpan.ObserveSince(epochT0)
	}
	return nil
}

// Decision returns the log-odds for a row.
func (m *LogReg) Decision(row []relational.Value) float64 {
	z := m.b
	for j, v := range row {
		z += m.w[m.enc.Index(j, v)]
	}
	return z
}

// Predict classifies one example.
func (m *LogReg) Predict(row []relational.Value) int8 {
	if m.Decision(row) >= 0 {
		return 1
	}
	return 0
}

// PredictBatch implements ml.BatchPredictor: the dataset is scored in one
// SpGemmOneHot pass (h = 1) over its active-index matrix — one batched
// column scan per feature instead of a row gather per example, then a tight
// gather-sum per row. Each decision value folds bias-first in feature order,
// exactly as Decision does, so the classes match Predict bit for bit.
func (m *LogReg) PredictBatch(ds *ml.Dataset) []int8 {
	n := ds.NumExamples()
	out := make([]int8, n)
	if n == 0 {
		return out
	}
	d := ds.NumFeatures()
	idx, _ := ml.ScanActiveIndices(ds, m.enc)
	z := make([]float64, n)
	mat.SpGemmOneHot(z, 1, idx, d, m.w, 1, n, d, 1, []float64{m.b})
	for i, zi := range z {
		if zi >= 0 {
			out[i] = 1
		}
	}
	return out
}

// NonZeroWeights counts weights the L1 penalty left active.
func (m *LogReg) NonZeroWeights() int {
	nz := 0
	for _, w := range m.w {
		if w != 0 {
			nz++
		}
	}
	return nz
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
