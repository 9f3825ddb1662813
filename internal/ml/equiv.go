package ml

import (
	"fmt"
	"math"

	"repro/internal/relational"
)

// This file is the accuracy-level verification tier's measurement core.
//
// The repo's first tier of equivalence is bit-identity: an optimized access
// path must reproduce the reference model's parameters exactly (each
// learner's tests pin its batched path to a row-at-a-time oracle). Some
// optimizations cannot clear that bar by construction — they change the optimization trajectory, not just the data
// movement — so the second tier asks the question that actually matters for
// the paper's claims: does the approximate path learn a model of the same
// held-out quality? CompareClassifiers measures that divergence and
// Tolerance bounds it; core.VerifyAccuracy runs the measurement across the
// dataset × engine matrix for every registered approximate kernel.

// Prober is an optional Classifier extension exposing the positive-class
// probability; when both sides of a comparison implement it, the harness
// also reports a held-out log-loss delta.
type Prober interface {
	Probability(row []relational.Value) float64
}

// Tolerance bounds the acceptable held-out divergence between a reference
// classifier and an approximate sibling. Zero-valued fields are not
// checked.
type Tolerance struct {
	// AccDelta caps |refAcc − approxAcc| on the holdout split.
	AccDelta float64
	// Disagreement caps the fraction of holdout examples the two fitted
	// models classify differently. Accuracy deltas can cancel (the approx
	// model trading wins for losses nets to zero); disagreement cannot, so
	// it catches a model that is "equally accurate" by being differently
	// wrong everywhere.
	Disagreement float64
	// LossDelta caps |refLoss − approxLoss| (mean log-loss) when both
	// classifiers expose probabilities; ignored otherwise.
	LossDelta float64
}

// EquivDelta is one measured reference/approximate divergence.
type EquivDelta struct {
	RefAcc, ApproxAcc float64
	// Disagreement is the fraction of holdout examples classified
	// differently by the two models.
	Disagreement float64
	// RefLoss/ApproxLoss are mean log-losses, valid only when HasLoss (both
	// classifiers implement Prober).
	RefLoss, ApproxLoss float64
	HasLoss             bool
}

// AccDelta returns |RefAcc − ApproxAcc|.
func (d EquivDelta) AccDelta() float64 { return math.Abs(d.RefAcc - d.ApproxAcc) }

// LossDelta returns |RefLoss − ApproxLoss| (0 when losses were not
// measured).
func (d EquivDelta) LossDelta() float64 {
	if !d.HasLoss {
		return 0
	}
	return math.Abs(d.RefLoss - d.ApproxLoss)
}

// Check returns a descriptive error when the measured divergence exceeds
// the tolerance, nil when it is within.
func (t Tolerance) Check(d EquivDelta) error {
	if t.AccDelta > 0 && d.AccDelta() > t.AccDelta {
		return fmt.Errorf("accuracy delta %.4f exceeds tolerance %.4f (ref %.4f, approx %.4f)",
			d.AccDelta(), t.AccDelta, d.RefAcc, d.ApproxAcc)
	}
	if t.Disagreement > 0 && d.Disagreement > t.Disagreement {
		return fmt.Errorf("disagreement %.4f exceeds tolerance %.4f", d.Disagreement, t.Disagreement)
	}
	if t.LossDelta > 0 && d.HasLoss && d.LossDelta() > t.LossDelta {
		return fmt.Errorf("log-loss delta %.4f exceeds tolerance %.4f (ref %.4f, approx %.4f)",
			d.LossDelta(), t.LossDelta, d.RefLoss, d.ApproxLoss)
	}
	return nil
}

// predictions scores every example once, through the batched path when the
// classifier offers one (the scratch-row copy mirrors Accuracy's: Predict
// implementations may retain nothing, but Row's shared scratch cannot be
// handed to them while labels are read interleaved).
func predictions(c Classifier, ds *Dataset) []int8 {
	if bp, ok := c.(BatchPredictor); ok {
		return bp.PredictBatch(ds)
	}
	n := ds.NumExamples()
	out := make([]int8, n)
	buf := make([]relational.Value, ds.NumFeatures())
	for i := 0; i < n; i++ {
		out[i] = c.Predict(ds.RowInto(buf, i))
	}
	return out
}

// logLoss is the mean cross-entropy of p's probabilities against the
// labels, with the probabilities clamped away from {0, 1} so one saturated
// wrong answer cannot dominate the mean.
func logLoss(p Prober, ds *Dataset) float64 {
	const clamp = 1e-12
	n := ds.NumExamples()
	if n == 0 {
		return 0
	}
	buf := make([]relational.Value, ds.NumFeatures())
	sum := 0.0
	for i := 0; i < n; i++ {
		pr := p.Probability(ds.RowInto(buf, i))
		if pr < clamp {
			pr = clamp
		} else if pr > 1-clamp {
			pr = 1 - clamp
		}
		if ds.Label(i) == 1 {
			sum -= math.Log(pr)
		} else {
			sum -= math.Log(1 - pr)
		}
	}
	return sum / float64(n)
}

// CompareClassifiers scores two fitted classifiers on the same holdout
// dataset and returns their divergence: per-side accuracy, the example-wise
// disagreement rate, and (when both expose probabilities) mean log-losses.
// Both classifiers must already be fitted.
func CompareClassifiers(ref, approx Classifier, holdout *Dataset) EquivDelta {
	n := holdout.NumExamples()
	pr := predictions(ref, holdout)
	pa := predictions(approx, holdout)
	var refHit, approxHit, differ int
	for i := 0; i < n; i++ {
		truth := holdout.Label(i)
		if pr[i] == truth {
			refHit++
		}
		if pa[i] == truth {
			approxHit++
		}
		if pr[i] != pa[i] {
			differ++
		}
	}
	d := EquivDelta{}
	if n > 0 {
		d.RefAcc = float64(refHit) / float64(n)
		d.ApproxAcc = float64(approxHit) / float64(n)
		d.Disagreement = float64(differ) / float64(n)
	}
	rp, rok := ref.(Prober)
	ap, aok := approx.(Prober)
	if rok && aok {
		d.RefLoss = logLoss(rp, holdout)
		d.ApproxLoss = logLoss(ap, holdout)
		d.HasLoss = true
	}
	return d
}
