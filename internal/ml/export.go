package ml

import "repro/internal/relational"

// Scorer is implemented by classifiers that expose a real-valued confidence
// for the positive class: Predict(row) == 1 exactly when Decision(row) >= 0.
// The SVM and logistic regression satisfy it directly; the serving layer
// uses it wherever a margin is more useful than a hard label.
type Scorer interface {
	Decision(row []relational.Value) float64
}

// LinearExporter is the param-export surface of classifiers whose decision
// function is linear in the one-hot encoding of the categorical features:
//
//	Decision(x) = bias + Σ_j w[enc.Index(j, x_j)]
//
// with enc = NewEncoder(features) and Predict(x) = 1 iff Decision(x) >= 0.
// Naive Bayes (log-posterior difference), logistic regression (log-odds) and
// the linear-kernel SVM (support weights folded per (feature, value) pair)
// all export this form. It is the seam the factorized serving engine builds
// on: for a model linear in the features, each dimension table's contribution
// to the score is a per-dimension-row constant that can be precomputed once
// and reused across every request carrying that foreign key — the
// prediction-time analogue of avoiding the KFK join at training time.
//
// ExportLinear returns ok == false when the classifier cannot be expressed
// this way (non-linear kernels, unfitted models); features must be the
// feature list the model was trained with. The returned slice is a fresh
// copy owned by the caller.
type LinearExporter interface {
	ExportLinear(features []Feature) (bias float64, w []float64, ok bool)
}
