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

// HiddenLinearExporter is the param-export surface of classifiers whose
// *first layer* is linear in the one-hot encoding while the rest of the
// decision function is a dense map of that hidden vector (the MLP: sparse
// embedding-style input layer, then dense ReLU layers):
//
//	z[u] = bias[u] + Σ_j w[enc.Index(j, x_j)*h + u]   for u < h
//	class = ClassifyHidden(z)
//
// with enc = NewEncoder(features). It is the serving seam that lifts the
// factorized partial-score trick one layer into the network: because z is
// linear in the features, each dimension table's contribution to z is a
// per-dimension-row h-vector that can be precomputed once and added per
// request — one vector add per dimension table instead of one embedding-row
// add per dimension feature, and no join gather at all.
//
// ExportHiddenLinear returns ok == false when the classifier cannot be
// expressed this way (unfitted models, mismatched features); the returned
// slices are fresh copies owned by the caller, with w holding one h-wide row
// per one-hot dimension in encoder order.
//
// ClassifyHidden classifies n examples whose first-layer pre-activations are
// packed row-major in z (n rows of h); z is scratch and may be clobbered.
// The tail layers must fold each output element sequentially in the same
// order as the per-row Predict (the mat kernels' bit-identity contract), so
// for identical z the classes equal Predict's. Hoisting per-dimension
// partials reassociates the first-layer sum, so cross-path class agreement
// is pinned empirically by the serving equivalence tests, exactly as the
// linear engines pin factorized-vs-eager classes.
type HiddenLinearExporter interface {
	ExportHiddenLinear(features []Feature) (bias []float64, w []float64, h int, ok bool)
	ClassifyHidden(dst []int8, z []float64, n int)
}
