package knn

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/relational"
)

// Params is the serializable state of a fitted 1-NN classifier: the
// memorized training examples, row-major, in training order (order matters —
// ties break to the earliest example).
type Params struct {
	X []relational.Value // len = n × feature count
	Y []int8
}

// ExportParams copies the memorized training set.
func (k *OneNN) ExportParams() (Params, error) {
	if k.y == nil {
		return Params{}, fmt.Errorf("knn: export before Fit")
	}
	return Params{
		X: append([]relational.Value(nil), k.x...),
		Y: append([]int8(nil), k.y...),
	}, nil
}

// FromParams reconstructs a fitted 1-NN classifier from validated params:
// whole rows of the features, at least one example, labels in {0,1}, and
// every code inside its feature's domain. The classifier keeps p's slices.
func FromParams(features []ml.Feature, p Params) (*OneNN, error) {
	d := len(features)
	if d == 0 || len(p.X)%d != 0 {
		return nil, fmt.Errorf("knn: example block of %d values is not a multiple of %d features", len(p.X), d)
	}
	if len(p.X)/d != len(p.Y) {
		return nil, fmt.Errorf("knn: %d example rows but %d labels", len(p.X)/d, len(p.Y))
	}
	if len(p.Y) == 0 {
		return nil, fmt.Errorf("knn: empty training set")
	}
	for i, y := range p.Y {
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("knn: label %d of example %d outside {0,1}", y, i)
		}
	}
	for at, v := range p.X {
		if f := features[at%d]; v < 0 || int(v) >= f.Cardinality {
			return nil, fmt.Errorf("knn: example %d feature %q: code %d outside domain of size %d", at/d, f.Name, v, f.Cardinality)
		}
	}
	return &OneNN{x: p.X, y: p.Y}, nil
}
