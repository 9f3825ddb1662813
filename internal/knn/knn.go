// Package knn implements the 1-nearest-neighbour classifier the paper uses
// as its "braindead" comparator (§3, §5). On one-hot encoded categorical
// features, squared Euclidean distance is 2·(d − matches), so the nearest
// neighbour under Euclidean distance is exactly the nearest under Hamming
// distance over the categorical codes; no encoding is materialized.
//
// Ties (multiple stored examples at the minimal distance) are broken by the
// earliest training example, which makes predictions deterministic.
package knn

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/relational"
)

// OneNN is a 1-nearest-neighbour classifier. The zero value is unfitted.
type OneNN struct {
	x []relational.Value // memorized examples, row-major, in training order
	y []int8
}

// New returns an unfitted 1-NN classifier.
func New() *OneNN { return &OneNN{} }

// Name implements ml.Named.
func (k *OneNN) Name() string { return "1-NN" }

// Fit memorizes the training set (1-NN has no parameters; the paper notes it
// also has no hyper-parameters to tune). The rows are pinned once into a
// dense block, so Predict reads no shared dataset state and is safe for
// concurrent callers.
func (k *OneNN) Fit(train *ml.Dataset) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("knn: empty training set")
	}
	k.x, k.y = ml.ScanRowMajor(train)
	return nil
}

// Predict returns the label of the nearest stored example by Hamming
// distance (equivalently one-hot Euclidean distance).
func (k *OneNN) Predict(row []relational.Value) int8 {
	d := len(k.x) / len(k.y)
	best := -1
	bestMatches := -1
	for i := range k.y {
		m := ml.MatchCount(k.x[i*d:(i+1)*d], row)
		if m > bestMatches {
			bestMatches = m
			best = i
			if m == len(row) {
				break // exact match; no closer neighbour exists
			}
		}
	}
	return k.y[best]
}
