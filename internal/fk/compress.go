// Package fk implements the two practicality techniques for foreign-key
// features from the paper's §6: lossy domain compression (to make trees
// that split on huge FK domains interpretable) and smoothing of FK values
// unseen during training (R's trees simply crash on them).
package fk

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// Compressor maps an FK domain [m] onto a smaller budget domain [l].
type Compressor interface {
	// Map returns the compressed code of v, always in [0, Budget()).
	Map(v relational.Value) relational.Value
	// Budget returns l, the compressed domain size.
	Budget() int
}

// RandomHash is the unsupervised baseline (§6.1): the "hashing trick" —
// each original value is assigned a uniform random bucket in [l].
type RandomHash struct {
	table  []relational.Value
	budget int
}

// NewRandomHash builds a random mapping from a domain of size m to [l].
func NewRandomHash(m, l int, r *rng.RNG) (*RandomHash, error) {
	if l < 1 || m < 1 {
		return nil, fmt.Errorf("fk: invalid compression m=%d l=%d", m, l)
	}
	if l > m {
		l = m
	}
	t := make([]relational.Value, m)
	for v := range t {
		t[v] = relational.Value(r.Intn(l))
	}
	return &RandomHash{table: t, budget: l}, nil
}

// Map implements Compressor.
func (h *RandomHash) Map(v relational.Value) relational.Value { return h.table[v] }

// Budget implements Compressor.
func (h *RandomHash) Budget() int { return h.budget }

// SortBased is the paper's supervised heuristic (§6.1): sort the FK values
// by the conditional entropy H(Y | FK = v) estimated on training data,
// compute differences between adjacent values, and cut at the l−1 largest
// differences, yielding an l-partition that groups values with comparable
// informativeness about Y.
type SortBased struct {
	table  []relational.Value
	budget int
}

// NewSortBased fits the compressor on the training split: fkCol is the FK
// feature's index within the dataset. Values that never occur in training
// are assigned by their prior-less entropy (treated as maximally uncertain,
// landing them in the bucket holding H = 1 values, or the last bucket).
func NewSortBased(train *ml.Dataset, fkCol, l int, r *rng.RNG) (*SortBased, error) {
	if fkCol < 0 || fkCol >= train.NumFeatures() {
		return nil, fmt.Errorf("fk: feature index %d out of range", fkCol)
	}
	m := train.Features[fkCol].Cardinality
	if l < 1 {
		return nil, fmt.Errorf("fk: budget must be positive, got %d", l)
	}
	if l > m {
		l = m
	}
	// Estimate H(Y | FK = v) per value.
	counts := make([][2]int, m)
	vals := make([]relational.Value, train.NumExamples())
	labels := make([]int8, len(vals))
	train.ScanFeature(vals, fkCol, 0)
	train.ScanLabels(labels, 0)
	for i, v := range vals {
		counts[v][labels[i]]++
	}
	type ventry struct {
		v relational.Value
		h float64
	}
	entries := make([]ventry, m)
	for v := range counts {
		n := counts[v][0] + counts[v][1]
		h := 1.0 // unseen values: maximal uncertainty
		if n > 0 {
			p := float64(counts[v][1]) / float64(n)
			h = binaryEntropy(p)
		}
		entries[v] = ventry{v: relational.Value(v), h: h}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].h != entries[b].h {
			return entries[a].h < entries[b].h
		}
		return entries[a].v < entries[b].v
	})
	// Adjacent differences; pick top l−1 boundaries (ties broken by a
	// seeded shuffle of equal candidates, per the paper "ties broken
	// randomly").
	type boundary struct {
		at   int // cut between entries[at] and entries[at+1]
		diff float64
	}
	bs := make([]boundary, 0, m-1)
	for i := 0; i+1 < len(entries); i++ {
		bs = append(bs, boundary{at: i, diff: entries[i+1].h - entries[i].h})
	}
	r.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	sort.SliceStable(bs, func(a, b int) bool { return bs[a].diff > bs[b].diff })
	cuts := make([]int, 0, l-1)
	for i := 0; i < l-1 && i < len(bs); i++ {
		cuts = append(cuts, bs[i].at)
	}
	sort.Ints(cuts)

	table := make([]relational.Value, m)
	bucket := relational.Value(0)
	ci := 0
	for i, e := range entries {
		table[e.v] = bucket
		if ci < len(cuts) && cuts[ci] == i {
			bucket++
			ci++
		}
	}
	return &SortBased{table: table, budget: l}, nil
}

// Map implements Compressor.
func (s *SortBased) Map(v relational.Value) relational.Value { return s.table[v] }

// Budget implements Compressor.
func (s *SortBased) Budget() int { return s.budget }

// CompressFeature rewrites feature fkCol of a dataset through the
// compressor, returning a new dataset whose feature cardinality is the
// budget. The same fitted compressor must be applied to train, validation,
// and test (the paper fits f on the training split and compresses the whole
// dataset). The result is a new in-memory table (ml.FromRows): a
// value-rewriting transform has to own its storage, so this is the one copy
// the compression pipeline pays regardless of whether the input is a view.
func CompressFeature(ds *ml.Dataset, fkCol int, c Compressor) (*ml.Dataset, error) {
	if fkCol < 0 || fkCol >= ds.NumFeatures() {
		return nil, fmt.Errorf("fk: feature index %d out of range", fkCol)
	}
	feats := append([]ml.Feature(nil), ds.Features...)
	feats[fkCol].Cardinality = c.Budget()
	x, y := ml.ScanRowMajor(ds)
	d := len(feats)
	for i := fkCol; i < len(x); i += d {
		x[i] = c.Map(x[i])
	}
	return ml.FromRows(feats, x, y)
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return float64(-p*math.Log2(p)) - float64((1-p)*math.Log2(1-p))
}
