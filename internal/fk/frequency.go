package fk

import (
	"fmt"
	"sort"

	"repro/internal/ml"
	"repro/internal/relational"
)

// FrequencyBased compresses an FK domain by keeping the l−1 most frequent
// values (by training count) as singleton buckets and collapsing everything
// else into one "Others" bucket — the materialized form of the paper's §2.2
// "Others" placeholder convention, offered as a third compression strategy
// next to RandomHash and SortBased. Rare FK values contribute the most
// variance per unit of information, so folding the tail often loses little
// accuracy while shrinking the domain drastically under Zipfian skew.
type FrequencyBased struct {
	table  []relational.Value
	budget int
}

// NewFrequencyBased fits the compressor on the training split: fkCol is the
// FK feature index, l the total budget (including the Others bucket).
// Bucket l−1 is Others; values never seen in training land there too.
func NewFrequencyBased(train *ml.Dataset, fkCol, l int) (*FrequencyBased, error) {
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
	counts := make([]int, m)
	col := make([]relational.Value, train.NumExamples())
	train.ScanFeature(col, fkCol, 0)
	for _, v := range col {
		counts[v]++
	}
	type vc struct {
		v relational.Value
		n int
	}
	vals := make([]vc, m)
	for v := range counts {
		vals[v] = vc{v: relational.Value(v), n: counts[v]}
	}
	sort.Slice(vals, func(a, b int) bool {
		if vals[a].n != vals[b].n {
			return vals[a].n > vals[b].n
		}
		return vals[a].v < vals[b].v
	})
	table := make([]relational.Value, m)
	others := relational.Value(l - 1)
	for i := range table {
		table[i] = others
	}
	for rank := 0; rank < l-1 && rank < len(vals); rank++ {
		table[vals[rank].v] = relational.Value(rank)
	}
	return &FrequencyBased{table: table, budget: l}, nil
}

// Map implements Compressor.
func (f *FrequencyBased) Map(v relational.Value) relational.Value {
	if int(v) < 0 || int(v) >= len(f.table) {
		return relational.Value(f.budget - 1) // unknown → Others
	}
	return f.table[v]
}

// Budget implements Compressor.
func (f *FrequencyBased) Budget() int { return f.budget }
