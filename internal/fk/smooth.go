package fk

import (
	"fmt"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// RandomSmoother reassigns an unseen FK value to a uniformly chosen value
// that was seen during training — the unsupervised baseline of §6.2. It
// implements tree.Smoother.
type RandomSmoother struct {
	seen [][]relational.Value // per feature: values observed in training
	r    *rng.RNG
}

// NewRandomSmoother records the seen-value sets of every feature of the
// training split.
func NewRandomSmoother(train *ml.Dataset, seed uint64) (*RandomSmoother, error) {
	if train.NumExamples() == 0 {
		return nil, fmt.Errorf("fk: empty training set")
	}
	s := &RandomSmoother{r: rng.New(seed)}
	s.seen = seenValues(train)
	return s, nil
}

// seenValues collects, per feature, the sorted distinct values present.
func seenValues(ds *ml.Dataset) [][]relational.Value {
	out := make([][]relational.Value, ds.NumFeatures())
	buf := make([]relational.Value, min(ds.NumExamples(), 4096))
	for j := range out {
		seen := make([]bool, ds.Features[j].Cardinality)
		for from := 0; ; {
			m := ds.ScanFeature(buf, j, from)
			if m == 0 {
				break
			}
			for _, v := range buf[:m] {
				seen[v] = true
			}
			from += m
		}
		for v, ok := range seen {
			if ok {
				out[j] = append(out[j], relational.Value(v))
			}
		}
	}
	return out
}

// Remap implements tree.Smoother: unseen values map to a random seen value;
// seen values pass through.
func (s *RandomSmoother) Remap(feature int, v relational.Value) relational.Value {
	vals := s.seen[feature]
	for _, sv := range vals {
		if sv == v {
			return v
		}
	}
	if len(vals) == 0 {
		return v
	}
	return vals[s.r.Intn(len(vals))]
}

// XRSmoother is the paper's dimension-table-aware reassignment (§6.2): an
// unseen FK value is mapped to the *seen* FK value whose foreign-feature
// vector X_R has minimum l0 distance (count of mismatched features) to the
// unseen value's X_R. The dimension table provides the X_R rows — this is
// the "side information" use of foreign features: R helps smooth FK even
// when its features are not used for learning.
type XRSmoother struct {
	// xrRows[v] is the X_R feature vector of dimension row v.
	xrRows [][]relational.Value
	// seenFK lists FK values present in training, ascending.
	seenFK []relational.Value
	// fkFeature is the dataset feature index this smoother applies to;
	// Remap passes other features through untouched.
	fkFeature int
	r         *rng.RNG
}

// NewXRSmoother builds the smoother for the FK feature at index fkFeature
// of the training dataset. dim must be the referenced dimension table; its
// KindFeature columns form X_R.
func NewXRSmoother(train *ml.Dataset, fkFeature int, dim *relational.Table, seed uint64) (*XRSmoother, error) {
	if fkFeature < 0 || fkFeature >= train.NumFeatures() {
		return nil, fmt.Errorf("fk: feature index %d out of range", fkFeature)
	}
	card := train.Features[fkFeature].Cardinality
	if dim.NumRows() != card {
		return nil, fmt.Errorf("fk: dimension table has %d rows, FK domain is %d", dim.NumRows(), card)
	}
	featIdx := dim.Schema().ColumnsOfKind(relational.KindFeature)
	if len(featIdx) == 0 {
		return nil, fmt.Errorf("fk: dimension table %q has no feature columns", dim.Name)
	}
	s := &XRSmoother{fkFeature: fkFeature, r: rng.New(seed)}
	s.xrRows = make([][]relational.Value, card)
	for v := 0; v < card; v++ {
		row := make([]relational.Value, len(featIdx))
		for j, c := range featIdx {
			row[j] = dim.At(v, c)
		}
		s.xrRows[v] = row
	}
	s.seenFK = seenValues(train.SelectFeatures([]int{fkFeature}))[0]
	if len(s.seenFK) == 0 {
		return nil, fmt.Errorf("fk: no FK values seen in training")
	}
	return s, nil
}

// Remap implements tree.Smoother: an unseen FK value maps to the seen value
// minimizing the l0 distance between X_R vectors; ties break uniformly at
// random among the minimizers. Other features pass through.
func (s *XRSmoother) Remap(feature int, v relational.Value) relational.Value {
	if feature != s.fkFeature {
		return v
	}
	if int(v) < 0 || int(v) >= len(s.xrRows) {
		return s.seenFK[0]
	}
	for _, sv := range s.seenFK {
		if sv == v {
			return v
		}
	}
	target := s.xrRows[v]
	bestDist := len(target) + 1
	var ties []relational.Value
	for _, sv := range s.seenFK {
		cand := s.xrRows[sv]
		dist := 0
		for j := range target {
			if cand[j] != target[j] {
				dist++
			}
		}
		if dist < bestDist {
			bestDist = dist
			ties = ties[:0]
			ties = append(ties, sv)
		} else if dist == bestDist {
			ties = append(ties, sv)
		}
	}
	return ties[s.r.Intn(len(ties))]
}
