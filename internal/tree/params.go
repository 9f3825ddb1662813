package tree

import (
	"fmt"
	"sort"

	"repro/internal/relational"
)

// NodeParams is one serialized tree node. Split routing is stored as the
// sorted list of values seen at the node with a parallel go-left mask —
// a deterministic encoding of the goLeft map.
type NodeParams struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature    int
	LeftChild  int
	RightChild int
	Prediction int8
	N          int
	NLeft      int
	// SplitValues are the feature values seen at this node during training,
	// ascending; SplitLeft[i] reports whether SplitValues[i] routes left.
	SplitValues []relational.Value
	SplitLeft   []bool
}

// Params is the serializable state of a fitted decision tree. The unseen
// policy travels with the model (it is prediction-time behaviour); a
// Smoother does not — trees configured with UnseenSmooth and a live smoother
// refuse to export, since the smoother's state lives in another component.
type Params struct {
	Criterion int
	MinSplit  int
	CP        float64
	MaxDepth  int
	Unseen    int
	NFeatures int
	Nodes     []NodeParams
}

// ExportParams snapshots the fitted tree with goLeft maps flattened into
// sorted value lists (deterministic bytes for identical trees).
func (t *Tree) ExportParams() (Params, error) {
	if len(t.nodes) == 0 {
		return Params{}, fmt.Errorf("tree: export before Fit")
	}
	if t.cfg.Smoother != nil {
		return Params{}, fmt.Errorf("tree: cannot export a tree with an attached Smoother")
	}
	p := Params{
		Criterion: int(t.cfg.Criterion),
		MinSplit:  t.cfg.MinSplit,
		CP:        t.cfg.CP,
		MaxDepth:  t.cfg.MaxDepth,
		Unseen:    int(t.cfg.Unseen),
		NFeatures: t.nFeatures,
		Nodes:     make([]NodeParams, len(t.nodes)),
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		np := NodeParams{
			Feature:    nd.feature,
			LeftChild:  nd.leftChild,
			RightChild: nd.rightChild,
			Prediction: nd.prediction,
			N:          nd.n,
			NLeft:      nd.nLeft,
		}
		if nd.goLeft != nil {
			np.SplitValues = make([]relational.Value, 0, len(nd.goLeft))
			for v := range nd.goLeft {
				np.SplitValues = append(np.SplitValues, v)
			}
			sort.Slice(np.SplitValues, func(a, b int) bool { return np.SplitValues[a] < np.SplitValues[b] })
			np.SplitLeft = make([]bool, len(np.SplitValues))
			for k, v := range np.SplitValues {
				np.SplitLeft[k] = nd.goLeft[v]
			}
		}
		p.Nodes[i] = np
	}
	return p, nil
}

// FromParams reconstructs a fitted tree. Node links are validated — in
// range and strictly forward-pointing (Fit appends children after their
// parent, so any valid export satisfies this) — so Predict on a decoded
// tree can neither walk out of the array nor loop forever, and nFeatures
// must match the feature schema the artifact carries.
func FromParams(nFeatures int, p Params) (*Tree, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("tree: no nodes")
	}
	if p.NFeatures != nFeatures {
		return nil, fmt.Errorf("tree: payload claims %d features, schema has %d", p.NFeatures, nFeatures)
	}
	if c := Criterion(p.Criterion); c != Gini && c != InfoGain && c != GainRatio {
		return nil, fmt.Errorf("tree: unknown criterion %d", p.Criterion)
	}
	if u := UnseenPolicy(p.Unseen); u != UnseenMajority && u != UnseenError && u != UnseenSmooth {
		return nil, fmt.Errorf("tree: unknown unseen policy %d", p.Unseen)
	}
	t := New(Config{
		Criterion: Criterion(p.Criterion),
		MinSplit:  p.MinSplit,
		CP:        p.CP,
		MaxDepth:  p.MaxDepth,
		Unseen:    UnseenPolicy(p.Unseen),
	})
	t.nFeatures = p.NFeatures
	t.nodes = make([]node, len(p.Nodes))
	for i, np := range p.Nodes {
		if np.Prediction != 0 && np.Prediction != 1 {
			return nil, fmt.Errorf("tree: node %d predicts class %d outside {0,1}", i, np.Prediction)
		}
		nd := node{
			feature:    np.Feature,
			leftChild:  np.LeftChild,
			rightChild: np.RightChild,
			prediction: np.Prediction,
			n:          np.N,
			nLeft:      np.NLeft,
		}
		if np.Feature >= 0 {
			if np.Feature >= p.NFeatures {
				return nil, fmt.Errorf("tree: node %d splits feature %d of %d", i, np.Feature, p.NFeatures)
			}
			if np.LeftChild <= i || np.LeftChild >= len(p.Nodes) || np.RightChild <= i || np.RightChild >= len(p.Nodes) {
				return nil, fmt.Errorf("tree: node %d has invalid children %d/%d (must point forward within [%d,%d))",
					i, np.LeftChild, np.RightChild, i+1, len(p.Nodes))
			}
			if len(np.SplitValues) != len(np.SplitLeft) {
				return nil, fmt.Errorf("tree: node %d has %d split values but %d masks", i, len(np.SplitValues), len(np.SplitLeft))
			}
			nd.goLeft = make(map[relational.Value]bool, len(np.SplitValues))
			for k, v := range np.SplitValues {
				nd.goLeft[v] = np.SplitLeft[k]
			}
		}
		t.nodes[i] = nd
	}
	return t, nil
}
