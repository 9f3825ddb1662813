// Package tree implements a CART-style binary decision tree for categorical
// features, mirroring the configuration the paper drives through R's rpart
// (gini and information-gain splits) and CORElearn (gain ratio):
//
//   - minsplit: the minimum number of examples a node must hold before a
//     split is even attempted;
//   - cp: the complexity parameter — a split is kept only if it improves the
//     whole-tree impurity by at least cp × (root impurity), which is rpart's
//     pre-pruning rule.
//
// Categorical splits are binary subset splits. For a binary target and any
// concave impurity (gini, entropy), the optimal subset split is found by
// sorting the categories by P(Y=1 | value) and scanning the |D|−1 boundary
// partitions (Breiman et al., 1984), which makes large-domain foreign-key
// features — the heart of the paper — tractable: cost O(|D| log |D|) rather
// than O(2^|D|).
//
// Unseen values: the paper notes that R's tree implementations simply crash
// when a foreign-key value that never occurred in training shows up at test
// time (§6.2). The tree makes that policy explicit and pluggable via
// UnseenPolicy; the Figure 11 smoothing experiments install a Smoother.
package tree

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/ml"
	"repro/internal/relational"
)

// Criterion selects the impurity function used to score splits.
type Criterion int

const (
	// Gini is the CART gini index (rpart's default).
	Gini Criterion = iota
	// InfoGain is entropy reduction (rpart's "information" split).
	InfoGain
	// GainRatio is information gain normalized by the split's intrinsic
	// information (Quinlan's C4.5 criterion; the paper uses CORElearn's).
	GainRatio
)

func (c Criterion) String() string {
	switch c {
	case Gini:
		return "gini"
	case InfoGain:
		return "information"
	case GainRatio:
		return "gain-ratio"
	default:
		return fmt.Sprintf("Criterion(%d)", int(c))
	}
}

// UnseenPolicy decides what Predict does when a test example carries a
// feature value that never reached a split node during training.
type UnseenPolicy int

const (
	// UnseenMajority routes the example to the branch holding the majority
	// of the node's training examples (the default; a standard heuristic).
	UnseenMajority UnseenPolicy = iota
	// UnseenError makes Predict panic, reproducing the R behaviour the
	// paper complains about. Use only in tests.
	UnseenError
	// UnseenSmooth invokes the configured Smoother to remap the value to a
	// value seen during training, then routes normally (Figure 11).
	UnseenSmooth
)

// Smoother remaps an unseen value of feature j to a value that was seen in
// training. Implementations live in internal/fk.
type Smoother interface {
	Remap(feature int, v relational.Value) relational.Value
}

// Config holds the tunable hyper-parameters, matching the paper's grid:
// minsplit ∈ {1,10,100,1000}, cp ∈ {1e-4,1e-3,0.01,0.1,0}.
type Config struct {
	Criterion Criterion
	MinSplit  int
	CP        float64
	MaxDepth  int // 0 means unlimited
	Unseen    UnseenPolicy
	Smoother  Smoother
}

// node is one tree node. Leaves have leftChild == -1.
type node struct {
	// feature is the split feature index; goLeft[v] is true when value v
	// routes left. Values absent from goLeft's map were unseen at this node.
	feature    int
	goLeft     map[relational.Value]bool
	leftChild  int
	rightChild int
	// prediction and counts are populated for every node so that unseen
	// routing can fall back mid-path.
	prediction int8
	n          int
	nLeft      int
}

// Tree is a fitted decision tree classifier. The zero value is unusable;
// construct with New and call Fit.
type Tree struct {
	cfg       Config
	nodes     []node
	nFeatures int
	// batch holds the columnar split-search scratch while Fit runs; nil
	// afterwards.
	batch *batchState
}

// Batch split-search tuning. A node's examples are processed in morsel-sized
// gather+tally steps; nodes at least parallelSplitThreshold examples wide
// fan their morsel spans out across goroutines (bounded by
// ml.MaxParallelism; ml.ParallelFor additionally degrades nested fan-outs to
// sequential, so a Fit inside a grid-search worker never stacks pools). The
// tallies are integer sums, so the reduction is deterministic regardless of
// scheduling; smaller nodes stay sequential to keep goroutine overhead away
// from the deep, narrow part of the tree.
const (
	batchMorsel            = 4096
	parallelSplitThreshold = 4096
)

// batchState is the per-Fit scratch of the columnar split search. All
// buffers are allocated once per Fit and reused at every node; per-value
// state (cnt, seen) is cleared via the distinct-value list, so a small node
// never pays O(domain) for a large-cardinality feature.
type batchState struct {
	labels []int8 // per-example labels, scanned once per Fit
	nodeY  []int8 // node-local labels aligned to the node's idx
	// cand lists the candidate features in ascending order: every feature
	// whose storage-level [min, max] does not prove it constant. The proof
	// holds for the whole relation, so the list is fixed for the Fit.
	cand []int
	// block holds the node's candidate columns, gathered in one call:
	// feature cand[c] of the node's k-th example at block[c*len(idx)+k].
	block    []relational.Value
	cnt      [][]int32          // per-span tallies: cnt[s][2v] = count, cnt[s][2v+1] = positives
	seen     []bool             // distinct-value marks, len = max cardinality
	distinct []relational.Value // distinct values of the current column
	tallies  []vc               // merged per-value tallies handed to evalFeature
}

func newBatchState(train *ml.Dataset) *batchState {
	n := train.NumExamples()
	maxCard := 2
	var cand []int
	for j, f := range train.Features {
		if f.Cardinality > maxCard {
			maxCard = f.Cardinality
		}
		// Constant-feature skip: a feature whose storage-level [min, max]
		// proves it constant can never produce two tally buckets, so it is
		// never gathered. Same outcome as tallying it (len(tallies) < 2), so the
		// fitted tree is unchanged.
		if lo, hi, ok := train.FeatureRange(j); !ok || lo != hi {
			cand = append(cand, j)
		}
	}
	spans := ml.Parallelism((n + batchMorsel - 1) / batchMorsel)
	if spans < 1 {
		spans = 1
	}
	bs := &batchState{
		labels: make([]int8, n),
		nodeY:  make([]int8, n),
		cand:   cand,
		block:  make([]relational.Value, len(cand)*n),
		cnt:    make([][]int32, spans),
		seen:   make([]bool, maxCard),
	}
	train.ScanLabels(bs.labels, 0)
	for s := range bs.cnt {
		bs.cnt[s] = make([]int32, 2*maxCard)
	}
	return bs
}

// New returns an unfitted tree with the given configuration.
func New(cfg Config) *Tree {
	if cfg.MinSplit < 1 {
		cfg.MinSplit = 1
	}
	return &Tree{cfg: cfg}
}

// Name implements ml.Named.
func (t *Tree) Name() string { return "DecisionTree(" + t.cfg.Criterion.String() + ")" }

// impurity computes the node impurity for (pos, n) under the configured
// criterion. GainRatio uses entropy here; the ratio normalization happens at
// split scoring.
func (t *Tree) impurity(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	switch t.cfg.Criterion {
	case Gini:
		return 2 * p * (1 - p)
	default: // InfoGain, GainRatio
		return binaryEntropy(p)
	}
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// split describes a candidate split during search. gain is the tree-level
// weighted impurity decrease used by the cp test; score is the selection
// criterion value (raw decrease, or the ratio for GainRatio).
type split struct {
	feature int
	goLeft  map[relational.Value]bool
	gain    float64
	score   float64
	nLeft   int
}

// Fit grows the tree on train. It never returns an error for well-formed
// datasets; an empty dataset is rejected.
//
// The split search runs on the batched column path (see bestSplit).
func (t *Tree) Fit(train *ml.Dataset) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	t.nFeatures = train.NumFeatures()
	t.nodes = t.nodes[:0]
	t.batch = newBatchState(train)
	idx := make([]int, train.NumExamples())
	for i := range idx {
		idx[i] = i
	}
	rootImpurity := t.impurity(t.countPos(idx), len(idx))
	if rootImpurity == 0 {
		rootImpurity = 1 // degenerate pure root; cp threshold is irrelevant
	}
	growT0 := time.Now()
	t.grow(train, idx, rootImpurity, 0)
	splitSpan.ObserveSince(growT0)
	t.batch = nil
	return nil
}

// countPos counts positive labels in the node's example set, reading the
// label vector cached at Fit time.
func (t *Tree) countPos(idx []int) int {
	pos := 0
	for _, i := range idx {
		pos += int(t.batch.labels[i])
	}
	return pos
}

// grow recursively builds the subtree over idx and returns its node index.
func (t *Tree) grow(ds *ml.Dataset, idx []int, rootImpurity float64, depth int) int {
	pos := t.countPos(idx)
	me := len(t.nodes)
	pred := int8(0)
	if 2*pos >= len(idx) {
		pred = 1
	}
	t.nodes = append(t.nodes, node{
		feature: -1, leftChild: -1, rightChild: -1,
		prediction: pred, n: len(idx),
	})

	if pos == 0 || pos == len(idx) {
		return me // pure
	}
	if len(idx) < t.cfg.MinSplit {
		return me
	}
	if t.cfg.MaxDepth > 0 && depth >= t.cfg.MaxDepth {
		return me
	}
	best := t.bestSplit(ds, idx)
	if best == nil {
		return me
	}
	// rpart's cp rule: keep the split only if the tree-level impurity
	// improvement is at least cp × root impurity. gain here is already the
	// node-local impurity decrease weighted by the node's example share.
	if t.cfg.CP > 0 && best.gain < t.cfg.CP*rootImpurity {
		return me
	}

	left := make([]int, 0, best.nLeft)
	right := make([]int, 0, len(idx)-best.nLeft)
	// Route on the winning feature's column, still in the block bestSplit
	// gathered. Routing is a sequential order-preserving pass, so the
	// children's example order — and therefore the fitted tree — is
	// identical at any worker count.
	n := len(idx)
	c := sort.SearchInts(t.batch.cand, best.feature)
	vals := t.batch.block[c*n : (c+1)*n]
	for k, i := range idx {
		if best.goLeft[vals[k]] {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return me
	}
	t.nodes[me].feature = best.feature
	t.nodes[me].goLeft = best.goLeft
	t.nodes[me].nLeft = len(left)
	lc := t.grow(ds, left, rootImpurity, depth+1)
	rc := t.grow(ds, right, rootImpurity, depth+1)
	t.nodes[me].leftChild = lc
	t.nodes[me].rightChild = rc
	return me
}

// vc is one present value's tally at a node: occurrence count, positive
// count, and the positive rate the optimal-partition sort keys on.
type vc struct {
	v    relational.Value
	n    int
	pos  int
	rate float64
}

// bestSplit searches the candidate features for the best binary subset
// split. It first gathers every candidate column of the node's examples
// into the block with one GatherFeatures call per morsel — fanned out
// across goroutines for wide nodes — so a spilled table pins each touched
// segment once per morsel for all features. Then, column at a time, it
// tallies into dense per-span count arrays and merges the spans over the
// distinct-value list. The per-(node, feature) cost is O(|node| + distinct),
// independent of the feature's domain size, and every inner loop is a
// devirtualized array walk. The block stays valid for grow's routing.
func (t *Tree) bestSplit(ds *ml.Dataset, idx []int) *split {
	bs := t.batch
	nodeN := len(idx)
	nodeY := bs.nodeY[:nodeN]
	nodePos := 0
	for k, i := range idx {
		y := bs.labels[i]
		nodeY[k] = y
		nodePos += int(y)
	}
	nodeImp := t.impurity(nodePos, nodeN)
	totalN := float64(ds.NumExamples())

	spans := 1
	if nodeN >= parallelSplitThreshold {
		spans = ml.Parallelism((nodeN + batchMorsel - 1) / batchMorsel)
		if spans > len(bs.cnt) {
			spans = len(bs.cnt)
		}
		if spans < 1 {
			spans = 1
		}
	}

	block := bs.block[:len(bs.cand)*nodeN]
	ml.ParallelFor(spans, func(s int) {
		lo, hi := nodeN*s/spans, nodeN*(s+1)/spans
		for m := lo; m < hi; m += batchMorsel {
			mh := min(m+batchMorsel, hi)
			ds.GatherFeatures(block[m:], nodeN, bs.cand, idx[m:mh])
		}
	})
	var best *split
	for c, j := range bs.cand {
		vals := block[c*nodeN : (c+1)*nodeN]
		ml.ParallelFor(spans, func(s int) {
			lo, hi := nodeN*s/spans, nodeN*(s+1)/spans
			cnt := bs.cnt[s]
			for k := lo; k < hi; k++ {
				v := vals[k]
				cnt[2*v]++
				cnt[2*v+1] += int32(nodeY[k])
			}
		})
		// Enumerate distinct values (first-occurrence order — the sort in
		// evalFeature canonicalizes it), merge the span tallies, and clear
		// the touched slots for the next feature.
		distinct := bs.distinct[:0]
		for _, v := range vals {
			if !bs.seen[v] {
				bs.seen[v] = true
				distinct = append(distinct, v)
			}
		}
		tallies := bs.tallies[:0]
		for _, v := range distinct {
			var cn, cp int32
			for s := 0; s < spans; s++ {
				cn += bs.cnt[s][2*v]
				cp += bs.cnt[s][2*v+1]
				bs.cnt[s][2*v], bs.cnt[s][2*v+1] = 0, 0
			}
			bs.seen[v] = false
			tallies = append(tallies, vc{v: v, n: int(cn), pos: int(cp), rate: float64(cp) / float64(cn)})
		}
		bs.distinct = distinct[:0]
		bs.tallies = tallies[:0]
		if len(tallies) < 2 {
			continue
		}
		best = t.evalFeature(j, tallies, nodeN, nodePos, nodeImp, totalN, best)
	}
	return best
}

// evalFeature sorts one feature's value tallies by P(Y=1 | v) and scans the
// |D|−1 boundary partitions (Breiman's optimal binary subset split for a
// binary target), returning the better of the incoming best and this
// feature's best candidate.
func (t *Tree) evalFeature(j int, vals []vc, nodeN, nodePos int, nodeImp, totalN float64, best *split) *split {
	sort.Slice(vals, func(a, b int) bool {
		if vals[a].rate != vals[b].rate {
			return vals[a].rate < vals[b].rate
		}
		return vals[a].v < vals[b].v
	})
	leftN, leftPos := 0, 0
	for cut := 0; cut < len(vals)-1; cut++ {
		leftN += vals[cut].n
		leftPos += vals[cut].pos
		rightN := nodeN - leftN
		rightPos := nodePos - leftPos
		wl := float64(leftN) / float64(nodeN)
		wr := float64(rightN) / float64(nodeN)
		childImp := wl*t.impurity(leftPos, leftN) + wr*t.impurity(rightPos, rightN)
		decrease := nodeImp - childImp
		score := decrease
		if t.cfg.Criterion == GainRatio {
			// Normalize by the split's intrinsic information.
			ii := binaryEntropy(wl)
			if ii < 1e-9 {
				continue
			}
			score = decrease / ii
		}
		if score < 0 {
			continue
		}
		// Zero-gain splits are allowed (a fully grown cp=0 tree keeps
		// partitioning until purity, which is how CART learns XOR-like
		// interactions whose first split has no marginal gain); the cp
		// rule prunes them whenever cp > 0.
		// Tree-level weighted gain used for the cp test. For gain
		// ratio the selection uses the ratio but the cp test still
		// uses raw decrease, matching CORElearn's pruning semantics.
		gain := decrease * float64(nodeN) / totalN
		if best == nil || score > best.score {
			goLeft := make(map[relational.Value]bool, len(vals))
			for k := 0; k <= cut; k++ {
				goLeft[vals[k].v] = true
			}
			for k := cut + 1; k < len(vals); k++ {
				goLeft[vals[k].v] = false
			}
			best = &split{feature: j, goLeft: goLeft, gain: gain, score: score, nLeft: leftN}
		}
	}
	return best
}

// Predict classifies one example.
func (t *Tree) Predict(row []relational.Value) int8 {
	if len(t.nodes) == 0 {
		return 0
	}
	at := 0
	for {
		nd := &t.nodes[at]
		if nd.feature < 0 {
			return nd.prediction
		}
		v := row[nd.feature]
		left, seen := nd.goLeft[v]
		if !seen {
			switch t.cfg.Unseen {
			case UnseenError:
				panic(fmt.Sprintf("tree: value %d of feature %d unseen during training", v, nd.feature))
			case UnseenSmooth:
				if t.cfg.Smoother != nil {
					rv := t.cfg.Smoother.Remap(nd.feature, v)
					if l, ok := nd.goLeft[rv]; ok {
						left = l
						break
					}
				}
				left = nd.nLeft*2 >= nd.n
			default: // UnseenMajority
				left = nd.nLeft*2 >= nd.n
			}
		}
		if left {
			at = nd.leftChild
		} else {
			at = nd.rightChild
		}
	}
}

// NumNodes returns the number of nodes, splits and leaves alike.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of leaf nodes reachable from the root.
func (t *Tree) NumLeaves() int {
	if len(t.nodes) == 0 {
		return 0
	}
	var rec func(i int) int
	rec = func(i int) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return 1
		}
		return rec(nd.leftChild) + rec(nd.rightChild)
	}
	return rec(0)
}

// Depth returns the maximum root-to-leaf depth (root = 0). An unfitted tree
// has depth -1.
func (t *Tree) Depth() int {
	if len(t.nodes) == 0 {
		return -1
	}
	var rec func(i int) int
	rec = func(i int) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return 0
		}
		l, r := rec(nd.leftChild), rec(nd.rightChild)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return rec(0)
}

// FeatureUsage counts how many reachable split nodes test each feature. The
// paper inspects this to observe that FK is "used heavily for partitioning
// and seldom was a feature from X_R" (§4.1).
func (t *Tree) FeatureUsage() map[int]int {
	out := make(map[int]int)
	if len(t.nodes) == 0 {
		return out
	}
	var rec func(i int)
	rec = func(i int) {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return
		}
		out[nd.feature]++
		rec(nd.leftChild)
		rec(nd.rightChild)
	}
	rec(0)
	return out
}
