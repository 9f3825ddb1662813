package tree

import (
	"maps"
	"testing"
	"testing/quick"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// mkDataset builds a dataset from explicit rows.
func mkDataset(features []ml.Feature, rows [][]relational.Value, ys []int8) *ml.Dataset {
	var xs []relational.Value
	for _, r := range rows {
		xs = append(xs, r...)
	}
	return mustRows(features, xs, ys)
}

// mustRows is ml.FromRows for test blocks that are valid by construction.
func mustRows(features []ml.Feature, x []relational.Value, y []int8) *ml.Dataset {
	d, err := ml.FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// rowsOf pins d's examples with ml.ScanRowMajor: rows[i] is example i's
// codes and labels[i] its class.
func rowsOf(d *ml.Dataset) (rows [][]relational.Value, labels []int8) {
	x, y := ml.ScanRowMajor(d)
	k := d.NumFeatures()
	rows = make([][]relational.Value, len(y))
	for i := range rows {
		rows[i] = x[i*k : (i+1)*k]
	}
	return rows, y
}

func feats(cards ...int) []ml.Feature {
	out := make([]ml.Feature, len(cards))
	for i, c := range cards {
		out[i] = ml.Feature{Name: "f", Cardinality: c}
	}
	return out
}

func TestFitRejectsEmpty(t *testing.T) {
	tr := New(Config{Criterion: Gini, MinSplit: 1})
	if err := tr.Fit(mustRows(feats(2), nil, nil)); err == nil {
		t.Fatal("expected error on empty dataset")
	}
}

func TestLearnsSingleFeatureRule(t *testing.T) {
	// y = (x == 1), separable with one split.
	for _, crit := range []Criterion{Gini, InfoGain, GainRatio} {
		ds := mkDataset(feats(2),
			[][]relational.Value{{0}, {0}, {1}, {1}, {0}, {1}},
			[]int8{0, 0, 1, 1, 0, 1})
		tr := New(Config{Criterion: crit, MinSplit: 1, CP: 0})
		if err := tr.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if acc := ml.Accuracy(tr, ds); acc != 1.0 {
			t.Fatalf("%v: train accuracy %v, want 1.0", crit, acc)
		}
		if tr.Depth() != 1 {
			t.Fatalf("%v: depth %d, want 1", crit, tr.Depth())
		}
	}
}

func TestLearnsXOR(t *testing.T) {
	// XOR requires depth 2; a linear model cannot represent it.
	rows := [][]relational.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []int8{0, 1, 1, 0}
	// Replicate so minsplit permits splitting.
	var allRows [][]relational.Value
	var allYs []int8
	for rep := 0; rep < 5; rep++ {
		allRows = append(allRows, rows...)
		allYs = append(allYs, ys...)
	}
	ds := mkDataset(feats(2, 2), allRows, allYs)
	tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(tr, ds); acc != 1.0 {
		t.Fatalf("XOR train accuracy %v, want 1.0", acc)
	}
}

func TestPureNodeStopsGrowing(t *testing.T) {
	ds := mkDataset(feats(2), [][]relational.Value{{0}, {1}, {0}, {1}}, []int8{1, 1, 1, 1})
	tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("pure dataset must yield a single leaf, got %d nodes", tr.NumNodes())
	}
	if tr.Predict([]relational.Value{0}) != 1 {
		t.Fatal("pure-class prediction wrong")
	}
}

func TestMinSplitStopsGrowth(t *testing.T) {
	ds := mkDataset(feats(2),
		[][]relational.Value{{0}, {0}, {1}, {1}},
		[]int8{0, 0, 1, 1})
	tr := New(Config{Criterion: Gini, MinSplit: 100, CP: 0})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("minsplit=100 on 4 rows must not split, got %d nodes", tr.NumNodes())
	}
}

func TestCPPrunesWeakSplits(t *testing.T) {
	// Nearly-pure dataset: only 1 of 100 rows deviates; with a huge cp the
	// weak split must be rejected.
	var rows [][]relational.Value
	var ys []int8
	for i := 0; i < 100; i++ {
		v := relational.Value(i % 2)
		y := int8(0)
		if i == 0 {
			y = 1
		}
		rows = append(rows, []relational.Value{v})
		ys = append(ys, y)
	}
	ds := mkDataset(feats(2), rows, ys)
	pruned := New(Config{Criterion: Gini, MinSplit: 1, CP: 0.5})
	if err := pruned.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if pruned.NumNodes() != 1 {
		t.Fatalf("cp=0.5 must prune, got %d nodes", pruned.NumNodes())
	}
	grown := New(Config{Criterion: Gini, MinSplit: 1, CP: 0})
	if err := grown.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if grown.NumNodes() == 1 {
		t.Fatal("cp=0 should allow the split")
	}
}

func TestMaxDepth(t *testing.T) {
	r := rng.New(5)
	var rows [][]relational.Value
	var ys []int8
	for i := 0; i < 200; i++ {
		a, b, c := r.Intn(2), r.Intn(2), r.Intn(2)
		rows = append(rows, []relational.Value{relational.Value(a), relational.Value(b), relational.Value(c)})
		ys = append(ys, int8((a^b)&c))
	}
	ds := mkDataset(feats(2, 2, 2), rows, ys)
	tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0, MaxDepth: 1})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 1 {
		t.Fatalf("depth %d exceeds MaxDepth 1", tr.Depth())
	}
}

func TestLargeDomainFKRepresentative(t *testing.T) {
	// The paper's core mechanism: an FK with a large domain functionally
	// determines a hidden binary X_r that alone decides Y. A tree trained
	// only on [noise, FK] (NoJoin) must reach the same accuracy as one
	// trained on [noise, FK, Xr] (JoinAll).
	r := rng.New(7)
	const nR = 40
	const nS = 2000
	xr := make([]relational.Value, nR)
	for i := range xr {
		xr[i] = relational.Value(r.Intn(2))
	}
	build := func(withXr bool) *ml.Dataset {
		fs := []ml.Feature{
			{Name: "noise", Cardinality: 4},
			{Name: "FK", Cardinality: nR, IsFK: true},
		}
		if withXr {
			fs = append(fs, ml.Feature{Name: "Xr", Cardinality: 2})
		}
		var xs []relational.Value
		var ys []int8
		rr := rng.New(11)
		for i := 0; i < nS; i++ {
			fk := relational.Value(rr.Intn(nR))
			noise := relational.Value(rr.Intn(4))
			y := int8(xr[fk])
			if rr.Bernoulli(0.05) {
				y = 1 - y
			}
			xs = append(xs, noise, fk)
			if withXr {
				xs = append(xs, xr[fk])
			}
			ys = append(ys, y)
		}
		return mustRows(fs, xs, ys)
	}
	joinAll := build(true)
	noJoin := build(false)

	trJoin := New(Config{Criterion: Gini, MinSplit: 10, CP: 0.001})
	trNo := New(Config{Criterion: Gini, MinSplit: 10, CP: 0.001})
	if err := trJoin.Fit(joinAll); err != nil {
		t.Fatal(err)
	}
	if err := trNo.Fit(noJoin); err != nil {
		t.Fatal(err)
	}
	accJoin := ml.Accuracy(trJoin, joinAll)
	accNo := ml.Accuracy(trNo, noJoin)
	if accJoin < 0.90 || accNo < 0.90 {
		t.Fatalf("accuracies too low: JoinAll %v NoJoin %v", accJoin, accNo)
	}
	if diff := accJoin - accNo; diff > 0.02 || diff < -0.02 {
		t.Fatalf("NoJoin must track JoinAll: %v vs %v", accNo, accJoin)
	}
	// FK should dominate partitioning in the NoJoin tree.
	usage := trNo.FeatureUsage()
	if usage[1] == 0 {
		t.Fatal("FK never used for splitting")
	}
}

func TestUnseenMajorityRouting(t *testing.T) {
	ds := mkDataset(feats(4),
		[][]relational.Value{{0}, {0}, {0}, {1}},
		[]int8{0, 0, 0, 1})
	tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0, Unseen: UnseenMajority})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// Value 3 unseen: must route with the majority (value 0 side, class 0).
	if got := tr.Predict([]relational.Value{3}); got != 0 {
		t.Fatalf("unseen value routed to %d, want majority class 0", got)
	}
}

func TestUnseenErrorPanics(t *testing.T) {
	ds := mkDataset(feats(4),
		[][]relational.Value{{0}, {0}, {1}, {1}},
		[]int8{0, 0, 1, 1})
	tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0, Unseen: UnseenError})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UnseenError must panic, mirroring R's behaviour")
		}
	}()
	tr.Predict([]relational.Value{3})
}

// mapSmoother remaps via a fixed table.
type mapSmoother map[relational.Value]relational.Value

func (m mapSmoother) Remap(_ int, v relational.Value) relational.Value {
	if rv, ok := m[v]; ok {
		return rv
	}
	return v
}

func TestUnseenSmoothUsesSmoother(t *testing.T) {
	ds := mkDataset(feats(4),
		[][]relational.Value{{0}, {0}, {1}, {1}},
		[]int8{0, 0, 1, 1})
	tr := New(Config{
		Criterion: Gini, MinSplit: 1, CP: 0,
		Unseen:   UnseenSmooth,
		Smoother: mapSmoother{3: 1},
	})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]relational.Value{3}); got != 1 {
		t.Fatalf("smoothing remap 3→1 should predict 1, got %d", got)
	}
}

func TestGainRatioPenalizesUnbalancedSplits(t *testing.T) {
	// A feature with a huge domain where each value isolates one example
	// gives high raw info gain; gain ratio should still work (not crash,
	// produce a usable tree) and the gain-ratio tree should not be worse
	// than majority.
	r := rng.New(13)
	var rows [][]relational.Value
	var ys []int8
	for i := 0; i < 300; i++ {
		big := relational.Value(r.Intn(150))
		good := relational.Value(r.Intn(2))
		rows = append(rows, []relational.Value{big, good})
		y := int8(good)
		if r.Bernoulli(0.1) {
			y = 1 - y
		}
		ys = append(ys, y)
	}
	ds := mkDataset(feats(150, 2), rows, ys)
	tr := New(Config{Criterion: GainRatio, MinSplit: 10, CP: 0.001})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(tr, ds); acc < 0.85 {
		t.Fatalf("gain-ratio accuracy %v too low", acc)
	}
}

func TestDeterministicFit(t *testing.T) {
	r := rng.New(17)
	var rows [][]relational.Value
	var ys []int8
	for i := 0; i < 500; i++ {
		a, b := r.Intn(8), r.Intn(5)
		rows = append(rows, []relational.Value{relational.Value(a), relational.Value(b)})
		ys = append(ys, int8((a+b)%2))
	}
	ds := mkDataset(feats(8, 5), rows, ys)
	t1 := New(Config{Criterion: InfoGain, MinSplit: 5, CP: 0})
	t2 := New(Config{Criterion: InfoGain, MinSplit: 5, CP: 0})
	if err := t1.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := t2.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if t1.NumNodes() != t2.NumNodes() {
		t.Fatal("fits differ across runs")
	}
	for i := 0; i < 100; i++ {
		row := []relational.Value{relational.Value(i % 8), relational.Value(i % 5)}
		if t1.Predict(row) != t2.Predict(row) {
			t.Fatal("predictions differ across identical fits")
		}
	}
}

// Property: training accuracy with cp=0, minsplit=1 is always >= majority
// baseline, and predictions are always valid classes.
func TestTreeBeatsOrMatchesMajorityQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(80) + 20
		card := r.Intn(6) + 2
		var xs []relational.Value
		var ys []int8
		for i := 0; i < n; i++ {
			xs = append(xs, relational.Value(r.Intn(card)), relational.Value(r.Intn(3)))
			ys = append(ys, int8(r.Intn(2)))
		}
		ds := mustRows(feats(card, 3), xs, ys)
		tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0})
		if err := tr.Fit(ds); err != nil {
			return false
		}
		maj := &ml.ConstantClassifier{}
		_ = maj.Fit(ds)
		if ml.Accuracy(tr, ds) < ml.Accuracy(maj, ds) {
			return false
		}
		rows, _ := rowsOf(ds)
		for i := 0; i < n; i++ {
			p := tr.Predict(rows[i])
			if p != 0 && p != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNumLeavesAndUsage(t *testing.T) {
	ds := mkDataset(feats(2, 2),
		[][]relational.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 0}, {1, 1}},
		[]int8{0, 1, 1, 0, 0, 0})
	tr := New(Config{Criterion: Gini, MinSplit: 1, CP: 0})
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != tr.NumNodes()-len(tr.FeatureUsage()) {
		// #internal nodes = total usage count (each split node counted once)
		total := 0
		for _, c := range tr.FeatureUsage() {
			total += c
		}
		if tr.NumLeaves() != tr.NumNodes()-total {
			t.Fatalf("leaves %d, nodes %d, splits %d inconsistent", tr.NumLeaves(), tr.NumNodes(), total)
		}
	}
	if New(Config{}).Depth() != -1 {
		t.Fatal("unfitted depth must be -1")
	}
	if New(Config{Criterion: GainRatio}).Name() != "DecisionTree(gain-ratio)" {
		t.Fatal("Name wrong")
	}
}

func TestCriterionString(t *testing.T) {
	if Gini.String() != "gini" || InfoGain.String() != "information" || GainRatio.String() != "gain-ratio" {
		t.Fatal("criterion names wrong")
	}
	if Criterion(42).String() == "" {
		t.Fatal("unknown criterion must render")
	}
}

// oracleSplit is the historical row-at-a-time split search, kept as the
// reference the batched bestSplit is pinned against: per feature, a map
// tally of (count, positives) over the node's examples, read cell by cell
// from the pinned rows. It tallies every feature, constant ones included —
// no constant-feature skip.
func oracleSplit(t *Tree, rows [][]relational.Value, labels []int8, idx []int) *split {
	var best *split
	nodeN, nodePos := len(idx), 0
	for _, i := range idx {
		nodePos += int(labels[i])
	}
	nodeImp := t.impurity(nodePos, nodeN)
	totalN := float64(len(rows))
	for j := range rows[0] {
		cnt := make(map[relational.Value][2]int)
		for _, i := range idx {
			v := rows[i][j]
			c := cnt[v]
			c[0]++
			c[1] += int(labels[i])
			cnt[v] = c
		}
		if len(cnt) < 2 {
			continue
		}
		vals := make([]vc, 0, len(cnt))
		for v, c := range cnt {
			vals = append(vals, vc{v: v, n: c[0], pos: c[1], rate: float64(c[1]) / float64(c[0])})
		}
		best = t.evalFeature(j, vals, nodeN, nodePos, nodeImp, totalN, best)
	}
	return best
}

// requireOracleSplits walks tr, fitted on ds, routing ds's examples down
// the tree, and checks at every node that the oracle search over the node's
// examples picks exactly the split the batched search kept — and, at every
// leaf the stopping rules did not force, that the oracle finds no split the
// cp rule would keep. Together that pins the whole tree to the oracle.
func requireOracleSplits(t *testing.T, tr *Tree, ds *ml.Dataset) {
	t.Helper()
	if tr.NumLeaves() < 2 {
		t.Fatal("tree learned nothing; the equivalence check is vacuous")
	}
	rows, labels := rowsOf(ds)
	countPos := func(idx []int) int {
		pos := 0
		for _, i := range idx {
			pos += int(labels[i])
		}
		return pos
	}
	all := make([]int, ds.NumExamples())
	for i := range all {
		all[i] = i
	}
	rootImp := tr.impurity(countPos(all), len(all))
	if rootImp == 0 {
		rootImp = 1
	}
	var walk func(at int, idx []int, depth int)
	walk = func(at int, idx []int, depth int) {
		nd := &tr.nodes[at]
		if nd.n != len(idx) {
			t.Fatalf("node %d holds %d examples, oracle routing gives %d", at, nd.n, len(idx))
		}
		best := oracleSplit(tr, rows, labels, idx)
		if nd.feature < 0 {
			pos := countPos(idx)
			open := pos > 0 && pos < len(idx) && len(idx) >= tr.cfg.MinSplit &&
				(tr.cfg.MaxDepth == 0 || depth < tr.cfg.MaxDepth)
			if open && best != nil && (tr.cfg.CP <= 0 || best.gain >= tr.cfg.CP*rootImp) {
				t.Fatalf("leaf %d: oracle keeps a split on feature %d", at, best.feature)
			}
			return
		}
		if best == nil {
			t.Fatalf("node %d: batched split on feature %d, oracle finds none", at, nd.feature)
		}
		if best.feature != nd.feature || !maps.Equal(best.goLeft, nd.goLeft) {
			t.Fatalf("node %d: batched split on feature %d, oracle on feature %d (same partition: %v)",
				at, nd.feature, best.feature, maps.Equal(best.goLeft, nd.goLeft))
		}
		var left, right []int
		for _, i := range idx {
			if nd.goLeft[rows[i][nd.feature]] {
				left = append(left, i)
			} else {
				right = append(right, i)
			}
		}
		walk(nd.leftChild, left, depth+1)
		walk(nd.rightChild, right, depth+1)
	}
	walk(0, all, 0)
}

// TestBatchSplitMatchesRowAtATime pins the columnar split search to the
// row-at-a-time oracle: bit-identical trees on datasets large enough
// to cross parallelSplitThreshold (so the morsel fan-out and its
// deterministic reduction are exercised), over a large-cardinality FK-style
// feature and small categoricals, for all three criteria.
func TestBatchSplitMatchesRowAtATime(t *testing.T) {
	r := rng.New(23)
	n := 3 * parallelSplitThreshold
	var xs []relational.Value
	var ys []int8
	for i := 0; i < n; i++ {
		fk := relational.Value(r.Intn(900))
		a := relational.Value(r.Intn(4))
		b := relational.Value(r.Intn(2))
		xs = append(xs, fk, a, b)
		y := int8((int(fk)/30 + int(a)) % 2)
		if r.Intn(10) == 0 {
			y = 1 - y
		}
		ys = append(ys, y)
	}
	ds := mustRows([]ml.Feature{
		{Name: "FK", Cardinality: 900, IsFK: true},
		{Name: "a", Cardinality: 4},
		{Name: "b", Cardinality: 2},
	}, xs, ys)
	for _, crit := range []Criterion{Gini, InfoGain, GainRatio} {
		t.Run(crit.String(), func(t *testing.T) {
			tr := New(Config{Criterion: crit, MinSplit: 20, CP: 1e-4})
			if err := tr.Fit(ds); err != nil {
				t.Fatal(err)
			}
			requireOracleSplits(t, tr, ds)
		})
	}
}

// TestBatchSplitOnRelationViews runs the batch search through the full view
// stack — a dataset over a split-style SelectView over a JoinView — and
// checks the fitted tree against the row-at-a-time oracle.
func TestBatchSplitOnRelationViews(t *testing.T) {
	r := rng.New(41)
	nR := 40
	keyDom := relational.NewDomain("RID", nR)
	dim := relational.NewTable("R", relational.MustSchema(
		relational.Column{Name: "RID", Kind: relational.KindPrimaryKey, Domain: keyDom},
		relational.Column{Name: "xr", Kind: relational.KindFeature, Domain: relational.NewDomain("xr", 4)},
	), nR)
	for i := 0; i < nR; i++ {
		dim.MustAppendRow([]relational.Value{relational.Value(i), relational.Value(r.Intn(4))})
	}
	nS := 800
	fact := relational.NewTable("S", relational.MustSchema(
		relational.Column{Name: "Y", Kind: relational.KindTarget, Domain: relational.NewDomain("Y", 2)},
		relational.Column{Name: "xs", Kind: relational.KindFeature, Domain: relational.NewDomain("xs", 3)},
		relational.Column{Name: "FK", Kind: relational.KindForeignKey, Domain: keyDom, Refs: "R"},
	), nS)
	for i := 0; i < nS; i++ {
		fk := r.Intn(nR)
		y := int8(fk % 2)
		if r.Intn(8) == 0 {
			y = 1 - y
		}
		fact.MustAppendRow([]relational.Value{relational.Value(y), relational.Value(r.Intn(3)), relational.Value(fk)})
	}
	ss, err := relational.NewStarSchema(fact, dim)
	if err != nil {
		t.Fatal(err)
	}
	jv, err := relational.NewJoinView(ss)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 500)
	for i := range idx {
		idx[i] = r.Intn(nS)
	}
	sel, err := relational.NewSelectView(jv, idx)
	if err != nil {
		t.Fatal(err)
	}
	train, err := ml.FromRelation(sel, []int{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Criterion: Gini, MinSplit: 5, CP: 1e-4}
	tr := New(cfg)
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	requireOracleSplits(t, tr, train)
}

// TestBatchSplitSequentialForced pins the batch path under MaxParallelism=1:
// forcing sequential morsel processing must still match the row-at-a-time
// oracle.
func TestBatchSplitSequentialForced(t *testing.T) {
	// MaxParallelism=1 must keep the batch path deterministic and identical.
	old := ml.MaxParallelism
	ml.MaxParallelism = 1
	defer func() { ml.MaxParallelism = old }()

	r := rng.New(31)
	n := parallelSplitThreshold + 100
	var xs []relational.Value
	var ys []int8
	for i := 0; i < n; i++ {
		a := relational.Value(r.Intn(50))
		b := relational.Value(r.Intn(3))
		xs = append(xs, a, b)
		ys = append(ys, int8(int(a)%2))
	}
	ds := mustRows(feats(50, 3), xs, ys)
	cfg := Config{Criterion: Gini, MinSplit: 10, CP: 1e-3}
	tr := New(cfg)
	if err := tr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	requireOracleSplits(t, tr, ds)
}
