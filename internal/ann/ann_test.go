package ann

import (
	"math"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

func feats(cards ...int) []ml.Feature {
	out := make([]ml.Feature, len(cards))
	for i, c := range cards {
		out[i] = ml.Feature{Name: "f", Cardinality: c}
	}
	return out
}

// smallCfg uses a reduced network so tests stay fast; the architecture is
// still two ReLU layers + sigmoid output, as in the paper.
func smallCfg(seed uint64) Config {
	return Config{Hidden1: 16, Hidden2: 8, LearningRate: 1e-2, Epochs: 40, BatchSize: 16, Seed: seed}
}

func TestFitRejectsEmpty(t *testing.T) {
	if err := New(smallCfg(1)).Fit(mustRows(feats(2), nil, nil)); err == nil {
		t.Fatal("expected error")
	}
}

func TestLearnsLinearSignal(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(2)
	for i := 0; i < 400; i++ {
		x0 := relational.Value(r.Intn(2))
		xs = append(xs, x0, relational.Value(r.Intn(3)))
		ys = append(ys, int8(x0))
	}
	ds := mustRows(feats(2, 3), xs, ys)
	m := New(smallCfg(3))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc < 0.99 {
		t.Fatalf("separable accuracy %v, want ~1", acc)
	}
}

func TestLearnsXOR(t *testing.T) {
	pts := [][]relational.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int8{0, 1, 1, 0}
	var xs []relational.Value
	var ys []int8
	for rep := 0; rep < 40; rep++ {
		for i, p := range pts {
			xs = append(xs, p...)
			ys = append(ys, labels[i])
		}
	}
	ds := mustRows(feats(2, 2), xs, ys)
	m := New(smallCfg(5))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc != 1.0 {
		t.Fatalf("XOR accuracy %v, want 1.0", acc)
	}
}

func TestFKMemorization(t *testing.T) {
	// The mechanism behind the paper's ANN result: the net can memorize a
	// moderate FK domain through its embedding-like first layer.
	r := rng.New(7)
	const nR = 30
	labelOf := make([]int8, nR)
	for i := range labelOf {
		labelOf[i] = int8(r.Intn(2))
	}
	labelOf[0], labelOf[1] = 0, 1
	var xs []relational.Value
	var ys []int8
	for i := 0; i < nR*10; i++ {
		fk := relational.Value(i % nR)
		xs = append(xs, fk)
		ys = append(ys, labelOf[fk])
	}
	ds := mustRows([]ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}, xs, ys)
	m := New(smallCfg(9))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for v := 0; v < nR; v++ {
		if m.Predict([]relational.Value{relational.Value(v)}) != labelOf[v] {
			wrong++
		}
	}
	if wrong > 1 {
		t.Fatalf("FK memorization failed on %d/%d values", wrong, nR)
	}
}

func TestProbabilityRange(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(11)
	for i := 0; i < 60; i++ {
		xs = append(xs, relational.Value(r.Intn(3)))
		ys = append(ys, int8(r.Intn(2)))
	}
	ds := mustRows(feats(3), xs, ys)
	m := New(smallCfg(13))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		p := m.Probability([]relational.Value{relational.Value(v)})
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(15)
	for i := 0; i < 80; i++ {
		v := relational.Value(r.Intn(4))
		xs = append(xs, v)
		ys = append(ys, int8(int(v)%2))
	}
	ds := mustRows(feats(4), xs, ys)
	fit := func() float64 {
		m := New(smallCfg(17))
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		x, _ := ml.ScanRowMajor(ds)
		return m.Probability(x[:ds.NumFeatures()])
	}
	if fit() != fit() {
		t.Fatal("same seed must reproduce the model")
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	var xs []relational.Value
	var ys []int8
	r := rng.New(19)
	for i := 0; i < 200; i++ {
		x := relational.Value(r.Intn(2))
		xs = append(xs, x)
		ys = append(ys, int8(x))
	}
	ds := mustRows(feats(2), xs, ys)
	norm := func(l2 float64) float64 {
		cfg := smallCfg(21)
		cfg.L2 = l2
		m := New(cfg)
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, w := range m.w1 {
			s += float64(w * w)
		}
		for _, w := range m.w2 {
			s += float64(w * w)
		}
		return s
	}
	if norm(0.1) >= norm(0) {
		t.Fatal("L2 regularization should shrink weight norms")
	}
}

// fitRows is the historical example-at-a-time epoch loop, preserved verbatim
// as the oracle the batched path is pinned against.
func (m *MLP) fitRows(train *ml.Dataset, r *rng.RNG, order []int) {
	h1, h2 := m.cfg.Hidden1, m.cfg.Hidden2
	n := train.NumExamples()

	// exampleAt yields example ei's active one-hot indices and label from
	// the pinned row-major block.
	k := train.NumFeatures()
	x, y := ml.ScanRowMajor(train)
	idxBuf := make([]int32, k)
	exampleAt := func(i int) ([]int32, float64) {
		for j, v := range x[i*k : (i+1)*k] {
			idxBuf[j] = int32(m.enc.Index(j, v))
		}
		return idxBuf, float64(y[i])
	}

	// Gradient accumulators reused across batches.
	gW2 := make([]float64, h1*h2)
	gB2 := make([]float64, h2)
	gW3 := make([]float64, h2)
	gB1 := make([]float64, h1)
	z1 := make([]float64, h1)
	z2 := make([]float64, h2)
	d1 := make([]float64, h1)
	d2 := make([]float64, h2)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochT0 := time.Now()
		r.ShuffleInts(order)
		for at := 0; at < n; at += m.cfg.BatchSize {
			end := at + m.cfg.BatchSize
			if end > n {
				end = n
			}
			bs := float64(end - at)
			for i := range gW2 {
				gW2[i] = 0
			}
			for i := range gB2 {
				gB2[i] = 0
			}
			for i := range gW3 {
				gW3[i] = 0
			}
			for i := range gB1 {
				gB1[i] = 0
			}
			gB3 := 0.0
			var sparse []sparseGrad
			for _, ei := range order[at:end] {
				idx, y := exampleAt(ei)
				// Forward.
				copy(z1, m.b1)
				for _, k := range idx {
					w := m.w1[int(k)*h1 : (int(k)+1)*h1]
					for u := range z1 {
						z1[u] += w[u]
					}
				}
				for u := range z1 {
					if z1[u] < 0 {
						z1[u] = 0
					}
				}
				copy(z2, m.b2)
				for u := 0; u < h1; u++ {
					if z1[u] == 0 {
						continue
					}
					w := m.w2[u*h2 : (u+1)*h2]
					a := z1[u]
					for v := range z2 {
						z2[v] += float64(a * w[v])
					}
				}
				for v := range z2 {
					if z2[v] < 0 {
						z2[v] = 0
					}
				}
				z3 := m.b3
				for v := 0; v < h2; v++ {
					z3 += float64(z2[v] * m.w3[v])
				}
				p := sigmoid(z3)
				g3 := (p - y) / bs // dL/dz3, batch-averaged

				// Backward.
				gB3 += g3
				for v := 0; v < h2; v++ {
					gW3[v] += float64(g3 * z2[v])
					if z2[v] > 0 {
						d2[v] = g3 * m.w3[v]
					} else {
						d2[v] = 0
					}
				}
				for u := 0; u < h1; u++ {
					d1u := 0.0
					if z1[u] > 0 {
						w := m.w2[u*h2 : (u+1)*h2]
						for v := 0; v < h2; v++ {
							d1u += float64(d2[v] * w[v])
						}
					}
					d1[u] = d1u
				}
				for u := 0; u < h1; u++ {
					if z1[u] == 0 {
						continue
					}
					a := z1[u]
					gw := gW2[u*h2 : (u+1)*h2]
					for v := 0; v < h2; v++ {
						gw[v] += float64(d2[v] * a)
					}
				}
				for v := 0; v < h2; v++ {
					gB2[v] += d2[v]
				}
				// Input layer: gradient w.r.t. each active embedding row is
				// d1 (the one-hot activation is 1), and b1 accumulates d1
				// once per example.
				for u := range gB1 {
					gB1[u] += d1[u]
				}
				g := make([]float64, h1)
				copy(g, d1)
				for _, k := range idx {
					sparse = append(sparse, sparseGrad{row: int(k), grad: g})
				}
			}
			m.applyAdamScalar(gW2, gB2, gW3, gB3, gB1, sparse)
		}
		epochSpan.ObserveSince(epochT0)
	}
}

// applyAdamScalar is the historical scalar Adam update, kept as the oracle
// applyAdam's mat.Adam calls are pinned against through fitRows.
func (m *MLP) applyAdamScalar(gW2, gB2, gW3 []float64, gB3 float64, gB1 []float64, sparse []sparseGrad) {
	h1 := m.cfg.Hidden1
	m.step++
	lr := m.cfg.LearningRate
	c1 := 1 - math.Pow(beta1, float64(m.step))
	c2 := 1 - math.Pow(beta2, float64(m.step))
	update := func(w, g []float64, st adamState, l2 float64) {
		for i := range w {
			gi := g[i] + float64(l2*w[i])
			st.m[i] = float64(beta1*st.m[i]) + float64((1-beta1)*gi)
			st.v[i] = float64(beta2*st.v[i]) + float64((1-beta2)*gi*gi)
			w[i] -= lr * (st.m[i] / c1) / (math.Sqrt(st.v[i]/c2) + eps)
		}
	}
	update(m.w2, gW2, m.a2, m.cfg.L2)
	update(m.b2, gB2, m.a2b, 0)
	update(m.w3, gW3, m.a3, m.cfg.L2)
	m.a3b.m[0] = float64(beta1*m.a3b.m[0]) + float64((1-beta1)*gB3)
	m.a3b.v[0] = float64(beta2*m.a3b.v[0]) + float64((1-beta2)*gB3*gB3)
	m.b3 -= lr * (m.a3b.m[0] / c1) / (math.Sqrt(m.a3b.v[0]/c2) + eps)
	update(m.b1, gB1, m.a1b, 0)
	// Sparse rows of w1.
	for _, sg := range sparse {
		base := sg.row * h1
		w := m.w1[base : base+h1]
		mm := m.a1.m[base : base+h1]
		vv := m.a1.v[base : base+h1]
		for u := 0; u < h1; u++ {
			gi := sg.grad[u] + float64(m.cfg.L2*w[u])
			mm[u] = float64(beta1*mm[u]) + float64((1-beta1)*gi)
			vv[u] = float64(beta2*vv[u]) + float64((1-beta2)*gi*gi)
			w[u] -= lr * (mm[u] / c1) / (math.Sqrt(vv[u]/c2) + eps)
		}
	}
}

func TestColumnarMatchesRowPath(t *testing.T) {
	// The batched epoch path (one ScanFeature pass into the active-index
	// matrix, mat.Adam updates) must produce a bit-identical network to the
	// fitRows oracle's example-at-a-time gathers and scalar Adam loop:
	// identical indices and labels feed an unchanged forward/backward
	// sequence and the same per-element update arithmetic. The shapes cover
	// the EffortFast network (32/16), a short fit of the EffortFull network
	// (256/64), several 16-column tiles (64x16), a 16-column tile followed by
	// a 4-column tile and a scalar tail (20x12), and widths that are not
	// multiples of four, so the Gemm, GemmTA, SpGemmOneHot and Adam tails
	// run too.
	r := rng.New(41)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 400; i++ {
		a, b, c := r.Intn(2), r.Intn(5), r.Intn(3)
		xs = append(xs, relational.Value(a), relational.Value(b), relational.Value(c))
		ys = append(ys, int8((a+c)%2))
	}
	base := mustRows(feats(2, 5, 3), xs, ys)
	sub := make([]int, 250)
	for i := range sub {
		sub[i] = r.Intn(400)
	}
	shape := func(h1, h2 int, l2 float64) Config {
		cfg := smallCfg(43)
		cfg.Hidden1, cfg.Hidden2, cfg.L2 = h1, h2, l2
		return cfg
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"16x8", smallCfg(43)},
		{"32x16 l2=0", shape(32, 16, 0)},
		{"32x16 l2=1e-3", shape(32, 16, 1e-3)},
		{"19x7 l2=0", shape(19, 7, 0)},
		{"19x7 l2=1e-3", shape(19, 7, 1e-3)},
		{"64x16 l2=1e-3", shape(64, 16, 1e-3)},
		{"20x12 l2=1e-3", shape(20, 12, 1e-3)},
		{"256x64 l2=1e-3 2 epochs", func() Config {
			cfg := shape(256, 64, 1e-3)
			cfg.Epochs = 2
			return cfg
		}()},
	}
	for _, c := range cfgs {
		for dsName, ds := range map[string]*ml.Dataset{"table": base, "subset": base.Subset(sub)} {
			name := c.name + " " + dsName
			row, col := New(c.cfg), New(c.cfg)
			r, order := row.initFit(ds)
			row.fitRows(ds, r, order)
			if err := col.Fit(ds); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(row.b3) != math.Float64bits(col.b3) {
				t.Fatalf("%s: output bias diverged: %v vs %v", name, row.b3, col.b3)
			}
			for layer, pair := range map[string][2][]float64{
				"w1": {row.w1, col.w1}, "b1": {row.b1, col.b1},
				"w2": {row.w2, col.w2}, "b2": {row.b2, col.b2},
				"w3": {row.w3, col.w3},
			} {
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("%s: %s[%d] diverged: %v vs %v", name, layer, i, pair[0][i], pair[1][i])
					}
				}
			}
			x, _ := ml.ScanRowMajor(ds)
			k := ds.NumFeatures()
			for i := 0; i < ds.NumExamples(); i++ {
				rowi := x[i*k : (i+1)*k]
				if row.Probability(rowi) != col.Probability(rowi) {
					t.Fatalf("%s: probability diverged on example %d", name, i)
				}
			}
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{})
	if m.cfg.Hidden1 != 256 || m.cfg.Hidden2 != 64 {
		t.Fatalf("paper architecture defaults not applied: %+v", m.cfg)
	}
	if m.Name() != "ANN(MLP)" {
		t.Fatal("name wrong")
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	// The batched GEMM forward pass must classify exactly as the per-row
	// Probability path: the dense sums only add exact ±0 terms where the
	// scalar loops skip inactive units, so classes agree example for
	// example (and probabilities bit for bit).
	r := rng.New(83)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 400; i++ {
		a, b := r.Intn(3), r.Intn(5)
		xs = append(xs, relational.Value(a), relational.Value(b))
		ys = append(ys, int8((a+b)%2))
	}
	ds := mustRows(feats(3, 5), xs, ys)
	m := New(smallCfg(89))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got := m.PredictBatch(ds)
	for i := range got {
		if want := m.Predict(xs[i*2 : (i+1)*2]); got[i] != want {
			t.Fatalf("example %d: batch class %d != Predict %d", i, got[i], want)
		}
	}
}

// mustRows is ml.FromRows for test blocks that are valid by construction.
func mustRows(features []ml.Feature, x []relational.Value, y []int8) *ml.Dataset {
	d, err := ml.FromRows(features, x, y)
	if err != nil {
		panic(err)
	}
	return d
}

// TestClassifyHiddenMatchesPredictAtTinyNegativeLogit pins the MLP's three
// classification paths to one test on a logit in (-2^-54, 0), where
// math.Exp rounds to 1 and the sigmoid is exactly 0.5: Predict returns 1
// there, so PredictBatch and ClassifyHidden must too. A sign test on the
// logit returns 0.
func TestClassifyHiddenMatchesPredictAtTinyNegativeLogit(t *testing.T) {
	fs := feats(2, 3)
	for _, b3 := range []float64{-1e-17, -5e-17} {
		m, err := FromParams(fs, Params{
			Hidden1: 2, Hidden2: 2,
			W1: make([]float64, 5*2), B1: []float64{0.5, -0.25},
			W2: []float64{1, 2, 3, 4}, B2: []float64{0.125, 0},
			W3: make([]float64, 2), B3: b3,
		})
		if err != nil {
			t.Fatal(err)
		}
		row := []relational.Value{1, 2}
		if got := m.Predict(row); got != 1 {
			t.Fatalf("B3=%g: Predict = %d, want 1 (sigmoid(B3) = %v)", b3, got, sigmoid(b3))
		}
		z := []float64{0.5, -0.25}
		cls := []int8{-1}
		m.ClassifyHidden(cls, z, 1)
		if cls[0] != 1 {
			t.Fatalf("B3=%g: ClassifyHidden = %d, Predict = 1", b3, cls[0])
		}
		if got := m.PredictBatch(mustRows(fs, row, []int8{0})); got[0] != 1 {
			t.Fatalf("B3=%g: PredictBatch = %d, Predict = 1", b3, got[0])
		}
	}
}
