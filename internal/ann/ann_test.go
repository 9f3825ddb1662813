package ann

import (
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
	if err := New(smallCfg(1)).Fit(&ml.Dataset{Features: feats(2)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLearnsLinearSignal(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2, 3)}
	r := rng.New(2)
	for i := 0; i < 400; i++ {
		x0 := relational.Value(r.Intn(2))
		ds.X = append(ds.X, x0, relational.Value(r.Intn(3)))
		ds.Y = append(ds.Y, int8(x0))
	}
	m := New(smallCfg(3))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if acc := ml.Accuracy(m, ds); acc < 0.99 {
		t.Fatalf("separable accuracy %v, want ~1", acc)
	}
}

func TestLearnsXOR(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2, 2)}
	pts := [][]relational.Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []int8{0, 1, 1, 0}
	for rep := 0; rep < 40; rep++ {
		for i, p := range pts {
			ds.X = append(ds.X, p...)
			ds.Y = append(ds.Y, ys[i])
		}
	}
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
	ds := &ml.Dataset{Features: []ml.Feature{{Name: "FK", Cardinality: nR, IsFK: true}}}
	for i := 0; i < nR*10; i++ {
		fk := relational.Value(i % nR)
		ds.X = append(ds.X, fk)
		ds.Y = append(ds.Y, labelOf[fk])
	}
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
	ds := &ml.Dataset{Features: feats(3)}
	r := rng.New(11)
	for i := 0; i < 60; i++ {
		ds.X = append(ds.X, relational.Value(r.Intn(3)))
		ds.Y = append(ds.Y, int8(r.Intn(2)))
	}
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
	ds := &ml.Dataset{Features: feats(4)}
	r := rng.New(15)
	for i := 0; i < 80; i++ {
		v := relational.Value(r.Intn(4))
		ds.X = append(ds.X, v)
		ds.Y = append(ds.Y, int8(int(v)%2))
	}
	fit := func() float64 {
		m := New(smallCfg(17))
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		return m.Probability(ds.Row(0))
	}
	if fit() != fit() {
		t.Fatal("same seed must reproduce the model")
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	ds := &ml.Dataset{Features: feats(2)}
	r := rng.New(19)
	for i := 0; i < 200; i++ {
		x := relational.Value(r.Intn(2))
		ds.X = append(ds.X, x)
		ds.Y = append(ds.Y, int8(x))
	}
	norm := func(l2 float64) float64 {
		cfg := smallCfg(21)
		cfg.L2 = l2
		m := New(cfg)
		if err := m.Fit(ds); err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, w := range m.w1 {
			s += w * w
		}
		for _, w := range m.w2 {
			s += w * w
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

	// exampleAt yields example ei's active one-hot indices and label through
	// per-call scratch-row gathers.
	rowBuf := make([]relational.Value, train.NumFeatures())
	idxBuf := make([]int32, train.NumFeatures())
	exampleAt := func(i int) ([]int32, float64) {
		for j, v := range train.RowInto(rowBuf, i) {
			idxBuf[j] = int32(m.enc.Index(j, v))
		}
		return idxBuf, float64(train.Label(i))
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
						z2[v] += a * w[v]
					}
				}
				for v := range z2 {
					if z2[v] < 0 {
						z2[v] = 0
					}
				}
				z3 := m.b3
				for v := 0; v < h2; v++ {
					z3 += z2[v] * m.w3[v]
				}
				p := sigmoid(z3)
				g3 := (p - y) / bs // dL/dz3, batch-averaged

				// Backward.
				gB3 += g3
				for v := 0; v < h2; v++ {
					gW3[v] += g3 * z2[v]
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
							d1u += d2[v] * w[v]
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
						gw[v] += d2[v] * a
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
			m.applyAdam(gW2, gB2, gW3, gB3, gB1, sparse)
		}
		epochSpan.ObserveSince(epochT0)
	}
}

func TestColumnarMatchesRowPath(t *testing.T) {
	// The batched epoch path (one ScanFeature pass into the active-index
	// matrix) must produce a bit-identical network to the fitRows oracle's
	// example-at-a-time gathers: identical indices and labels feed an
	// unchanged forward/backward sequence.
	r := rng.New(41)
	base := &ml.Dataset{Features: feats(2, 5, 3)}
	for i := 0; i < 400; i++ {
		a, b, c := r.Intn(2), r.Intn(5), r.Intn(3)
		base.X = append(base.X, relational.Value(a), relational.Value(b), relational.Value(c))
		base.Y = append(base.Y, int8((a+c)%2))
	}
	sub := make([]int, 250)
	for i := range sub {
		sub[i] = r.Intn(400)
	}
	for name, ds := range map[string]*ml.Dataset{"dense": base, "view": base.Subset(sub)} {
		cfg := smallCfg(43)
		row, col := New(cfg), New(cfg)
		r, order := row.initFit(ds)
		row.fitRows(ds, r, order)
		if err := col.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if row.b3 != col.b3 {
			t.Fatalf("%s: output bias diverged: %v vs %v", name, row.b3, col.b3)
		}
		for layer, pair := range map[string][2][]float64{
			"w1": {row.w1, col.w1}, "b1": {row.b1, col.b1},
			"w2": {row.w2, col.w2}, "b2": {row.b2, col.b2},
			"w3": {row.w3, col.w3},
		} {
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("%s: %s[%d] diverged: %v vs %v", name, layer, i, pair[0][i], pair[1][i])
				}
			}
		}
		buf := make([]relational.Value, ds.NumFeatures())
		for i := 0; i < ds.NumExamples(); i++ {
			rowi := ds.RowInto(buf, i)
			if row.Probability(rowi) != col.Probability(rowi) {
				t.Fatalf("%s: probability diverged on example %d", name, i)
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
	ds := &ml.Dataset{Features: feats(3, 5)}
	for i := 0; i < 400; i++ {
		a, b := r.Intn(3), r.Intn(5)
		ds.X = append(ds.X, relational.Value(a), relational.Value(b))
		ds.Y = append(ds.Y, int8((a+b)%2))
	}
	m := New(smallCfg(89))
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got := m.PredictBatch(ds)
	buf := make([]relational.Value, ds.NumFeatures())
	for i := range got {
		if want := m.Predict(ds.RowInto(buf, i)); got[i] != want {
			t.Fatalf("example %d: batch class %d != Predict %d", i, got[i], want)
		}
	}
}
