// Package ann implements the multilayer perceptron the paper trains through
// Keras/TensorFlow (§3.2): two hidden layers of 256 and 64 ReLU units, a
// sigmoid output with cross-entropy loss, L2 regularization on layer
// weights, and the Adam optimizer with tunable learning rate.
//
// Inputs are one-hot encoded categorical vectors. Rather than materialize a
// (possibly enormous, FK-domain-sized) dense input, the first layer treats
// its weight matrix as an embedding table: the forward pass sums one row per
// active (feature, value) pair, and the backward pass updates only those
// rows. Each (row, example) occurrence in a mini-batch gets one full Adam
// step at that batch's bias correction, in example-major order: a row active
// for k examples of a batch is updated k times, and the moments of rows no
// example touches are not decayed.
package ann

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// Config holds MLP hyper-parameters. The paper's grid tunes L2 ∈
// {1e-4, 1e-3, 1e-2} and LearningRate ∈ {1e-3, 1e-2, 1e-1}; Adam moment
// decays stay at their defaults.
type Config struct {
	Hidden1 int     // default 256
	Hidden2 int     // default 64
	L2      float64 // weight decay coefficient
	// LearningRate is Adam's step size (default 1e-3).
	LearningRate float64
	// Epochs over the training set (default 20).
	Epochs int
	// BatchSize for mini-batch updates (default 32).
	BatchSize int
	// Seed drives weight init and shuffling.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Hidden1 <= 0 {
		c.Hidden1 = 256
	}
	if c.Hidden2 <= 0 {
		c.Hidden2 = 64
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 1e-3
	}
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
}

// adamState carries first and second moment estimates for one parameter
// block.
type adamState struct {
	m, v []float64
}

func newAdam(n int) adamState {
	return adamState{m: make([]float64, n), v: make([]float64, n)}
}

const (
	beta1 = 0.9
	beta2 = 0.999
	eps   = 1e-8
)

// MLP is the multilayer perceptron classifier.
type MLP struct {
	cfg Config
	enc *ml.Encoder

	// w1 is the sparse input layer: one row of Hidden1 weights per one-hot
	// dimension. b1, w2, b2, w3, b3 are dense.
	w1 []float64 // dims × h1
	b1 []float64 // h1
	w2 []float64 // h1 × h2
	b2 []float64 // h2
	w3 []float64 // h2
	b3 float64

	a1, a2       adamState
	a1b, a2b, a3 adamState
	a3b          adamState
	step         int
}

// New returns an unfitted MLP.
func New(cfg Config) *MLP {
	cfg.fillDefaults()
	return &MLP{cfg: cfg}
}

// Name implements ml.Named.
func (m *MLP) Name() string { return "ANN(MLP)" }

// Fit trains the network with mini-batch Adam.
//
// Each mini-batch moves through the network as dense linear algebra over
// the one-pass active-index matrix (ml.ScanActiveIndices): the forward pass
// is one mat.SpGemmOneHot (the sparse input layer) plus one mat.Gemm and one
// mat.Gemv, and the backward pass accumulates the weight gradients through
// mat.GemmTA/GemvT with per-element mat.Dot for the ReLU-masked deltas. The
// kernels keep every output element's accumulation sequential and in the
// same order as the historical example-at-a-time loops (mat's bit-identity
// contract), so the fitted network is bit-identical to that loop.
func (m *MLP) Fit(train *ml.Dataset) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("ann: empty training set")
	}
	r, order := m.initFit(train)
	m.fitBatched(train, r, order)
	return nil
}

// initFit sets up the encoder, initial weights, and optimizer state for a
// Fit on train, and returns the RNG (past the weight draws) and the
// identity example order the epoch loop shuffles.
func (m *MLP) initFit(train *ml.Dataset) (*rng.RNG, []int) {
	m.enc = ml.NewEncoder(train.Features)
	h1, h2 := m.cfg.Hidden1, m.cfg.Hidden2
	dims := m.enc.Dims
	r := rng.New(m.cfg.Seed)

	// He initialization scaled by fan-in; the effective fan-in of the
	// sparse input layer is the number of features (active one-hots).
	d := train.NumFeatures()
	initRow := func(w []float64, fanIn int) {
		s := math.Sqrt(2 / float64(fanIn))
		for i := range w {
			w[i] = r.NormFloat64() * s
		}
	}
	m.w1 = make([]float64, dims*h1)
	m.b1 = make([]float64, h1)
	m.w2 = make([]float64, h1*h2)
	m.b2 = make([]float64, h2)
	m.w3 = make([]float64, h2)
	m.a1 = newAdam(dims * h1)
	m.a1b = newAdam(h1)
	m.a2 = newAdam(h1 * h2)
	m.a2b = newAdam(h2)
	m.a3 = newAdam(h2)
	m.a3b = newAdam(1)
	initRow(m.w1, d)
	initRow(m.w2, h1)
	initRow(m.w3, h2)
	m.b3 = 0
	m.step = 0

	n := train.NumExamples()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	return r, order
}

// sparseGrad is one pending input-layer update: the gradient w.r.t. one
// active embedding row. Every entry points at its example's row of the
// batch's delta matrix.
type sparseGrad struct {
	row  int
	grad []float64
}

// fitBatched runs the epoch loop: each mini-batch moves through the
// network as dense matrices over the one-pass active-index materialization.
// Forward is one SpGemmOneHot (B×h1), one Gemm (B×h2), and one Gemv (B);
// backward accumulates gW3/gW2 through GemvT/GemmTA — whose per-element sums
// run over the batch in ascending example order, exactly as the historical
// loop interleaved them — and the ReLU-masked deltas come from per-element
// sequential Dots, skipping masked elements just as that loop does.
// Gradient values and fold orders are identical to the example-at-a-time
// loop (the Gemm/GemmTA full-dense sums only add exact ±0 products where it
// skipped zero activations), so the trained parameters match it bit for bit
// — TestColumnarMatchesRowPath pins it against that loop, kept in the tests.
func (m *MLP) fitBatched(train *ml.Dataset, r *rng.RNG, order []int) {
	h1, h2 := m.cfg.Hidden1, m.cfg.Hidden2
	n := train.NumExamples()
	d := train.NumFeatures()
	idxMat, labels := ml.ScanActiveIndices(train, m.enc)

	B := m.cfg.BatchSize
	if B > n {
		B = n
	}
	// Batch scratch: index block, labels, activations, deltas — reused
	// across batches; slices of the leading bs rows are passed to the
	// kernels when the last batch runs short.
	bidx := make([]int32, B*d)
	yb := make([]float64, B)
	z1 := make([]float64, B*h1)
	z2 := make([]float64, B*h2)
	z3 := make([]float64, B)
	g3 := make([]float64, B)
	d2 := make([]float64, B*h2)
	d1 := make([]float64, B*h1)
	// Gradient accumulators feeding applyAdam, plus the sparse input-layer
	// chains.
	gW2 := make([]float64, h1*h2)
	gB2 := make([]float64, h2)
	gW3 := make([]float64, h2)
	gB1 := make([]float64, h1)
	sparse := make([]sparseGrad, 0, B*d)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		epochT0 := time.Now()
		r.ShuffleInts(order)
		for at := 0; at < n; at += m.cfg.BatchSize {
			end := at + m.cfg.BatchSize
			if end > n {
				end = n
			}
			bs := end - at
			bsf := float64(bs)

			// Gather the batch's active-index rows and labels in shuffled
			// order; row t of every batch matrix is example order[at+t].
			for t := 0; t < bs; t++ {
				ei := order[at+t]
				copy(bidx[t*d:(t+1)*d], idxMat[ei*d:(ei+1)*d])
				yb[t] = float64(labels[ei])
			}

			// Forward: Z1 = 1·b1ᵀ + OneHot·W1, ReLU.
			mat.SpGemmOneHot(z1[:bs*h1], h1, bidx[:bs*d], d, m.w1, h1, bs, d, h1, m.b1)
			for i, v := range z1[:bs*h1] {
				if v < 0 {
					z1[i] = 0
				}
			}
			// Z2 = 1·b2ᵀ + Z1·W2, ReLU.
			for t := 0; t < bs; t++ {
				copy(z2[t*h2:(t+1)*h2], m.b2)
			}
			mat.Gemm(z2[:bs*h2], h2, z1[:bs*h1], h1, m.w2, h2, bs, h2, h1)
			for i, v := range z2[:bs*h2] {
				if v < 0 {
					z2[i] = 0
				}
			}
			// z3 = b3 + Z2·w3, then the batch-averaged output delta.
			for t := 0; t < bs; t++ {
				z3[t] = m.b3
			}
			mat.Gemv(z3[:bs], z2, h2, m.w3, bs, h2)
			gB3 := 0.0
			for t := 0; t < bs; t++ {
				g3[t] = (sigmoid(z3[t]) - yb[t]) / bsf
				gB3 += g3[t]
			}

			// gW3 = Z2ᵀ·g3; D2 = g3 ⊗ w3 masked by the ReLU.
			for i := range gW3 {
				gW3[i] = 0
			}
			mat.GemvT(gW3, z2, h2, g3[:bs], bs, h2)
			for t := 0; t < bs; t++ {
				g := g3[t]
				zrow := z2[t*h2 : (t+1)*h2]
				drow := d2[t*h2 : (t+1)*h2]
				for v := range drow {
					if zrow[v] > 0 {
						drow[v] = g * m.w3[v]
					} else {
						drow[v] = 0
					}
				}
			}
			for i := range gB2 {
				gB2[i] = 0
			}
			for t := 0; t < bs; t++ {
				drow := d2[t*h2 : (t+1)*h2]
				for v, dv := range drow {
					gB2[v] += dv
				}
			}
			// gW2 = Z1ᵀ·D2; D1 = D2·W2ᵀ masked by the first ReLU.
			for i := range gW2 {
				gW2[i] = 0
			}
			mat.GemmTA(gW2, h2, z1[:bs*h1], h1, d2[:bs*h2], h2, h1, h2, bs)
			for t := 0; t < bs; t++ {
				zrow := z1[t*h1 : (t+1)*h1]
				d2row := d2[t*h2 : (t+1)*h2]
				drow := d1[t*h1 : (t+1)*h1]
				for u := range drow {
					if zrow[u] > 0 {
						drow[u] = mat.Dot(d2row, m.w2[u*h2:(u+1)*h2])
					} else {
						drow[u] = 0
					}
				}
			}
			for i := range gB1 {
				gB1[i] = 0
			}
			for t := 0; t < bs; t++ {
				drow := d1[t*h1 : (t+1)*h1]
				for u, dv := range drow {
					gB1[u] += dv
				}
			}
			// Sparse input-layer grads: D1 row t is the gradient of
			// every embedding row active for example t, in the row
			// path's example-major append order.
			sparse = sparse[:0]
			for t := 0; t < bs; t++ {
				grad := d1[t*h1 : (t+1)*h1]
				for _, kx := range bidx[t*d : (t+1)*d] {
					sparse = append(sparse, sparseGrad{row: int(kx), grad: grad})
				}
			}
			m.applyAdam(gW2, gB2, gW3, gB3, gB1, sparse)
		}
		epochSpan.ObserveSince(epochT0)
	}
}

// applyAdam folds one mini-batch's accumulated gradients into the
// parameters: one full Adam step at this batch's bias correction for every
// element of w2, b2, w3, b3 and b1, then one for each (row, example) entry
// of sparse, in order. The blocks go through mat.Adam, which evaluates the
// same per-element expressions as the scalar loop the tests keep as the
// oracle (applyAdamScalar), so the fitted network is bit-identical to it.
// b3 stays scalar: its historical update adds no L2 term, not even 0*b3,
// which mat.Adam would add.
func (m *MLP) applyAdam(gW2, gB2, gW3 []float64, gB3 float64, gB1 []float64, sparse []sparseGrad) {
	h1 := m.cfg.Hidden1
	m.step++
	lr := m.cfg.LearningRate
	c1 := 1 - math.Pow(beta1, float64(m.step))
	c2 := 1 - math.Pow(beta2, float64(m.step))
	k := mat.AdamStep{
		L2: m.cfg.L2, Beta1: beta1, OneMinusBeta1: 1 - beta1,
		Beta2: beta2, OneMinusBeta2: 1 - beta2, LR: lr, C1: c1, C2: c2, Eps: eps,
	}
	noL2 := k
	noL2.L2 = 0
	mat.Adam(m.w2, m.a2.m, m.a2.v, gW2, &k)
	mat.Adam(m.b2, m.a2b.m, m.a2b.v, gB2, &noL2)
	mat.Adam(m.w3, m.a3.m, m.a3.v, gW3, &k)
	m.a3b.m[0] = float64(beta1*m.a3b.m[0]) + float64((1-beta1)*gB3)
	m.a3b.v[0] = float64(beta2*m.a3b.v[0]) + float64((1-beta2)*gB3*gB3)
	m.b3 -= lr * (m.a3b.m[0] / c1) / (math.Sqrt(m.a3b.v[0]/c2) + eps)
	mat.Adam(m.b1, m.a1b.m, m.a1b.v, gB1, &noL2)
	for _, sg := range sparse {
		base := sg.row * h1
		mat.Adam(m.w1[base:base+h1], m.a1.m[base:base+h1], m.a1.v[base:base+h1], sg.grad, &k)
	}
}

// Probability returns P(Y=1 | row).
func (m *MLP) Probability(row []relational.Value) float64 {
	h1, h2 := m.cfg.Hidden1, m.cfg.Hidden2
	z1 := make([]float64, h1)
	copy(z1, m.b1)
	for j, v := range row {
		k := m.enc.Index(j, v)
		w := m.w1[k*h1 : (k+1)*h1]
		for u := range z1 {
			z1[u] += w[u]
		}
	}
	for u := range z1 {
		if z1[u] < 0 {
			z1[u] = 0
		}
	}
	z2 := make([]float64, h2)
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
	z3 := m.b3
	for v := 0; v < h2; v++ {
		if z2[v] > 0 {
			z3 += float64(z2[v] * m.w3[v])
		}
	}
	return sigmoid(z3)
}

// Predict classifies one example.
func (m *MLP) Predict(row []relational.Value) int8 {
	if m.Probability(row) >= 0.5 {
		return 1
	}
	return 0
}

// predictChunk is the per-task extent of PredictBatch: big enough that the
// GEMM amortizes its setup, small enough that a chunk's activations stay
// cache-resident and a modest batch still spreads across the pool.
const predictChunk = 256

// PredictBatch implements ml.BatchPredictor: one batched forward pass per
// chunk (SpGemmOneHot over the dataset's active-index matrix, then
// ClassifyHidden's Gemm + Gemv tail) instead of a per-example Probability
// call that allocates both hidden layers per row. Chunks fan out across
// ml.ParallelFor with disjoint output slots and private scratch, so results
// are deterministic; each example's decision value folds in the same order
// as Probability's loops (the dense sums only add exact ±0 terms where
// Probability skips inactive units), so the classes agree with Predict
// example for example.
func (m *MLP) PredictBatch(ds *ml.Dataset) []int8 {
	n := ds.NumExamples()
	out := make([]int8, n)
	if n == 0 {
		return out
	}
	h1 := m.cfg.Hidden1
	d := ds.NumFeatures()
	idxMat, _ := ml.ScanActiveIndices(ds, m.enc)
	chunks := (n + predictChunk - 1) / predictChunk
	ml.ParallelFor(chunks, func(c int) {
		lo := c * predictChunk
		hi := min(lo+predictChunk, n)
		bs := hi - lo
		z1 := make([]float64, bs*h1)
		mat.SpGemmOneHot(z1, h1, idxMat[lo*d:hi*d], d, m.w1, h1, bs, d, h1, m.b1)
		m.ClassifyHidden(out[lo:hi], z1, bs)
	})
	return out
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
