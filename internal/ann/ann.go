// Package ann implements the multilayer perceptron the paper trains through
// Keras/TensorFlow (§3.2): two hidden layers of 256 and 64 ReLU units, a
// sigmoid output with cross-entropy loss, L2 regularization on layer
// weights, and the Adam optimizer with tunable learning rate.
//
// Inputs are one-hot encoded categorical vectors. Rather than materialize a
// (possibly enormous, FK-domain-sized) dense input, the first layer treats
// its weight matrix as an embedding table: the forward pass sums one row per
// active (feature, value) pair, and the backward pass updates only those
// rows. Adam's per-parameter state for the first layer is updated lazily
// with the standard sparse-Adam correction (decay applied on touch).
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
	// FusedAdam selects the approximate dense-Adam optimizer: parameters,
	// gradients, and Adam moments live in two contiguous slabs ([w1|w2|w3]
	// and [b1|b2|b3]) and every mini-batch updates each slab in a single
	// fused mat.AdamStep pass, with the input layer's gradient accumulated
	// densely instead of as per-row sparse chains. This is textbook dense
	// Adam: an embedding row untouched by the batch still sees moment decay
	// and L2 shrinkage, and a row active for several batch examples is
	// updated once with the summed gradient rather than once per example —
	// so the optimization trajectory diverges from the bit-identical
	// default and the path is gated by the accuracy-level equivalence
	// harness (core.VerifyAccuracy), not bit-equality. Default off.
	FusedAdam bool
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

	// slabs is non-nil only while fitting with Config.FusedAdam: the
	// contiguous parameter/gradient/moment storage the fused updates sweep.
	slabs *fusedSlabs
}

// fusedSlabs is the Config.FusedAdam storage layout: all weight blocks in
// one contiguous slab ([w1|w2|w3], L2-regularized) and all biases in another
// ([b1|b2|b3], no L2), each paired with same-shape gradient and Adam moment
// slabs so one mat.AdamStep call per slab updates the whole network.
type fusedSlabs struct {
	w, gw, mw, vw []float64 // dims·h1 + h1·h2 + h2
	b, gb, mb, vb []float64 // h1 + h2 + 1
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
	if m.cfg.FusedAdam {
		// Fused storage: the weight blocks are slices of one contiguous
		// slab (likewise the biases), so the fused optimizer sweeps each
		// slab in a single pass while the forward/backward code reads the
		// blocks through the same m.w1/m.w2/… names.
		nw := dims*h1 + h1*h2 + h2
		nb := h1 + h2 + 1
		s := &fusedSlabs{
			w: make([]float64, nw), gw: make([]float64, nw),
			mw: make([]float64, nw), vw: make([]float64, nw),
			b: make([]float64, nb), gb: make([]float64, nb),
			mb: make([]float64, nb), vb: make([]float64, nb),
		}
		m.slabs = s
		m.w1 = s.w[:dims*h1]
		m.w2 = s.w[dims*h1 : dims*h1+h1*h2]
		m.w3 = s.w[dims*h1+h1*h2:]
		m.b1 = s.b[:h1]
		m.b2 = s.b[h1 : h1+h2]
	} else {
		m.slabs = nil
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
	}
	// Same RNG draw order on both storage layouts, so the fused path starts
	// from bit-identical initial weights and any divergence is the
	// optimizer's alone.
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
	// Gradient accumulators: on the fused path they are slices of the slab
	// gradient storage (mat.AdamStep consumes and clears them in place); on
	// the default path they are the historical private buffers feeding
	// applyAdam, plus the sparse input-layer chains.
	fused := m.slabs != nil
	var gW1, gW2, gB2, gW3, gB1 []float64
	var sparse []sparseGrad
	if fused {
		s := m.slabs
		dims := m.enc.Dims
		gW1 = s.gw[:dims*h1]
		gW2 = s.gw[dims*h1 : dims*h1+h1*h2]
		gW3 = s.gw[dims*h1+h1*h2:]
		gB1 = s.gb[:h1]
		gB2 = s.gb[h1 : h1+h2]
	} else {
		gW2 = make([]float64, h1*h2)
		gB2 = make([]float64, h2)
		gW3 = make([]float64, h2)
		gB1 = make([]float64, h1)
		sparse = make([]sparseGrad, 0, B*d)
	}
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
			if fused {
				// Dense input-layer grads: scatter-add D1 row t into the
				// slab row of every active embedding (the slab region was
				// cleared by the previous AdamStep's consuming pass), then
				// update both slabs in one fused sweep each.
				for t := 0; t < bs; t++ {
					grad := d1[t*h1 : (t+1)*h1]
					for _, kx := range bidx[t*d : (t+1)*d] {
						mat.Axpy(1, grad, gW1[int(kx)*h1:(int(kx)+1)*h1])
					}
				}
				m.applyAdamFused(gB3)
			} else {
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
		}
		epochSpan.ObserveSince(epochT0)
	}
}

// applyAdam folds one mini-batch's accumulated gradients into the
// parameters. Moved verbatim from the historical epoch loop, which the
// tests keep as an oracle and which calls it too, so their update
// arithmetic is identical by construction.
func (m *MLP) applyAdam(gW2, gB2, gW3 []float64, gB3 float64, gB1 []float64, sparse []sparseGrad) {
	h1 := m.cfg.Hidden1
	m.step++
	lr := m.cfg.LearningRate
	c1 := 1 - math.Pow(beta1, float64(m.step))
	c2 := 1 - math.Pow(beta2, float64(m.step))
	update := func(w, g []float64, st adamState, l2 float64) {
		for i := range w {
			gi := g[i] + l2*w[i]
			st.m[i] = beta1*st.m[i] + (1-beta1)*gi
			st.v[i] = beta2*st.v[i] + (1-beta2)*gi*gi
			w[i] -= lr * (st.m[i] / c1) / (math.Sqrt(st.v[i]/c2) + eps)
		}
	}
	update(m.w2, gW2, m.a2, m.cfg.L2)
	update(m.b2, gB2, m.a2b, 0)
	update(m.w3, gW3, m.a3, m.cfg.L2)
	m.a3b.m[0] = beta1*m.a3b.m[0] + (1-beta1)*gB3
	m.a3b.v[0] = beta2*m.a3b.v[0] + (1-beta2)*gB3*gB3
	m.b3 -= lr * (m.a3b.m[0] / c1) / (math.Sqrt(m.a3b.v[0]/c2) + eps)
	update(m.b1, gB1, m.a1b, 0)
	// Sparse rows of w1.
	for _, sg := range sparse {
		base := sg.row * h1
		w := m.w1[base : base+h1]
		mm := m.a1.m[base : base+h1]
		vv := m.a1.v[base : base+h1]
		for u := 0; u < h1; u++ {
			gi := sg.grad[u] + m.cfg.L2*w[u]
			mm[u] = beta1*mm[u] + (1-beta1)*gi
			vv[u] = beta2*vv[u] + (1-beta2)*gi*gi
			w[u] -= lr * (mm[u] / c1) / (math.Sqrt(vv[u]/c2) + eps)
		}
	}
}

// applyAdamFused folds one mini-batch's gradients into the parameters on the
// Config.FusedAdam path: the scalar output-bias gradient is stored into its
// slab cell, then each slab (weights with L2, biases without) updates through
// one mat.AdamStep pass over contiguous memory. AdamStep clears the gradient
// slabs as it consumes them, so the next batch's accumulation starts from
// zero. The element-wise arithmetic matches applyAdam's update closure; the
// trajectory diverges only because the input layer is treated densely (see
// Config.FusedAdam).
func (m *MLP) applyAdamFused(gB3 float64) {
	s := m.slabs
	s.gb[len(s.gb)-1] = gB3
	m.step++
	lr := m.cfg.LearningRate
	c1 := 1 - math.Pow(beta1, float64(m.step))
	c2 := 1 - math.Pow(beta2, float64(m.step))
	mat.AdamStep(s.w, s.gw, s.mw, s.vw, lr, m.cfg.L2, beta1, beta2, eps, c1, c2)
	mat.AdamStep(s.b, s.gb, s.mb, s.vb, lr, 0, beta1, beta2, eps, c1, c2)
	// The forward pass reads the scalar field; keep it synced with the
	// slab's last cell.
	m.b3 = s.b[len(s.b)-1]
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
			z2[v] += a * w[v]
		}
	}
	z3 := m.b3
	for v := 0; v < h2; v++ {
		if z2[v] > 0 {
			z3 += z2[v] * m.w3[v]
		}
	}
	return sigmoid(z3)
}

// hiddenActivation returns the post-ReLU activation of second-hidden-layer
// unit v for a row; the finite-difference gradient test uses it to form the
// analytic output-layer gradient.
func (m *MLP) hiddenActivation(row []relational.Value, v int) float64 {
	h1 := m.cfg.Hidden1
	z1 := make([]float64, h1)
	copy(z1, m.b1)
	for j, val := range row {
		k := m.enc.Index(j, val)
		w := m.w1[k*h1 : (k+1)*h1]
		for u := range z1 {
			z1[u] += w[u]
		}
	}
	z2v := m.b2[v]
	for u := 0; u < h1; u++ {
		if z1[u] > 0 {
			z2v += z1[u] * m.w2[u*m.cfg.Hidden2+v]
		}
	}
	if z2v < 0 {
		return 0
	}
	return z2v
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
// chunk (SpGemmOneHot + Gemm + Gemv over the dataset's active-index matrix)
// instead of a per-example Probability call that allocates both hidden
// layers per row. Chunks fan out across ml.ParallelFor with disjoint output
// slots and private scratch, so results are deterministic; each example's
// decision value folds in the same order as Probability's loops (the dense
// sums only add exact ±0 terms where Probability skips inactive units), so
// the classes agree with Predict example for example.
func (m *MLP) PredictBatch(ds *ml.Dataset) []int8 {
	n := ds.NumExamples()
	out := make([]int8, n)
	if n == 0 {
		return out
	}
	h1, h2 := m.cfg.Hidden1, m.cfg.Hidden2
	d := ds.NumFeatures()
	idxMat, _ := ml.ScanActiveIndices(ds, m.enc)
	chunks := (n + predictChunk - 1) / predictChunk
	ml.ParallelFor(chunks, func(c int) {
		lo := c * predictChunk
		hi := min(lo+predictChunk, n)
		bs := hi - lo
		z1 := make([]float64, bs*h1)
		z2 := make([]float64, bs*h2)
		z3 := make([]float64, bs)
		mat.SpGemmOneHot(z1, h1, idxMat[lo*d:hi*d], d, m.w1, h1, bs, d, h1, m.b1)
		for i, v := range z1 {
			if v < 0 {
				z1[i] = 0
			}
		}
		for t := 0; t < bs; t++ {
			copy(z2[t*h2:(t+1)*h2], m.b2)
		}
		mat.Gemm(z2, h2, z1, h1, m.w2, h2, bs, h2, h1)
		for i, v := range z2 {
			if v < 0 {
				z2[i] = 0
			}
		}
		for t := 0; t < bs; t++ {
			z3[t] = m.b3
		}
		mat.Gemv(z3, z2, h2, m.w3, bs, h2)
		for t := 0; t < bs; t++ {
			if sigmoid(z3[t]) >= 0.5 {
				out[lo+t] = 1
			}
		}
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
