package ann

import (
	"math"
	"testing"

	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// lossAt computes the batch cross-entropy loss of the current parameters on
// a dataset (no regularization), used by the finite-difference check.
func lossAt(m *MLP, ds *ml.Dataset) float64 {
	loss := 0.0
	x, y := ml.ScanRowMajor(ds)
	k := ds.NumFeatures()
	for i := range y {
		p := m.Probability(x[i*k : (i+1)*k])
		// Clamp for numerical safety.
		if p < 1e-12 {
			p = 1e-12
		}
		if p > 1-1e-12 {
			p = 1 - 1e-12
		}
		if y[i] == 1 {
			loss += -math.Log(p)
		} else {
			loss += -math.Log(1 - p)
		}
	}
	return loss / float64(ds.NumExamples())
}

// TestGradientDescentDecreasesLoss verifies end-to-end that training reduces
// the cross-entropy loss — the integrated consequence of correct gradients.
func TestGradientDescentDecreasesLoss(t *testing.T) {
	r := rng.New(1)
	var xs []relational.Value
	var ys []int8
	for i := 0; i < 200; i++ {
		a, b := r.Intn(3), r.Intn(3)
		y := int8(0)
		if (a+b)%2 == 0 {
			y = 1
		}
		xs = append(xs, relational.Value(a), relational.Value(b))
		ys = append(ys, y)
	}
	ds := mustRows([]ml.Feature{
		{Name: "a", Cardinality: 3},
		{Name: "b", Cardinality: 3},
	}, xs, ys)
	cfg := Config{Hidden1: 12, Hidden2: 6, LearningRate: 1e-2, Epochs: 1, BatchSize: 16, Seed: 3}

	m0 := New(cfg)
	if err := m0.Fit(ds); err != nil {
		t.Fatal(err)
	}
	after1 := lossAt(m0, ds)

	cfg.Epochs = 40
	m1 := New(cfg)
	if err := m1.Fit(ds); err != nil {
		t.Fatal(err)
	}
	after40 := lossAt(m1, ds)
	if after40 >= after1 {
		t.Fatalf("loss must fall with more epochs: 1 epoch %v vs 40 epochs %v", after1, after40)
	}
	if after40 > 0.3 {
		t.Fatalf("parity task should be nearly solved, loss %v", after40)
	}
}

// TestFiniteDifferenceGradient checks the analytic output-layer gradient
// against central finite differences on a tiny fixed network.
func TestFiniteDifferenceGradient(t *testing.T) {
	ds := mustRows([]ml.Feature{{Name: "x", Cardinality: 2}}, []relational.Value{0, 1}, []int8{0, 1})
	cfg := Config{Hidden1: 4, Hidden2: 3, LearningRate: 1e-9, Epochs: 1, BatchSize: 2, Seed: 7}
	m := New(cfg)
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	// With a vanishing learning rate the parameters are ≈ the init; compute
	// the analytic gradient of the loss w.r.t. w3[v] by hand:
	// dL/dw3[v] = mean_i (p_i − y_i) · z2_i[v]; compare to central FD.
	const eps = 1e-5
	for v := 0; v < cfg.Hidden2; v++ {
		orig := m.w3[v]
		m.w3[v] = orig + eps
		lp := lossAt(m, ds)
		m.w3[v] = orig - eps
		lm := lossAt(m, ds)
		m.w3[v] = orig
		fd := (lp - lm) / (2 * eps)

		// Analytic gradient at the current parameters.
		analytic := 0.0
		x, y := ml.ScanRowMajor(ds)
		k := ds.NumFeatures()
		for i := range y {
			row := x[i*k : (i+1)*k]
			p := m.Probability(row)
			// Recompute z2[v] for this row: forward pass up to layer 2.
			z2v := m.hiddenActivation(row, v)
			analytic += float64((p - float64(y[i])) * z2v)
		}
		analytic /= float64(ds.NumExamples())
		if math.Abs(fd-analytic) > 1e-6*(1+math.Abs(fd)) {
			t.Fatalf("w3[%d]: finite diff %v vs analytic %v", v, fd, analytic)
		}
	}
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
			z2v += float64(z1[u] * m.w2[u*m.cfg.Hidden2+v])
		}
	}
	if z2v < 0 {
		return 0
	}
	return z2v
}
