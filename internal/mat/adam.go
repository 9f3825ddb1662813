package mat

import "math"

// AdamStep holds the coefficients of one Adam update, shared by every element
// it touches. The caller computes them once per step from its own constant
// expressions, so OneMinusBeta1 is `1 - beta1` rounded once as a constant,
// exactly the value the learners' historical loops multiplied by.
type AdamStep struct {
	L2                   float64 // weight decay folded into the gradient
	Beta1, OneMinusBeta1 float64 // first-moment decay and its complement
	Beta2, OneMinusBeta2 float64 // second-moment decay and its complement
	LR                   float64 // step size
	C1, C2               float64 // bias corrections 1-β1^t and 1-β2^t
	Eps                  float64
}

// Adam applies one Adam update to every element of w with gradient g and
// moments m and v (each at least as long as w), evaluating per element, in
// this order and without fused multiply-adds:
//
//	gi = g + L2*w
//	m  = Beta1*m + OneMinusBeta1*gi
//	v  = Beta2*v + (OneMinusBeta2*gi)*gi
//	w -= (LR*(m/C1)) / (sqrt(v/C2) + Eps)
//
// Elements are independent and every operation is a correctly rounded
// IEEE-754 operation on each lane, so the 4-wide amd64 body and the scalar
// loop produce the same bits, except that a NaN result's payload is
// unspecified; FuzzMatEquivalence pins both against the plain loop. The
// vector body runs where the CPU and OS support AVX, and the scalar loop
// takes the remaining tail and every other host.
func Adam(w, m, v, g []float64, k *AdamStep) {
	n := len(w)
	m, v, g = m[:n], v[:n], g[:n]
	i := adamVec(w, m, v, g, k)
	adamGo(w[i:], m[i:], v[i:], g[i:], k)
}

// adamGo is the scalar Adam loop; see Adam for the evaluation order.
func adamGo(w, m, v, g []float64, k *AdamStep) {
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	l2, b1, ob1, b2, ob2 := k.L2, k.Beta1, k.OneMinusBeta1, k.Beta2, k.OneMinusBeta2
	lr, c1, c2, eps := k.LR, k.C1, k.C2, k.Eps
	for i := range w {
		gi := g[i] + float64(l2*w[i])
		m[i] = float64(b1*m[i]) + float64(ob1*gi)
		v[i] = float64(b2*v[i]) + float64(ob2*gi*gi)
		w[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
	}
}
