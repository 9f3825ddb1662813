package mat

import "math"

// gemmVec runs the AVX micro-kernel over the 4-column tiles of C and the
// Go tail over the rest, and reports true, or reports false when the CPU
// lacks AVX or the shape fails gemmFits.
func gemmVec(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int) bool {
	if !hasAVX || !gemmFits(c, ldc, a, sI, sK, b, ldb, m, n, k) {
		return false
	}
	gemmAVX(c, ldc, a, sI, sK, b, ldb, m, n, k)
	gemmTail(c, ldc, a, sI, sK, b, ldb, m, n, k)
	return true
}

// gemmAVX is the Gemm/GemmTA micro-kernel with VEX-256 broadcasts,
// multiplies and adds, no fused multiply-add: C[i, j] += Σ_kk A(i, kk)·B[kk, j]
// over columns [0, n&^3), A(i, kk) at a[i·sI + kk·sK], each element's sum in
// ascending kk order. A 16-column tile of a C row stays in four registers
// for the whole kk walk, then each remaining 4-column tile in one. The
// operands must already be checked against the shape.
//
//go:noescape
func gemmAVX(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int)

// oneHotVec runs SpGemmOneHot's AVX body over the 4-column tiles of C and
// the Go tail over the rest, and reports true, or reports false when the
// CPU lacks AVX or the shape fails oneHotFits.
func oneHotVec(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) bool {
	if !hasAVX || !oneHotFits(c, ldc, idx, ldi, w, ldw, m, d, h, bias) {
		return false
	}
	spGemmOneHotAVX(c, ldc, idx, ldi, w, ldw, m, d, h, bias)
	oneHotTail(c, ldc, idx, ldi, w, ldw, m, d, h, bias)
	return true
}

// spGemmOneHotAVX is SpGemmOneHot with VEX-256 adds over columns [0, h&^3):
// a 16-column tile of the bias stays in four registers while the named W
// rows are added in column order, then each remaining 4-column tile in one.
// The operands and every index must already be checked against the shape.
//
//go:noescape
func spGemmOneHotAVX(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64)

// spans reports whether rows and cols are at least 1, the strides s and t
// are not negative, and every element x[i·s + j·t], i < rows and j < cols,
// lies in a slice of length l. It computes no product that could overflow.
func spans(l, rows, s, cols, t int) bool {
	if rows < 1 || cols < 1 || s < 0 || t < 0 || l < 1 {
		return false
	}
	last := l - 1
	if rows > 1 {
		if s > last/(rows-1) {
			return false
		}
		last -= (rows - 1) * s
	}
	return cols == 1 || t <= last/(cols-1)
}

// gemmFits reports whether gemmAVX and gemmTail may run C += A·B over m×n
// with A(i, kk) at a[i·sI + kk·sK]: every extent is positive, C holds at
// least one 4-column tile and its rows do not overlap, and every element
// either touches lies inside its slice. The Go loops take every other shape.
func gemmFits(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int) bool {
	return n >= 4 && ldc >= n && spans(len(c), m, ldc, n, 1) &&
		spans(len(a), m, sI, k, sK) && spans(len(b), k, ldb, n, 1)
}

// gemmTail finishes what gemmAVX leaves: columns [n&^3, n) of C += A·B,
// each element summed in ascending kk order.
func gemmTail(c []float64, ldc int, a []float64, sI, sK int, b []float64, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := n &^ 3; j < n; j++ {
			s := c[i*ldc+j]
			for kk := 0; kk < k; kk++ {
				s += float64(a[i*sI+kk*sK] * b[kk*ldb+j])
			}
			c[i*ldc+j] = s
		}
	}
}

// oneHotFits reports whether spGemmOneHotAVX and oneHotTail may run: C holds
// at least one 4-column tile in rows that do not overlap, every extent is
// positive and inside its slice, and every index names a whole W row. The
// Go loop takes every other shape.
func oneHotFits(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) bool {
	if h < 4 || ldc < h || len(bias) < h || len(w) < h || ldw < 0 ||
		!spans(len(c), m, ldc, h, 1) || !spans(len(idx), m, ldi, d, 1) {
		return false
	}
	top := math.MaxInt32 // the last W row an index may name
	if ldw > 0 {
		top = min(top, (len(w)-h)/ldw)
	}
	for i := 0; i < m; i++ {
		for _, k := range idx[i*ldi : i*ldi+d] {
			if k < 0 || int(k) > top {
				return false
			}
		}
	}
	return true
}

// oneHotTail finishes what spGemmOneHotAVX leaves: columns [h&^3, h) of
// each C row, the bias plus the named W rows in column order.
func oneHotTail(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) {
	for i := 0; i < m; i++ {
		row := idx[i*ldi : i*ldi+d]
		for u := h &^ 3; u < h; u++ {
			s := bias[u]
			for _, k := range row {
				s += w[int(k)*ldw+u]
			}
			c[i*ldc+u] = s
		}
	}
}
