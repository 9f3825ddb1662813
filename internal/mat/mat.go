// Package mat is a small dependency-free micro-BLAS for the learners' dense
// hot loops: register-blocked GEMM/GEMV kernels over row-major []float64
// blocks, plus the sparse kernels the one-hot feature encoding calls for
// (SpGemmOneHot over an active-index matrix, MatchCounts for the kernel-SVM
// Gram build), and the element-wise Adam update the MLP's optimizer runs.
//
// # Bit-identity contract
//
// Every kernel keeps the k-accumulation of each output element sequential and
// in ascending k order — the same order as the per-row scalar loops the
// learners historically ran — so swapping a scalar loop for a mat call
// changes *no result bit*. Register blocking only groups independent output
// elements (adjacent i rows, 4x-unrolled j columns); it never reorders the
// additions that feed one element, and unrolled dot products accumulate
// through a single chain (Go does not reassociate floating-point expressions,
// so `s + a + b` is evaluated as `(s + a) + b`). FuzzMatEquivalence pins
// every kernel bit-identical to its naive reference across shapes and
// strides.
//
// Six kernels have amd64 assembly bodies, picked once at init from CPUID,
// with a Go loop for other CPUs and GOARCHes. Gemm, GemmTA, SpGemmOneHot,
// Adam and FoldPanels (AVX) work four independent lanes per instruction
// with VEX-256 multiplies, adds, subtracts, divides and square roots and no
// fused multiply-add. Each is a correctly rounded IEEE-754 operation per
// lane, applied in the scalar loop's order, so the vector body and the
// scalar loop agree bit for bit (a NaN result's payload aside). Gemm and
// GemmTA share one micro-kernel that holds a 16-column tile of a C row in
// registers for the whole k walk; the asm checks no bounds, so their
// wrappers, and SpGemmOneHot's, send any shape whose extents or indices
// fall outside the slices to the Go loops. MatchCountsU16 (AVX2) compares
// 16 lanes per instruction; its counts are integers, equal to the SWAR
// loop's.
// Go may fuse `x*y + z` into one multiply-add (arm64 does), which skips
// the product's rounding. Every product that feeds an addition is therefore
// wrapped in an explicit float64 conversion, which the Go spec says forbids
// fusion, so the kernels round each operation on every GOARCH and agree
// across them bit for bit.
//
// All matrices are row-major with an explicit leading dimension (the stride
// between consecutive rows), so callers can address sub-blocks of a larger
// allocation without copying.
package mat

import "math/bits"

// Dot returns the inner product of x and y, accumulated sequentially through
// a single chain (4x-unrolled, never reassociated), so it is bit-identical
// to the obvious scalar loop. y must be at least as long as x.
func Dot(x, y []float64) float64 {
	return dotFrom(0, x, y)
}

// dotFrom continues an accumulation chain: it returns s plus the inner
// product of x and y, adding each product to the running sum in index order
// starting from s — the shape of the learners' `acc := bias; acc += x·y`
// loops, which Gemv must reproduce bit for bit.
func dotFrom(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s = s + float64(x[i]*y[i]) + float64(x[i+1]*y[i+1]) + float64(x[i+2]*y[i+2]) + float64(x[i+3]*y[i+3])
	}
	for ; i < len(x); i++ {
		s += float64(x[i] * y[i])
	}
	return s
}

// Axpy accumulates y += alpha*x element-wise (4x-unrolled; each element is
// independent, so unrolling cannot change any bit). y must be at least as
// long as x.
func Axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += float64(alpha * x[i])
		y[i+1] += float64(alpha * x[i+1])
		y[i+2] += float64(alpha * x[i+2])
		y[i+3] += float64(alpha * x[i+3])
	}
	for ; i < len(x); i++ {
		y[i] += float64(alpha * x[i])
	}
}

// addTo accumulates y += x element-wise — Axpy with alpha fixed to one,
// without the multiply (1*x is bit-exact, but the learners' historical loops
// add the row directly, so the kernel does too).
func addTo(x, y []float64) {
	y = y[:len(x)]
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += x[i]
		y[i+1] += x[i+1]
		y[i+2] += x[i+2]
		y[i+3] += x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// Gemv accumulates y += A·x for a row-major m×n matrix A with leading
// dimension lda. Each output continues its accumulation chain from the
// existing y[i] (products added in ascending j order), so the result is
// bit-identical to a scalar `acc := y[i]; acc += a[j]*x[j]` loop — not to a
// separately summed dot product added at the end.
func Gemv(y []float64, a []float64, lda int, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		y[i] = dotFrom(y[i], a[i*lda:i*lda+n], x[:n])
	}
}

// GemvT accumulates y += Aᵀ·x for a row-major m×n matrix A (y has length n,
// x length m). Row i's contribution x[i]*A[i,:] lands before row i+1's, so
// each y[j] sums in ascending i order — the order a per-example accumulation
// loop produces.
func GemvT(y []float64, a []float64, lda int, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		Axpy(x[i], a[i*lda:i*lda+n], y[:n])
	}
}

// Gemm accumulates C += A·B for row-major A (m×k, lda), B (k×n, ldb), and
// C (m×n, ldc). Every C[i,j] accumulates its k terms in ascending k order,
// exactly the order of the scalar dot-product loop. Where the CPU and OS
// support AVX, the amd64 micro-kernel (gemmAVX) runs the 4-column tiles of
// C and the Go tail the last n%4 columns; gemmGo runs everywhere else, and
// on any shape gemmFits turns away, where its slice bounds panic as before.
func Gemm(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if !gemmVec(c, ldc, a, lda, 1, b, ldb, m, n, k) {
		gemmGo(c, ldc, a, lda, b, ldb, m, n, k)
	}
}

// gemmGo is the Go Gemm loop. It is i-blocked two rows at a time (both
// share each streamed B row) with the j loop 4x-unrolled inside Axpy; the k
// loop stays outermost-per-element and ascending.
func gemmGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if n <= smallGemmN {
		gemmSmallN(c, ldc, a, lda, b, ldb, m, n, k)
		return
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		c0 := c[i*ldc : i*ldc+n]
		c1 := c[(i+1)*ldc : (i+1)*ldc+n]
		a0 := a[i*lda : i*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		for kk := 0; kk < k; kk++ {
			bk := b[kk*ldb : kk*ldb+n]
			av0, av1 := a0[kk], a1[kk]
			j := 0
			for ; j+4 <= n; j += 4 {
				c0[j] += float64(av0 * bk[j])
				c0[j+1] += float64(av0 * bk[j+1])
				c0[j+2] += float64(av0 * bk[j+2])
				c0[j+3] += float64(av0 * bk[j+3])
				c1[j] += float64(av1 * bk[j])
				c1[j+1] += float64(av1 * bk[j+1])
				c1[j+2] += float64(av1 * bk[j+2])
				c1[j+3] += float64(av1 * bk[j+3])
			}
			for ; j < n; j++ {
				c0[j] += float64(av0 * bk[j])
				c1[j] += float64(av1 * bk[j])
			}
		}
	}
	for ; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		ai := a[i*lda : i*lda+k]
		for kk := 0; kk < k; kk++ {
			Axpy(ai[kk], b[kk*ldb:kk*ldb+n], ci)
		}
	}
}

// smallGemmN is the C width at or below which gemmGo switches to the
// register-accumulator kernel. Narrow C is the serving tail's shape (a wide
// hidden layer funneling into a few output units): the streaming kernel
// loads and stores every C element once per k step, so for n this small the
// memory traffic on C dwarfs the flops. Measured on the reference box, the
// crossover sits between 8 and 16 columns.
const smallGemmN = 8

// gemmSmallN computes the same C += A·B for narrow C with the k loop
// innermost and the accumulation held in registers: each C element is read
// and written exactly once instead of k times. The i loop is blocked two
// rows at a time so both rows share each streamed B row, and the j loop four
// columns at a time. Every C[i,j] still sums its k terms in ascending k
// order through a single chain, so the result is bit-identical to the
// streaming kernel (FuzzMatEquivalence pins this).
func gemmSmallN(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if k == 0 {
		return
	}
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*lda : i*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		c0 := c[i*ldc : i*ldc+n]
		c1 := c[(i+1)*ldc : (i+1)*ldc+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			bj := b[j:]
			for kk, av0 := range a0 {
				bk := bj[kk*ldb : kk*ldb+4]
				av1 := a1[kk]
				s00 += float64(av0 * bk[0])
				s01 += float64(av0 * bk[1])
				s02 += float64(av0 * bk[2])
				s03 += float64(av0 * bk[3])
				s10 += float64(av1 * bk[0])
				s11 += float64(av1 * bk[1])
				s12 += float64(av1 * bk[2])
				s13 += float64(av1 * bk[3])
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		}
		for ; j < n; j++ {
			s0, s1 := c0[j], c1[j]
			bj := b[j:]
			for kk, av0 := range a0 {
				bv := bj[kk*ldb]
				s0 += float64(av0 * bv)
				s1 += float64(a1[kk] * bv)
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			s0, s1, s2, s3 := ci[j], ci[j+1], ci[j+2], ci[j+3]
			bj := b[j:]
			for kk, av := range ai {
				bk := bj[kk*ldb : kk*ldb+4]
				s0 += float64(av * bk[0])
				s1 += float64(av * bk[1])
				s2 += float64(av * bk[2])
				s3 += float64(av * bk[3])
			}
			ci[j], ci[j+1], ci[j+2], ci[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			s := ci[j]
			bj := b[j:]
			for kk, av := range ai {
				s += float64(av * bj[kk*ldb])
			}
			ci[j] = s
		}
	}
}

// GemmTA accumulates C += Aᵀ·B for row-major A (k×m, lda), B (k×n, ldb), and
// C (m×n, ldc) — the shape of a batch's weight-gradient accumulation
// (activationsᵀ · deltas). Every C[u,v] sums its per-example terms in
// ascending example order, exactly as the historical example-at-a-time loop
// accumulated them. It runs Gemm's micro-kernel with A read down its
// columns where the CPU has AVX (see Gemm), and gemmTAGo elsewhere.
func GemmTA(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	if !gemmVec(c, ldc, a, 1, lda, b, ldb, m, n, k) {
		gemmTAGo(c, ldc, a, lda, b, ldb, m, n, k)
	}
}

// gemmTAGo is the Go GemmTA loop: the k loop is outermost, so each C[u,v]
// gains its terms in ascending k order.
func gemmTAGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for kk := 0; kk < k; kk++ {
		ak := a[kk*lda : kk*lda+m]
		bk := b[kk*ldb : kk*ldb+n]
		u := 0
		for ; u+2 <= m; u += 2 {
			av0, av1 := ak[u], ak[u+1]
			c0 := c[u*ldc : u*ldc+n]
			c1 := c[(u+1)*ldc : (u+1)*ldc+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				c0[j] += float64(av0 * bk[j])
				c0[j+1] += float64(av0 * bk[j+1])
				c0[j+2] += float64(av0 * bk[j+2])
				c0[j+3] += float64(av0 * bk[j+3])
				c1[j] += float64(av1 * bk[j])
				c1[j+1] += float64(av1 * bk[j+1])
				c1[j+2] += float64(av1 * bk[j+2])
				c1[j+3] += float64(av1 * bk[j+3])
			}
			for ; j < n; j++ {
				c0[j] += float64(av0 * bk[j])
				c1[j] += float64(av1 * bk[j])
			}
		}
		for ; u < m; u++ {
			Axpy(ak[u], bk, c[u*ldc:u*ldc+n])
		}
	}
}

// GatherSum returns init + w[idx[0]] + w[idx[1]] + … accumulated in index
// order starting from init — the inner product of a one-hot-encoded row with
// a weight vector, without expanding the one-hot form, continuing the
// caller's `score := bias` accumulation chain so the result is bit-identical
// to the linear models' historical per-example loops. It is the h=1 form of
// SpGemmOneHot.
func GatherSum(init float64, w []float64, idx []int32) float64 {
	s := init
	for _, k := range idx {
		s += w[k]
	}
	return s
}

// SpGemmOneHot computes C = 1·biasᵀ + OneHot(idx)·W without expanding the
// one-hot matrix: row i of C is bias plus the sum of the W rows named by
// idx[i,:], added in column order — the exact accumulation order of the
// historical per-example embedding loops. idx is m×d (leading dimension
// ldi), W has h columns (leading dimension ldw), C is m×h (leading dimension
// ldc), and bias has length h. C rows are overwritten, not accumulated.
//
// With h == 1 the kernel degenerates to the linear models' batched scorer:
// c[i*ldc] = bias[0] + Σ_j w[idx[i,j]]. Where the CPU and OS support AVX,
// the amd64 body (spGemmOneHotAVX) runs the 4-column tiles of h > 1 and the
// Go tail the last h%4 columns; spGemmOneHotGo runs everywhere else, and on
// any shape or index oneHotFits turns away, where its slice bounds panic as
// before.
func SpGemmOneHot(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) {
	if !oneHotVec(c, ldc, idx, ldi, w, ldw, m, d, h, bias) {
		spGemmOneHotGo(c, ldc, idx, ldi, w, ldw, m, d, h, bias)
	}
}

// spGemmOneHotGo is the Go SpGemmOneHot loop.
func spGemmOneHotGo(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) {
	if h == 1 {
		b := bias[0]
		for i := 0; i < m; i++ {
			row := idx[i*ldi : i*ldi+d]
			s := b
			for _, k := range row {
				s += w[int(k)*ldw]
			}
			c[i*ldc] = s
		}
		return
	}
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+h]
		copy(ci, bias[:h])
		for _, k := range idx[i*ldi : i*ldi+d] {
			addTo(w[int(k)*ldw:int(k)*ldw+h], ci)
		}
	}
}

// u16Lanes is the packing width of the SWAR match kernel: four 16-bit
// feature codes per uint64 word.
const u16Lanes = 4

// PackedWords returns the uint64 words one packed row of d features needs.
func PackedWords(d int) int { return (d + u16Lanes - 1) / u16Lanes }

// PackU16Rows packs n rows of d int32 feature codes (row-major in block)
// into dst, four 16-bit lanes per uint64 word, padding the last word's
// unused lanes with zero — identical padding in every row, so padded lanes
// always compare equal and MatchCountsU16 can account for them exactly. It
// reports false (leaving dst unspecified) when any value falls outside
// [0, 65536), in which case the caller must keep the int32 path; dictionary
// codes fit whenever the feature's domain does, so in practice packing only
// fails on degenerate schemas.
func PackU16Rows(dst []uint64, block []int32, n, d int) bool {
	words := PackedWords(d)
	for i := 0; i < n; i++ {
		row := block[i*d : (i+1)*d]
		out := dst[i*words : (i+1)*words]
		for w := range out {
			var word uint64
			base := w * u16Lanes
			for l := 0; l < u16Lanes && base+l < d; l++ {
				v := row[base+l]
				if uint32(v) > 0xffff {
					return false
				}
				word |= uint64(uint16(v)) << (16 * l)
			}
			out[w] = word
		}
	}
	return true
}

const (
	swarLo7 = 0x7fff7fff7fff7fff
	swarHi  = 0x8000800080008000
)

// nonzeroLanes16 counts the nonzero 16-bit lanes of x without branches:
// adding 0x7fff to the low 15 bits of a lane carries into its high bit
// exactly when those bits are nonzero (0x7fff+0x7fff = 0xfffe, so the carry
// never crosses a lane), OR-ing x back in catches lanes whose own high bit
// is set, and the popcount of the high-bit mask is the nonzero-lane count.
func nonzeroLanes16(x uint64) int32 {
	y := (x&swarLo7 + swarLo7) | x
	return int32(bits.OnesCount64(y & swarHi))
}

// MatchCountsU16 is MatchCounts over rows packed by PackU16Rows: dst[i*ldd+j]
// counts the features where packed row i of a equals packed row j of b. a is
// m rows, b is n rows, both of PackedWords(d) words, and dst is m×n (ldd).
// Since padded lanes always match, the count is the equal lanes minus the
// 4·PackedWords(d) − d padding lanes: the same exact integer the int32 kernel
// produces, with a quarter of the compares and half the memory traffic.
// Where the CPU and OS support AVX2 and POPCNT, the amd64 body compares 16
// lanes per instruction (see matchCountsAVX2); the SWAR loop matchCountsGo
// runs everywhere else. Counts are integers, so both agree exactly.
// MatchCountsU16 panics when d or ldd is negative or an operand is too
// short for m, n and d.
func MatchCountsU16(dst []int32, ldd int, a []uint64, b []uint64, m, n, d int) {
	if m <= 0 || n <= 0 {
		return
	}
	words := PackedWords(d)
	if d < 0 || ldd < 0 || len(a) < m*words || len(b) < n*words || len(dst) < (m-1)*ldd+n {
		panic("mat: MatchCountsU16 operand out of range")
	}
	if !matchVec(dst, ldd, a, b, m, n, d) {
		matchCountsGo(dst, ldd, a, b, m, n, d)
	}
}

// matchCountsGo is the SWAR MatchCountsU16 loop: each uint64 word compares
// four lanes at once (XOR + zero-lane popcount), two rows of b per pass.
func matchCountsGo(dst []int32, ldd int, a []uint64, b []uint64, m, n, d int) {
	words := PackedWords(d)
	for i := 0; i < m; i++ {
		ai := a[i*words : (i+1)*words]
		di := dst[i*ldd : i*ldd+n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b[j*words : (j+1)*words]
			b1 := b[(j+1)*words : (j+2)*words]
			var nz0, nz1 int32
			for w, aw := range ai {
				nz0 += nonzeroLanes16(aw ^ b0[w])
				nz1 += nonzeroLanes16(aw ^ b1[w])
			}
			di[j], di[j+1] = int32(d)-nz0, int32(d)-nz1
		}
		for ; j < n; j++ {
			bj := b[j*words : (j+1)*words]
			var nz int32
			for w, aw := range ai {
				nz += nonzeroLanes16(aw ^ bj[w])
			}
			di[j] = int32(d) - nz
		}
	}
}

// matchEq returns 1 when a == b and 0 otherwise, branch-free: the sign bit
// of x|−x is set exactly when x != 0.
func matchEq(a, b int32) int32 {
	x := uint32(a ^ b)
	return int32(1 ^ ((x | -x) >> 31))
}

// MatchCounts fills dst[i*ldd+j] with the number of positions where row i of
// a equals row j of b — the one-hot dot product a_i·b_j computed without
// expanding either one-hot matrix, i.e. the blocked X·Xᵀ kernel of the
// categorical SVM's Gram build. a is m×k (lda), b is n×k (ldb), dst is m×n
// (ldd). The inner comparison is branch-free and j is blocked four rows at a
// time so each a value loads once per block; counts are exact integers, so
// blocking cannot change them.
func MatchCounts(dst []int32, ldd int, a []int32, lda int, b []int32, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		di := dst[i*ldd : i*ldd+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*ldb : j*ldb+k]
			b1 := b[(j+1)*ldb : (j+1)*ldb+k]
			b2 := b[(j+2)*ldb : (j+2)*ldb+k]
			b3 := b[(j+3)*ldb : (j+3)*ldb+k]
			var c0, c1, c2, c3 int32
			for f, av := range ai {
				c0 += matchEq(av, b0[f])
				c1 += matchEq(av, b1[f])
				c2 += matchEq(av, b2[f])
				c3 += matchEq(av, b3[f])
			}
			di[j], di[j+1], di[j+2], di[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			bj := b[j*ldb : j*ldb+k]
			var cnt int32
			for f, av := range ai {
				cnt += matchEq(av, bj[f])
			}
			di[j] = cnt
		}
	}
}
