package mat

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// naiveGemm is the reference triple loop: per output element, k ascending.
func naiveGemm(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c[i*ldc+j]
			for kk := 0; kk < k; kk++ {
				s += float64(a[i*lda+kk] * b[kk*ldb+j])
			}
			c[i*ldc+j] = s
		}
	}
}

// naiveGemmTA accumulates C += Aᵀ·B with the per-element k loop ascending.
func naiveGemmTA(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int) {
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			s := c[u*ldc+v]
			for kk := 0; kk < k; kk++ {
				s += float64(a[kk*lda+u] * b[kk*ldb+v])
			}
			c[u*ldc+v] = s
		}
	}
}

func naiveGemv(y []float64, a []float64, lda int, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		s := y[i]
		for j := 0; j < n; j++ {
			s += float64(a[i*lda+j] * x[j])
		}
		y[i] = s
	}
}

func naiveGemvT(y []float64, a []float64, lda int, x []float64, m, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			y[j] += float64(x[i] * a[i*lda+j])
		}
	}
}

func naiveSpGemmOneHot(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64) {
	for i := 0; i < m; i++ {
		for u := 0; u < h; u++ {
			c[i*ldc+u] = bias[u]
		}
		for j := 0; j < d; j++ {
			row := int(idx[i*ldi+j]) * ldw
			for u := 0; u < h; u++ {
				c[i*ldc+u] += w[row+u]
			}
		}
	}
}

func naiveMatchCounts(dst []int32, ldd int, a []int32, lda int, b []int32, ldb int, m, n, k int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var cnt int32
			for f := 0; f < k; f++ {
				if a[i*lda+f] == b[j*ldb+f] {
					cnt++
				}
			}
			dst[i*ldd+j] = cnt
		}
	}
}

// fillRand populates a slice with a reproducible mix of magnitudes, signs,
// and exact zeros so cancellation-order bugs surface.
func fillRand(r *rng.RNG, dst []float64) {
	for i := range dst {
		switch r.Intn(8) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = r.NormFloat64() * 1e9
		case 2:
			dst[i] = r.NormFloat64() * 1e-9
		default:
			dst[i] = r.NormFloat64()
		}
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d diverged: got %v (%#x) want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernels runs every kernel against its naive reference for one shape
// and stride set, requiring bit-identical outputs. Shared by the table test
// and the fuzzer.
func checkKernels(t *testing.T, seed uint64, m, n, k, lda, ldb, ldc int) {
	t.Helper()
	if lda < k {
		lda = k
	}
	if ldb < n {
		ldb = n
	}
	if ldc < n {
		ldc = n
	}
	r := rng.New(seed)
	a := make([]float64, m*lda+1)
	fillRand(r, a)
	// Gemm and GemmTA through every body.
	checkGemm(t, r, m, n, k, lda, ldb, ldc)

	// Gemv / GemvT over the m×k matrix a.
	x := make([]float64, k)
	fillRand(r, x)
	y0 := make([]float64, m)
	fillRand(r, y0)
	y1 := append([]float64(nil), y0...)
	Gemv(y0, a, lda, x, m, k)
	naiveGemv(y1, a, lda, x, m, k)
	bitsEqual(t, "Gemv", y0, y1)

	xt := make([]float64, m)
	fillRand(r, xt)
	yt0 := make([]float64, k)
	fillRand(r, yt0)
	yt1 := append([]float64(nil), yt0...)
	GemvT(yt0, a, lda, xt, m, k)
	naiveGemvT(yt1, a, lda, xt, m, k)
	bitsEqual(t, "GemvT", yt0, yt1)

	// Dot and Axpy on dedicated k- and n-length vectors.
	dx := make([]float64, k)
	dy := make([]float64, k)
	fillRand(r, dx)
	fillRand(r, dy)
	if got, want := Dot(dx, dy), func() float64 {
		s := 0.0
		for i := 0; i < k; i++ {
			s += float64(dx[i] * dy[i])
		}
		return s
	}(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Dot diverged: got %v want %v", got, want)
	}
	alpha := r.NormFloat64()
	axx := make([]float64, n)
	fillRand(r, axx)
	ax0 := make([]float64, n)
	fillRand(r, ax0)
	ax1 := append([]float64(nil), ax0...)
	Axpy(alpha, axx, ax0)
	for i := 0; i < n; i++ {
		ax1[i] += float64(alpha * axx[i])
	}
	bitsEqual(t, "Axpy", ax0, ax1)

	// SpGemmOneHot over d = k active indices, with the h > 1 row-add path at
	// h = n and the h == 1 scalar path.
	for _, h := range []int{1, n} {
		checkOneHot(t, r, m, k, h, k+lda%3, h+ldb%3, max(ldc, h))
	}

	// GatherSum against the plain loop, continuing from a bias term.
	{
		w := make([]float64, m*k+1)
		fillRand(r, w)
		idx := make([]int32, k)
		for i := range idx {
			idx[i] = int32(r.Intn(len(w)))
		}
		bias := r.NormFloat64()
		want := bias
		for _, ix := range idx {
			want += w[ix]
		}
		if got := GatherSum(bias, w, idx); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GatherSum diverged: got %v want %v", got, want)
		}
	}

	// MatchCounts on small-domain codes so matches actually occur. Both
	// operands are rows of length k, so they share the ≥k stride lda.
	ca := make([]int32, m*lda+1)
	cb := make([]int32, n*lda+1)
	for i := range ca {
		ca[i] = int32(r.Intn(3))
	}
	for i := range cb {
		cb[i] = int32(r.Intn(3))
	}
	mc0 := make([]int32, m*ldc+1)
	mc1 := make([]int32, m*ldc+1)
	MatchCounts(mc0, ldc, ca, lda, cb, lda, m, n, k)
	naiveMatchCounts(mc1, ldc, ca, lda, cb, lda, m, n, k)
	for i := range mc1 {
		if mc0[i] != mc1[i] {
			t.Fatalf("MatchCounts: element %d diverged: got %d want %d", i, mc0[i], mc1[i])
		}
	}

	// MatchCountsU16 and its bodies on packed rows of the same shape.
	checkMatch(t, r, m, n, k, ldc)

	// Adam over n elements at a random step (late steps give C1 == 1),
	// with L2 off or on.
	ak := adamStepFor(1+r.Intn(500), []float64{0, 1e-3, r.Float64()}[r.Intn(3)], r.Float64())
	checkAdam(t, r, n, &ak)

	// FoldPanels over an n×n panel matrix: one random panel pair (the
	// padded last panel and a == b included) over every list shape.
	if panels := (n + 3) / 4; panels > 0 {
		checkFold(t, r, n, [][2]int{{r.Intn(panels), r.Intn(panels)}, {panels - 1, panels - 1}})
	}
}

// fillGemm fills dst for the Gemm and one-hot checks: ordinary values with
// ±0, subnormals and large magnitudes mixed in, and ±Inf or NaN in about one
// entry of poison, so special values meet the kernels while most sums stay
// finite.
func fillGemm(r *rng.RNG, dst []float64, poison int) {
	for i := range dst {
		if r.Intn(poison) == 0 {
			switch r.Intn(3) {
			case 0:
				dst[i] = math.Inf(1 - 2*r.Intn(2))
			default:
				dst[i] = math.Float64frombits(0x7ff8000000000000 | uint64(r.Intn(2))<<63 | uint64(r.Intn(1<<20)))
			}
			continue
		}
		switch r.Intn(8) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = math.Copysign(0, -1)
		case 2:
			dst[i] = float64(r.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
		case 3:
			dst[i] = r.NormFloat64() * 1e150
		case 4:
			dst[i] = r.NormFloat64() * 1e-160
		default:
			dst[i] = r.NormFloat64()
		}
	}
}

// checkGemm runs Gemm and GemmTA, their Go loops and (where the CPU has it)
// the vector micro-kernel directly, with A read along its rows (sI, sK) =
// (lda, 1) for Gemm and down its columns (1, lda) for GemmTA, on an m×n
// block of C with k terms per element. Strides are raised to the block's
// widths. Every body must match the naive loop bit for bit, NaN payloads
// aside, over the block (the vector body over its first n&^3 columns) and
// leave every other cell of C as it found it.
func checkGemm(t *testing.T, r *rng.RNG, m, n, k, lda, ldb, ldc int) {
	t.Helper()
	ldb, ldc = max(ldb, n), max(ldc, n)
	poison := 4 * (k + 2)
	b := make([]float64, k*ldb+1)
	fillGemm(r, b, poison)
	c := make([]float64, m*ldc+3)
	fillGemm(r, c, poison)
	type body struct {
		name string
		fn   func(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, m, n, k int)
		cols int // columns the body updates
	}
	for _, ta := range []bool{false, true} {
		name, sI, sK, rows, naive := "Gemm", max(lda, k), 1, m, naiveGemm
		bodies := []body{{"Gemm", Gemm, n}, {"gemmGo", gemmGo, n}}
		if ta {
			name, sI, sK, rows, naive = "GemmTA", 1, max(lda, m), k, naiveGemmTA
			bodies = []body{{"GemmTA", GemmTA, n}, {"gemmTAGo", gemmTAGo, n}}
		}
		ld := max(sI, sK) // A's leading dimension
		if vectorGemm != nil {
			bodies = append(bodies, body{"gemmAVX", func(c []float64, ldc int, a []float64, _ int, b []float64, ldb int, m, n, k int) {
				vectorGemm(c, ldc, a, sI, sK, b, ldb, m, n, k)
			}, n &^ 3})
		}
		a := make([]float64, rows*ld+1)
		fillGemm(r, a, poison)
		for _, bd := range bodies {
			want := slices.Clone(c)
			naive(want, ldc, a, ld, b, ldb, m, bd.cols, k)
			got := slices.Clone(c)
			bd.fn(got, ldc, a, ld, b, ldb, m, n, k)
			sameOrNaN(t, fmt.Sprintf("%s (%s) m=%d n=%d k=%d lda=%d ldb=%d ldc=%d", bd.name, name, m, n, k, ld, ldb, ldc), got, want)
		}
	}
}

// checkOneHot runs SpGemmOneHot, its Go loop and (where the CPU has it) the
// vector body directly on an m×h block of C with d active indices per row
// into a W table of m·d+1 rows (leading dimension ldw, which may be below
// h, so rows overlap). Every body must match the naive loop bit for bit,
// NaN payloads aside, over the block (the vector body over its first h&^3
// columns) and leave every other cell of C as it found it.
func checkOneHot(t *testing.T, r *rng.RNG, m, d, h, ldi, ldw, ldc int) {
	t.Helper()
	ldi, ldc = max(ldi, d), max(ldc, h)
	poison := 4 * (d + 2)
	wrows := m*d + 1
	w := make([]float64, (wrows-1)*ldw+h)
	fillGemm(r, w, poison)
	bias := make([]float64, h)
	fillGemm(r, bias, poison)
	idx := make([]int32, m*ldi+1)
	for i := range idx {
		idx[i] = int32(r.Intn(wrows))
	}
	c := make([]float64, m*ldc+3)
	fillGemm(r, c, poison)
	type body struct {
		name string
		fn   func(c []float64, ldc int, idx []int32, ldi int, w []float64, ldw int, m, d, h int, bias []float64)
		cols int // columns the body writes
	}
	bodies := []body{{"SpGemmOneHot", SpGemmOneHot, h}, {"spGemmOneHotGo", spGemmOneHotGo, h}}
	if vectorOneHot != nil && h != 1 {
		bodies = append(bodies, body{"spGemmOneHotAVX", vectorOneHot, h &^ 3})
	}
	for _, bd := range bodies {
		want := slices.Clone(c)
		naiveSpGemmOneHot(want, ldc, idx, ldi, w, ldw, m, d, bd.cols, bias)
		got := slices.Clone(c)
		bd.fn(got, ldc, idx, ldi, w, ldw, m, d, h, bias)
		sameOrNaN(t, fmt.Sprintf("%s m=%d d=%d h=%d ldi=%d ldw=%d ldc=%d", bd.name, m, d, h, ldi, ldw, ldc), got, want)
	}
}

// matchLanes are the codes checkMatch draws: lane values that differ from
// a neighbour in one bit (0 and 1, 0 and 0x8000, 0x7fff and 0xffff, 0xfffe
// and 0xffff), so a compare that treated a lane's two bytes apart, or
// dropped its top or bottom bit, would miscount.
var matchLanes = []int32{0, 1, 0x7fff, 0x8000, 0xfffe, 0xffff}

// checkMatch packs m rows of a and n rows of b, k codes each, from
// matchLanes (half of b's rows copy a row of a with some lanes flipped in
// one bit, so counts near k occur too), then requires MatchCountsU16,
// matchCountsGo and (where the CPU has one) the vector body to write the
// int32 MatchCounts' counts into dst (ldd ≥ n) and leave every cell
// outside the m×n block as they found it.
func checkMatch(t *testing.T, r *rng.RNG, m, n, k, ldd int) {
	t.Helper()
	da := make([]int32, m*k)
	db := make([]int32, n*k)
	for i := range da {
		da[i] = matchLanes[r.Intn(len(matchLanes))]
	}
	for j := 0; j < n; j++ {
		row := db[j*k : (j+1)*k]
		if m > 0 && r.Intn(2) == 0 {
			copy(row, da[r.Intn(m)*k:])
			for f := range row {
				if r.Intn(3) == 0 {
					row[f] ^= []int32{1, 0x8000}[r.Intn(2)]
				}
			}
			continue
		}
		for f := range row {
			row[f] = matchLanes[r.Intn(len(matchLanes))]
		}
	}
	pa := make([]uint64, m*PackedWords(k))
	pb := make([]uint64, n*PackedWords(k))
	if !PackU16Rows(pa, da, m, k) || !PackU16Rows(pb, db, n, k) {
		t.Fatal("PackU16Rows rejected in-range codes")
	}
	size := 0
	if m > 0 {
		size = (m-1)*ldd + n + 1
	}
	fresh := func() []int32 {
		dst := make([]int32, size)
		for i := range dst {
			dst[i] = -7 // what a cell outside the block must keep
		}
		return dst
	}
	want := fresh()
	MatchCounts(want, ldd, da, k, db, k, m, n, k)
	type body struct {
		name string
		fn   func(dst []int32, ldd int, a, b []uint64, m, n, d int)
	}
	bodies := []body{{"MatchCountsU16", MatchCountsU16}, {"matchCountsGo", matchCountsGo}}
	if vectorMatch != nil {
		bodies = append(bodies, body{"matchCountsAVX2", vectorMatch})
	}
	for _, bd := range bodies {
		got := fresh()
		bd.fn(got, ldd, pa, pb, m, n, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s m=%d n=%d k=%d ldd=%d: dst[%d] = %d, want %d", bd.name, m, n, k, ldd, i, got[i], want[i])
			}
		}
	}
}

// naiveAdam is the learners' historical scalar Adam loop, written out with
// the coefficients read per element.
func naiveAdam(w, m, v, g []float64, k *AdamStep) {
	for i := range w {
		gi := g[i] + float64(k.L2*w[i])
		m[i] = float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		v[i] = float64(k.Beta2*v[i]) + float64(k.OneMinusBeta2*gi*gi)
		w[i] -= k.LR * (m[i] / k.C1) / (math.Sqrt(v[i]/k.C2) + k.Eps)
	}
}

// fillAdam populates a slice for the Adam kernels: mostly ordinary values,
// with ±0, subnormals, huge magnitudes, ±Inf and NaN mixed in so the
// special-value paths of every lane operation are exercised.
func fillAdam(r *rng.RNG, dst []float64) {
	for i := range dst {
		switch r.Intn(16) {
		case 0:
			dst[i] = 0
		case 1:
			dst[i] = math.Copysign(0, -1)
		case 2:
			dst[i] = float64(r.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
		case 3:
			dst[i] = r.NormFloat64() * 1e300
		case 4:
			dst[i] = math.Inf(1 - 2*r.Intn(2))
		case 5:
			// Quiet NaNs of either sign with random payloads.
			dst[i] = math.Float64frombits(0x7ff8000000000000 | uint64(r.Intn(2))<<63 | uint64(r.Intn(1<<20)))
		case 6:
			dst[i] = r.NormFloat64() * 1e-300
		default:
			dst[i] = r.NormFloat64()
		}
	}
}

// adamStepFor returns the Adam coefficients at the given step, L2 and
// learning rate, built from constant expressions as the learners build them.
func adamStepFor(step int, l2, lr float64) AdamStep {
	const beta1, beta2 = 0.9, 0.999
	return AdamStep{
		L2: l2, Beta1: beta1, OneMinusBeta1: 1 - beta1,
		Beta2: beta2, OneMinusBeta2: 1 - beta2, LR: lr,
		C1: 1 - math.Pow(beta1, float64(step)), C2: 1 - math.Pow(beta2, float64(step)),
		Eps: 1e-8,
	}
}

// sameOrNaN requires got to equal want bit for bit, except that any NaN
// matches any NaN. A NaN's payload and sign are not part of the Adam
// contract: where two NaNs meet, x86 returns the first operand's, and the
// Go compiler chooses the operand order of commutative scalar operations
// (a -race build orders them differently from a default one).
func sameOrNaN(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d diverged: got %v (%#x) want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAdam runs Adam, the scalar loop and (where the CPU has one) the
// vector body directly on n random elements and requires each to match
// naiveAdam bit for bit in w, m and v, NaN payloads aside. The vector body
// handles only whole 4-element chunks, so its tail must come back
// untouched.
func checkAdam(t *testing.T, r *rng.RNG, n int, k *AdamStep) {
	t.Helper()
	in := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)} // w, m, v
	g := make([]float64, n)
	for _, s := range append(in, g) {
		fillAdam(r, s)
	}
	clone := func() [][]float64 {
		return [][]float64{slices.Clone(in[0]), slices.Clone(in[1]), slices.Clone(in[2])}
	}
	want := clone()
	naiveAdam(want[0], want[1], want[2], g, k)
	type body struct {
		name string
		fn   func(w, m, v, g []float64, k *AdamStep)
		done int // elements the body updates
	}
	bodies := []body{{"Adam", Adam, n}, {"adamGo", adamGo, n}}
	if vectorAdam != nil {
		bodies = append(bodies, body{"adamAVX", vectorAdam, n &^ 3})
	}
	for _, b := range bodies {
		got := clone()
		b.fn(got[0], got[1], got[2], g, k)
		for s, label := range []string{"w", "m", "v"} {
			sameOrNaN(t, fmt.Sprintf("%s n=%d %s", b.name, n, label), got[s][:b.done], want[s][:b.done])
			bitsEqual(t, fmt.Sprintf("%s n=%d %s tail", b.name, n, label), got[s][b.done:], in[s][b.done:])
		}
	}
}

// naiveFoldRow is one panel row's fold over the list, Σ ay[x]·float64(row[x])
// in list order from +0: the plain loop every FoldPanels lane must match.
func naiveFoldRow(panel []float32, lane int, ay []float64, list []int32) float64 {
	sum := 0.0
	for _, x := range list {
		sum += float64(ay[x] * float64(panel[4*int(x)+lane]))
	}
	return sum
}

// fillPanels fills the n real rows of an n-column matrix in 4-row panel
// layout (row i, column j at (i>>2)*4n + 4j + i&3) and leaves the padding
// rows of a short last panel zero: mostly ordinary entries, with ±0,
// float32 subnormals, huge magnitudes, ±Inf and NaN mixed in.
func fillPanels(r *rng.RNG, dst []float32, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float32
			switch r.Intn(16) {
			case 0:
				v = 0
			case 1:
				v = float32(math.Copysign(0, -1))
			case 2:
				v = float32(r.Intn(1<<10)-1<<9) * math.SmallestNonzeroFloat32
			case 3:
				v = float32(r.NormFloat64() * 1e37)
			case 4:
				v = float32(math.Inf(1 - 2*r.Intn(2)))
			case 5:
				v = float32(math.NaN())
			default:
				v = float32(r.NormFloat64())
			}
			dst[(i>>2)*4*n+4*j+i&3] = v
		}
	}
}

// foldLists returns the column lists checkFold folds over n ≥ 1 columns:
// empty, a single entry, every column, and ascending random subsets (one
// forced to end at n-1).
func foldLists(r *rng.RNG, n int) [][]int32 {
	lists := [][]int32{nil}
	full := make([]int32, n)
	for x := range full {
		full[x] = int32(x)
	}
	lists = append(lists, []int32{int32(r.Intn(n))}, full)
	for rep := 0; rep < 2; rep++ {
		var sub []int32
		for x := 0; x < n; x++ {
			if r.Intn(2) == 0 || (rep == 0 && x == n-1) {
				sub = append(sub, int32(x))
			}
		}
		lists = append(lists, sub)
	}
	return lists
}

// checkFold fills an n×n matrix in 4-row panel layout and random weights
// (fillAdam's mix), then runs FoldPanels, the Go loop and (where the CPU has
// one) the vector body on the given panel pairs over every foldLists list,
// requiring every one of the eight sums to match naiveFoldRow bit for bit,
// NaN payloads aside. pairs nil means every pair of panels, a == b
// included.
func checkFold(t *testing.T, r *rng.RNG, n int, pairs [][2]int) {
	t.Helper()
	panels := (n + 3) / 4
	m := make([]float32, panels*4*n)
	fillPanels(r, m, n)
	ay := make([]float64, n)
	fillAdam(r, ay)
	if pairs == nil {
		for p := 0; p < panels; p++ {
			for q := 0; q < panels; q++ {
				pairs = append(pairs, [2]int{p, q})
			}
		}
	}
	type body struct {
		name string
		fn   func(a, b []float32, ay []float64, list []int32, out *[8]float64)
	}
	bodies := []body{{"FoldPanels", FoldPanels}, {"foldPanelsGo", foldPanelsGo}}
	if vectorFold != nil {
		bodies = append(bodies, body{"foldPanelsAVX", vectorFold})
	}
	for _, list := range foldLists(r, n) {
		for _, pq := range pairs {
			a := m[pq[0]*4*n : (pq[0]+1)*4*n]
			b := m[pq[1]*4*n : (pq[1]+1)*4*n]
			var want [8]float64
			for l := 0; l < 4; l++ {
				want[l] = naiveFoldRow(a, l, ay, list)
				want[4+l] = naiveFoldRow(b, l, ay, list)
			}
			for _, bd := range bodies {
				out := [8]float64{1, 2, 3, 4, 5, 6, 7, 8} // overwritten, never accumulated into
				bd.fn(a, b, ay, list, &out)
				sameOrNaN(t, fmt.Sprintf("%s n=%d panels %v list %v", bd.name, n, pq, list), out[:], want[:])
			}
		}
	}
}

// TestFoldPanelsRejectsOutOfRangeList requires a list entry outside the
// panels or the weights to panic instead of reading past them.
func TestFoldPanelsRejectsOutOfRangeList(t *testing.T) {
	for _, list := range [][]int32{{-1, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("list %v over 3 columns did not panic", list)
				}
			}()
			var out [8]float64
			FoldPanels(make([]float32, 12), make([]float32, 12), make([]float64, 3), list, &out)
		}()
	}
}

// TestMatchCountsU16RejectsShortOperands requires operands too short for
// the shape, or a negative d, to panic instead of reading or writing past
// them.
func TestMatchCountsU16RejectsShortOperands(t *testing.T) {
	a, b, dst := make([]uint64, 2*PackedWords(5)), make([]uint64, 3*PackedWords(5)), make([]int32, 2*3)
	for name, call := range map[string]func(){
		"a":   func() { MatchCountsU16(dst, 3, a[:PackedWords(5)], b, 2, 3, 5) },
		"b":   func() { MatchCountsU16(dst, 3, a, b[:1], 2, 3, 5) },
		"dst": func() { MatchCountsU16(dst, 4, a, b, 2, 3, 5) },
		"d":   func() { MatchCountsU16(dst, 3, a, b, 2, 3, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s out of range did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestDenseKernelsRejectShortOperands requires Gemm, GemmTA and
// SpGemmOneHot to panic, as their Go loops' slice bounds do, on an operand
// too short for a shape the vector bodies could otherwise take (its
// capacity cut too, since the Go loops may reslice up to it), or on an
// index naming no W row, instead of reading or writing past it.
func TestDenseKernelsRejectShortOperands(t *testing.T) {
	const m, n, k = 3, 16, 5
	c, a, b := make([]float64, m*n), make([]float64, m*k), make([]float64, k*n)
	w, bias := make([]float64, 4*n), make([]float64, n)
	idx := make([]int32, m*k)
	bad := func(v int32) []int32 {
		out := slices.Clone(idx)
		out[len(out)-1] = v
		return out
	}
	for name, call := range map[string]func(){
		"Gemm c":                func() { Gemm(c[:m*n-1:m*n-1], n, a, k, b, n, m, n, k) },
		"Gemm a":                func() { Gemm(c, n, a[:m*k-1:m*k-1], k, b, n, m, n, k) },
		"Gemm b":                func() { Gemm(c, n, a, k, b[:k*n-1:k*n-1], n, m, n, k) },
		"GemmTA a":              func() { GemmTA(c, n, a[:m*k-1:m*k-1], m, b, n, m, n, k) },
		"GemmTA b":              func() { GemmTA(c, n, a, m, b[:k*n-1:k*n-1], n, m, n, k) },
		"SpGemmOneHot c":        func() { SpGemmOneHot(c[:m*n-1:m*n-1], n, idx, k, w, n, m, k, n, bias) },
		"SpGemmOneHot idx":      func() { SpGemmOneHot(c, n, idx[:m*k-1:m*k-1], k, w, n, m, k, n, bias) },
		"SpGemmOneHot bias":     func() { SpGemmOneHot(c, n, idx, k, w, n, m, k, n, bias[:n-1:n-1]) },
		"SpGemmOneHot past W":   func() { SpGemmOneHot(c, n, bad(4), k, w, n, m, k, n, bias) },
		"SpGemmOneHot negative": func() { SpGemmOneHot(c, n, bad(-1), k, w, n, m, k, n, bias) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s out of range did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestPackU16RowsRejectsWideCodes(t *testing.T) {
	dst := make([]uint64, PackedWords(3))
	if PackU16Rows(dst, []int32{1, 70000, 2}, 1, 3) {
		t.Fatal("expected rejection of a code above 65535")
	}
	if PackU16Rows(dst, []int32{1, -1, 2}, 1, 3) {
		t.Fatal("expected rejection of a negative code")
	}
}

// TestKernelsMatchNaive sweeps the shapes the learners actually use (odd
// remainders for every unroll width, degenerate empty extents, strides wider
// than the row) and requires bit-identical agreement with the references.
func TestKernelsMatchNaive(t *testing.T) {
	cases := []struct{ m, n, k, lda, ldb, ldc int }{
		{1, 1, 1, 0, 0, 0},
		{2, 4, 8, 0, 0, 0},
		{3, 5, 7, 0, 0, 0},
		{4, 4, 4, 9, 11, 13},
		{5, 3, 2, 2, 3, 3},
		{7, 17, 33, 40, 20, 19},
		{8, 16, 32, 0, 0, 0},
		{1, 4, 0, 1, 1, 4}, // k == 0: pure bias/accumulator pass-through
		{0, 3, 3, 3, 3, 3}, // m == 0: nothing to do
	}
	for i, tc := range cases {
		checkKernels(t, uint64(100+i), tc.m, tc.n, tc.k, tc.lda, tc.ldb, tc.ldc)
	}

	// Adam at every length 0–23, so every tail length follows every chunk
	// count, with L2 off (the bias blocks) and on, at early steps and at a
	// step late enough that C1 rounds to exactly 1.
	if k := adamStepFor(400, 0, 1e-3); k.C1 != 1 {
		t.Fatalf("step 400: C1 = %v, want exactly 1", k.C1)
	}
	r := rng.New(77)
	for _, step := range []int{1, 2, 37, 400} {
		for _, l2 := range []float64{0, 1e-3, 1e-2} {
			k := adamStepFor(step, l2, 1e-2)
			for n := 0; n < 24; n++ {
				for rep := 0; rep < 4; rep++ {
					checkAdam(t, r, n, &k)
				}
			}
		}
	}

	// Gemm, GemmTA and SpGemmOneHot at every width 0–40, so every 4-column
	// tail follows each 16-column tile count, on 0–5 rows with 0, 1, 2 or
	// 17 terms (active indices) per element, strides wider than the block
	// and, for the one-hot W table, rows that overlap.
	r = rng.New(29)
	for n := 0; n <= 40; n++ {
		for m := 0; m <= 5; m++ {
			for _, k := range []int{0, 1, 2, 17} {
				checkGemm(t, r, m, n, k, k+r.Intn(3), n+r.Intn(3), n+r.Intn(3))
				checkOneHot(t, r, m, k, n, k+r.Intn(3), max(n-2+r.Intn(5), 0), n+r.Intn(3))
			}
		}
	}

	// MatchCountsU16 at every row length 1–72 (up to two whole 32-byte
	// chunks, then every 16- and 8-byte tail and padding width) against
	// 0–9 rows, with m > 1 and a dst stride wider than n.
	r = rng.New(53)
	for k := 1; k <= 72; k++ {
		for n := 0; n < 10; n++ {
			checkMatch(t, r, 2+r.Intn(3), n, k, n+1+r.Intn(3))
		}
	}

	// FoldPanels over every n from 1 to 23: each short last panel
	// (n%4 = 1, 2, 3) after each panel count, every panel pair, a == b
	// included.
	r = rng.New(41)
	for n := 1; n < 24; n++ {
		for rep := 0; rep < 3; rep++ {
			checkFold(t, r, n, nil)
		}
	}
}

// FuzzMatEquivalence fuzzes every mat kernel against its naive reference,
// pinning bit-identical outputs across random shapes, strides, and value
// mixes (row lengths up to 72, so MatchCountsU16 reaches two whole 32-byte
// chunks and every tail; widths up to 40, so Gemm, GemmTA and SpGemmOneHot
// reach two 16-column tiles and every 4-column tail; Adam: lengths 0–40, L2
// on and off, steps up to 500; FoldPanels: 0–40 columns, random panel pairs
// and lists) — the CI fuzz smoke runs it alongside the codec fuzzers.
func FuzzMatEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(4), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(7), uint8(1), uint8(1), uint8(1), uint8(5), uint8(5), uint8(5))
	f.Add(uint64(9), uint8(16), uint8(8), uint8(4), uint8(2), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, m, n, k, sa, sb, sc uint8) {
		// Bound extents so a fuzz iteration stays tiny; strides are offsets
		// on top of the minimum legal leading dimension.
		mi, ni, ki := int(m%24), int(n%41), int(k%73)
		checkKernels(t, seed, mi, ni, ki, ki+int(sa%5), ni+int(sb%5), ni+int(sc%5))
	})
}

// BenchmarkMatchCountsU16 counts one 32-row Gram block against 400 rows at
// the perfbench Flights widths: d = 23 codes (the NoJoin view) and d = 40
// (JoinAll), codes drawn so about half the lanes match.
func BenchmarkMatchCountsU16(b *testing.B) {
	const m, n = 32, 400
	for _, d := range []int{23, 40} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			r := rng.New(uint64(d))
			codes := make([]int32, n*d)
			for i := range codes {
				codes[i] = int32(r.Intn(2))
			}
			packed := make([]uint64, n*PackedWords(d))
			PackU16Rows(packed, codes, n, d)
			dst := make([]int32, m*n)
			for b.Loop() {
				MatchCountsU16(dst, n, packed[:m*PackedWords(d)], packed, m, n, d)
			}
		})
	}
}
