// Package svm implements support vector machine classification trained with
// Platt's SMO algorithm, covering the three kernels the paper evaluates
// through R's e1071 (§3.2): linear, polynomial of degree 2 ("quadratic"),
// and Gaussian RBF.
//
// Because all inputs are one-hot encoded categorical vectors, every kernel
// is a function of the match count m(x,z) = #features where x and z agree:
//
//	linear     k(x,z) = x·z = m
//	quadratic  k(x,z) = (γ·x·z)² = (γ·m)²
//	RBF        k(x,z) = exp(−γ‖x−z‖²) = exp(−2γ(d−m))
//
// so the implementation never materializes one-hot vectors. The equivalence
// is unit-tested against explicit encodings.
package svm

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/relational"
)

// KernelKind selects the kernel function.
type KernelKind int

const (
	// Linear is the plain dot-product kernel.
	Linear KernelKind = iota
	// Quadratic is e1071's polynomial kernel with degree 2 and coef0 = 0.
	Quadratic
	// RBF is the Gaussian radial basis function kernel.
	RBF
)

func (k KernelKind) String() string {
	switch k {
	case Linear:
		return "linear"
	case Quadratic:
		return "quadratic"
	case RBF:
		return "rbf"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// known reports whether k is one of the kernels this package defines.
func (k KernelKind) known() bool { return k == Linear || k == Quadratic || k == RBF }

// Kernel evaluates k(x, z) on categorical rows.
type Kernel struct {
	Kind  KernelKind
	Gamma float64
	dims  int       // number of categorical features d
	lut   []float64 // lut[m] = OfMatch(m) for every match count m in [0, d]
}

// NewKernel constructs a kernel for rows with d categorical features.
// Gamma is ignored by Linear.
func NewKernel(kind KernelKind, gamma float64, d int) (*Kernel, error) {
	if !kind.known() {
		return nil, fmt.Errorf("svm: unknown kernel kind %d", int(kind))
	}
	if kind != Linear && gamma <= 0 {
		return nil, fmt.Errorf("svm: %v kernel requires gamma > 0, got %v", kind, gamma)
	}
	if d <= 0 {
		return nil, fmt.Errorf("svm: kernel requires d > 0 features, got %d", d)
	}
	k := &Kernel{Kind: kind, Gamma: gamma, dims: d, lut: make([]float64, d+1)}
	for m := range k.lut {
		k.lut[m] = k.OfMatch(float64(m))
	}
	return k, nil
}

// Eval computes k(a, b) as a lookup of the match count in the kernel's
// (d+1)-entry table, which holds OfMatch(m) for every m: the same value a
// direct OfMatch call returns, without a math.Exp per pair.
func (k *Kernel) Eval(a, b []relational.Value) float64 {
	return k.lut[ml.MatchCount(a, b)]
}

// OfMatch computes the kernel value from a match count m — every kernel of
// this study is a function of m alone, which is what makes the Gram matrix a
// blocked X·Xᵀ over match counts followed by a (d+1)-entry lookup table.
func (k *Kernel) OfMatch(m float64) float64 {
	switch k.Kind {
	case Linear:
		return m
	case Quadratic:
		g := k.Gamma * m
		return g * g
	case RBF:
		return math.Exp(-2 * k.Gamma * (float64(k.dims) - m))
	default:
		panic("svm: unknown kernel kind")
	}
}

// gramBlockRows is the i-extent of one GramBlocked task: one task's match
// counts (gramBlockRows × n int32) stay a few hundred KiB even at the 4096
// cache cap, and a full cache build yields enough tasks to saturate the pool.
// A multiple of 4, so every task owns whole panels.
const gramBlockRows = 32

// GramLen is the length of the Gram cache of n rows: n entries for each
// row, the rows padded to a multiple of 4.
func GramLen(n int) int { return ((n + 3) &^ 3) * n }

// gramAt is the index of K[i][j] in the Gram cache of n rows. The cache is
// a sequence of 4-row panels, each storing its rows' four entries of
// column j side by side, so a walk over columns reads four rows as one
// sequential stream (see mat.FoldPanels).
func gramAt(i, j, n int) int { return (i>>2)*4*n + 4*j + i&3 }

// GramBlocked fills the Gram matrix of n categorical rows into dst, of
// length GramLen(n), at gramAt's panel index, from a dense row-major block
// (block[i*d:(i+1)*d] is row i, d = the kernel's feature count); the
// padding rows of a short last panel are left as dst had them. The match
// counts of an i-block against columns [i0, n) come from one
// mat.MatchCountsU16 call over the rows packed to 16-bit lanes (its AVX2
// body where the CPU has one, the SWAR loop elsewhere; the int32
// mat.MatchCounts when a code does not fit a lane) — the X·Xᵀ product of
// the one-hot encodings, never expanded — and kernel values are a
// (d+1)-entry lookup table indexed by count, since every kernel is a
// function of the match count alone.
// i-blocks fan out across ml.ParallelFor writing disjoint panels
// (deterministic regardless of scheduling), and the panels left of each
// block's diagonal are mirrored afterwards.
//
// Each entry is float32 of the kernel table entry for the same integer m a
// per-pair Eval looks up, so the cache is bit-identical to evaluating every
// pair.
func (k *Kernel) GramBlocked(dst []float32, block []relational.Value, n int) {
	// Pack rows to 16-bit lanes when the codes fit (they do whenever the
	// feature domains do — dictionary codes are dense): the packed kernel
	// compares 16 features per AVX2 instruction (four per uint64 in the
	// SWAR fallback) with half the memory traffic, and counts are exact
	// integers either way.
	packed := make([]uint64, n*mat.PackedWords(k.dims))
	if !mat.PackU16Rows(packed, block, n, k.dims) {
		packed = nil
	}
	k.gram(dst, block, packed, n)
}

// gram is GramBlocked over rows already packed by mat.PackU16Rows, or with
// packed nil over the int32 block alone.
func (k *Kernel) gram(dst []float32, block []relational.Value, packed []uint64, n int) {
	d := k.dims
	lut := make([]float32, d+1)
	for m, v := range k.lut {
		lut[m] = float32(v)
	}
	self := lut[d]
	words := mat.PackedWords(d)
	usePacked := packed != nil

	blocks := (n + gramBlockRows - 1) / gramBlockRows
	ml.ParallelFor(blocks, func(bi int) {
		i0 := bi * gramBlockRows
		i1 := min(i0+gramBlockRows, n)
		// Count rows [i0,i1) against columns [i0,n): the strict upper
		// triangle of the block's rows plus a small discarded wedge.
		w := n - i0
		cnt := make([]int32, (i1-i0)*w)
		if usePacked {
			mat.MatchCountsU16(cnt, w, packed[i0*words:i1*words], packed[i0*words:n*words], i1-i0, w, d)
		} else {
			mat.MatchCounts(cnt, w, block[i0*d:i1*d], d, block[i0*d:n*d], d, i1-i0, w, d)
		}
		// Each panel p0 (rows p0..p0+3) fills columns p0 onward: both
		// entries of a pair in the 4×4 diagonal square read the pair's
		// upper count, and the columns right of the square read each row's
		// counts.
		for p0 := i0; p0 < i1; p0 += 4 {
			panel := dst[p0*n : (p0+4)*n]
			lanes := min(4, n-p0)
			for l := 0; l < lanes; l++ {
				for c := 0; c < lanes; c++ {
					lo, hi := min(l, c), max(l, c)
					v := self
					if lo != hi {
						v = lut[cnt[(p0+lo-i0)*w+p0+hi-i0]]
					}
					panel[4*(p0+c)+l] = v
				}
			}
			if lanes < 4 {
				continue // a short panel is the last: no columns right of it
			}
			c0 := cnt[(p0-i0)*w+p0+4-i0 : (p0-i0+1)*w]
			c1 := cnt[(p0+1-i0)*w+p0+4-i0 : (p0-i0+2)*w]
			c2 := cnt[(p0+2-i0)*w+p0+4-i0 : (p0-i0+3)*w]
			c3 := cnt[(p0+3-i0)*w+p0+4-i0 : (p0-i0+4)*w]
			c1, c2, c3 = c1[:len(c0)], c2[:len(c0)], c3[:len(c0)]
			right := panel[4*(p0+4):]
			for x, m := range c0 {
				q := right[4*x : 4*x+4 : 4*x+4]
				q[0], q[1], q[2], q[3] = lut[m], lut[c1[x]], lut[c2[x]], lut[c3[x]]
			}
		}
	})

	// Mirror the panels left of the diagonal: the 4×4 square of panel q at
	// columns 4p..4p+3 is the transpose of panel p's square at columns
	// 4q..4q+3. Each square is 16 contiguous entries, so the copy reads one
	// 64-byte run per source square and writes panel q left to right.
	panels := (n + 3) / 4
	for q := 1; q < panels; q++ {
		rows := min(4, n-4*q)
		dq := dst[q*4*n:]
		for p := 0; p < q; p++ {
			sq := (*[16]float32)(dq[16*p:])
			if rows == 4 {
				s := (*[16]float32)(dst[p*4*n+16*q:])
				sq[0], sq[1], sq[2], sq[3] = s[0], s[4], s[8], s[12]
				sq[4], sq[5], sq[6], sq[7] = s[1], s[5], s[9], s[13]
				sq[8], sq[9], sq[10], sq[11] = s[2], s[6], s[10], s[14]
				sq[12], sq[13], sq[14], sq[15] = s[3], s[7], s[11], s[15]
				continue
			}
			src := dst[p*4*n+16*q : p*4*n+16*q+4*rows]
			for c := 0; c < 4; c++ {
				for l := 0; l < rows; l++ {
					sq[4*c+l] = src[4*l+c]
				}
			}
		}
	}
}

// Self computes k(x, x) = OfMatch(d), needed by SMO's eta term.
func (k *Kernel) Self() float64 { return k.lut[k.dims] }
