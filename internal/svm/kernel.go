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
const gramBlockRows = 32

// GramBlocked fills the n×n Gram matrix from a dense row-major block of n
// categorical rows (block[i*d:(i+1)*d] is row i, d = the kernel's feature
// count): the match counts of an i-block against columns [i0, n) come from
// one blocked mat.MatchCounts call — the X·Xᵀ product of the one-hot
// encodings, never expanded — and kernel values are a (d+1)-entry lookup
// table indexed by count, since every kernel is a function of the match
// count alone. i-blocks fan out across ml.ParallelFor writing disjoint row
// ranges of the strict upper triangle (deterministic regardless of
// scheduling), and the lower triangle is mirrored afterwards.
//
// Each entry is float32 of the kernel table entry for the same integer m a
// per-pair Eval looks up, so the cache is bit-identical to evaluating every
// pair.
func (k *Kernel) GramBlocked(dst []float32, block []relational.Value, n int) {
	// Pack rows to 16-bit lanes when the codes fit (they do whenever the
	// feature domains do — dictionary codes are dense): the SWAR kernel
	// compares four features per uint64 with half the memory traffic, and
	// counts are exact integers either way.
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
		for i := i0; i < i1; i++ {
			row := dst[i*n : (i+1)*n]
			crow := cnt[(i-i0)*w : (i-i0+1)*w]
			for j := i + 1; j < n; j++ {
				row[j] = lut[crow[j-i0]]
			}
			row[i] = self
		}
	})

	// Mirror the upper triangle in square tiles: reads walk tile rows that
	// stay cache-resident and writes land in contiguous runs, instead of
	// one column-strided write (a fresh cache line each) per entry.
	const mirrorTile = 64
	for i0 := 0; i0 < n; i0 += mirrorTile {
		i1 := min(i0+mirrorTile, n)
		for j0 := i0; j0 < n; j0 += mirrorTile {
			j1 := min(j0+mirrorTile, n)
			for j := max(j0, i0+1); j < j1; j++ {
				row := dst[j*n:]
				hi := min(i1, j)
				for i := i0; i < hi; i++ {
					row[i] = dst[i*n+j]
				}
			}
		}
	}
}

// Self computes k(x, x) = OfMatch(d), needed by SMO's eta term.
func (k *Kernel) Self() float64 { return k.lut[k.dims] }
