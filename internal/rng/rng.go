// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in this repository.
//
// All experiments in the paper reproduction are Monte-Carlo style: the same
// configuration must yield the same datasets, the same train/validation/test
// splits, and the same learned models on every run. The standard library's
// math/rand is seedable but offers no principled way to derive independent
// streams for parallel simulation runs. RNG wraps a SplitMix64 state with a
// Split operation that derives statistically independent child generators,
// so run i of a 100-run simulation always sees the same stream regardless of
// scheduling.
package rng

import "math"

// RNG is a small, fast, splittable pseudo-random generator based on
// SplitMix64 (Steele, Lea, Flood; OOPSLA 2014). The zero value is a valid
// generator seeded with 0; prefer New for explicit seeding.
type RNG struct {
	state uint64
	gamma uint64
}

// goldenGamma is the odd constant used to advance SplitMix64 state.
const goldenGamma = 0x9E3779B97F4A7C15

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed, gamma: goldenGamma}
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche of the input.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mixGamma derives an odd gamma with enough bit transitions to keep the
// derived stream well distributed.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	z = (z ^ (z >> 33)) | 1
	// Ensure a reasonable number of 01/10 bit pairs; fix up weak gammas.
	if popcount(z^(z>>1)) < 24 {
		z ^= 0xAAAAAAAAAAAAAAAA
	}
	return z
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	if r.gamma == 0 {
		r.gamma = goldenGamma
	}
	r.state += r.gamma
	return mix64(r.state)
}

// Split returns a new generator whose stream is statistically independent of
// the parent's subsequent output. Both parent and child remain usable.
func (r *RNG) Split() *RNG {
	s := r.Uint64()
	g := mixGamma(r.Uint64())
	return &RNG{state: s, gamma: g}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1). The outer conversion keeps
// the compiler from fusing the scaling multiply into a caller's add.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Bool returns a fair coin toss.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes xs in place (Fisher–Yates).
func (r *RNG) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Categorical samples an index in [0, len(weights)) with probability
// proportional to weights[i]. Weights must be non-negative with a positive
// sum; otherwise Categorical panics.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: negative or NaN weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: non-positive weight sum")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
