package svm

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// Config holds the SVM hyper-parameters matching the paper's grid:
// C ∈ {0.1, 1, 10, 100, 1000}, γ ∈ {1e-4 … 10}.
type Config struct {
	Kernel KernelKind
	C      float64
	Gamma  float64
	// Tol is the KKT violation tolerance (default 1e-3, as in Platt's SMO
	// and libsvm).
	Tol float64
	// MaxPasses bounds the number of full passes without any multiplier
	// change before convergence is declared (default 5).
	MaxPasses int
	// MaxIter caps total SMO iterations as a safety valve (default 200 *
	// number of examples).
	MaxIter int
	// SubsampleCap, when positive, limits the training set to at most this
	// many examples via a seeded uniform subsample. SMO has quadratic cost,
	// and the paper's comparisons are within-dataset, so the cap applies
	// identically to JoinAll and NoJoin.
	SubsampleCap int
	// Seed drives SMO's second-multiplier randomization and subsampling.
	Seed uint64
}

// gramCacheCap bounds the training-set size for which Fit materializes the
// full n×n Gram cache (n² float32 ≈ 64 MiB at the cap); beyond it the SMO
// loop falls back to on-demand kernel evaluation. A variable so tests can
// exercise the cacheless branch at small n.
var gramCacheCap = 4096

// SVM is a kernel support vector classifier. Construct with New, then Fit.
type SVM struct {
	cfg    Config
	kernel *Kernel

	// Support set after training: rows (categorical codes, row-major,
	// kernel.dims per row), multipliers times labels (±1), and bias.
	svBlock  []relational.Value
	svAlphaY []float64
	b        float64
	// svPacked is svBlock in mat.PackU16Rows' 16-bit lanes, packed once
	// per fitted model for PredictBatch; nil when a code does not fit.
	svPacked []uint64
}

// New returns an unfitted SVM.
func New(cfg Config) (*SVM, error) {
	if cfg.C <= 0 {
		return nil, fmt.Errorf("svm: C must be positive, got %v", cfg.C)
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 5
	}
	return &SVM{cfg: cfg}, nil
}

// Name implements ml.Named.
func (s *SVM) Name() string { return "SVM(" + s.cfg.Kernel.String() + ")" }

// problem is one SMO instance as Fit's set-up leaves it: the pinned
// training rows, their ±1 labels, the kernel and (up to gramCacheCap rows)
// its full Gram cache, and the solver's limits.
type problem struct {
	n, d      int
	block     []relational.Value // n×d row-major training codes
	y         []float64
	k         *Kernel
	kcache    []float32 // Gram matrix at gramAt's panel index; nil past gramCacheCap
	r         *rng.RNG
	C, tol    float64
	maxIter   int
	maxPasses int
}

// kij returns k(x_i, x_j): the cached float32 entry when the Gram cache
// exists, else a table lookup of the two rows' match count.
func (p *problem) kij(i, j int) float64 {
	if p.kcache != nil {
		return float64(p.kcache[gramAt(i, j, p.n)])
	}
	if i == j {
		return p.k.Self()
	}
	d := p.d
	return p.k.Eval(p.block[i*d:(i+1)*d], p.block[j*d:(j+1)*d])
}

// Fit trains the SVM with sequential minimal optimization.
func (s *SVM) Fit(train *ml.Dataset) error { return s.fit(train, smo) }

// fit runs Fit's set-up and hands the problem to solve.
func (s *SVM) fit(train *ml.Dataset, solve func(*problem) (alpha []float64, b float64)) error {
	if train.NumExamples() == 0 {
		return fmt.Errorf("svm: empty training set")
	}
	_, err := s.fitSample(newSample(train, s.cfg.Seed, s.cfg.SubsampleCap), solve)
	return err
}

// sample is the part of Fit's set-up that only Seed and SubsampleCap
// reach: the pinned training rows, their ±1 labels, the same rows packed
// for the match-count kernels, and SMO's generator as the subsample's Perm
// left it. FitGrid builds it once for a whole grid; no fit writes to it.
type sample struct {
	n, d    int
	block   []relational.Value // n×d row-major training codes
	y       []float64
	allSame bool     // every label is y[0]
	packed  []uint64 // block in mat.PackU16Rows' lanes; nil when a code does not fit
	r       rng.RNG
}

// newSample draws the optional seeded subsample of a non-empty train and
// pins it. Every feature is pulled in one batched column scan scattered
// straight into the row-major block (ml.ScanRowMajor; under a subsample
// view the scan bottoms out in the relation's column gather), replacing n×d
// single-cell view accesses with d sequential scans.
func newSample(train *ml.Dataset, seed uint64, subsampleCap int) *sample {
	r := rng.New(seed)
	ds := train
	if subsampleCap > 0 && train.NumExamples() > subsampleCap {
		perm := r.Perm(train.NumExamples())
		ds = train.Subset(perm[:subsampleCap])
	}
	n, d := ds.NumExamples(), ds.NumFeatures()
	block, labels := ml.ScanRowMajor(ds)
	smp := &sample{n: n, d: d, block: block, y: make([]float64, n), allSame: true, r: *r}
	for i, l := range labels {
		smp.y[i] = -1
		if l == 1 {
			smp.y[i] = 1
		}
		if smp.y[i] != smp.y[0] {
			smp.allSame = false
		}
	}
	// Dictionary codes fit a 16-bit lane whenever the feature domains do,
	// so the packed SWAR match kernel is the one the Gram build and grid
	// scoring normally run.
	smp.packed = make([]uint64, n*mat.PackedWords(d))
	if !mat.PackU16Rows(smp.packed, block, n, d) {
		smp.packed = nil
	}
	return smp
}

// fitSample runs SMO over the sample with this model's kernel and limits,
// retains the support set, and returns the sample row of each support
// vector, ascending — the support-vector order.
func (s *SVM) fitSample(smp *sample, solve func(*problem) (alpha []float64, b float64)) ([]int, error) {
	k, err := NewKernel(s.cfg.Kernel, s.cfg.Gamma, smp.d)
	if err != nil {
		return nil, err
	}
	s.kernel = k
	if smp.allSame {
		// Degenerate: decision is a constant at the lone class.
		s.svBlock = nil
		s.svAlphaY = nil
		s.svPacked = nil
		s.b = smp.y[0]
		return nil, nil
	}

	n, d := smp.n, smp.d
	maxIter := s.cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 200 * n
	}
	r := smp.r
	p := &problem{
		n: n, d: d, block: smp.block, y: smp.y, k: k, r: &r,
		C: s.cfg.C, tol: s.cfg.Tol, maxIter: maxIter, maxPasses: s.cfg.MaxPasses,
	}
	// For the paper's scales (n ≤ a few thousand after capping) a full n×n
	// cache is affordable and much faster. The build is a blocked X·Xᵀ over
	// the sample's packed rows (see gram).
	if n <= gramCacheCap {
		p.kcache = make([]float32, GramLen(n))
		t0 := time.Now()
		k.gram(p.kcache, smp.block, smp.packed, n)
		gramSpan.ObserveSince(t0)
	}
	alpha, b := solve(p)

	// The rows with nonzero multipliers are the fitted support set, copied
	// into one compact block so the training block is not retained.
	s.svBlock, s.svAlphaY = nil, nil
	var sv []int
	for i, a := range alpha {
		if a > 0 {
			s.svBlock = append(s.svBlock, smp.block[i*d:(i+1)*d]...)
			s.svAlphaY = append(s.svAlphaY, a*smp.y[i])
			sv = append(sv, i)
		}
	}
	s.b = b
	s.packSupport()
	return sv, nil
}

// FitGrid fits one SVM per configuration on train and scores each on
// validation, returning the models and their validation accuracies in cfgs
// order. Every model equals New(cfg) fitted on train, bit for bit, and every
// accuracy equals ml.Accuracy of that model on validation. The
// configurations must share Seed and SubsampleCap; kernel, C, γ and the
// solver limits may vary.
//
// What no point changes is done once: the subsample, its pinned, labelled
// and packed rows (each point's Gram cache is counted from the shared
// packed rows through its own kernel table), and SMO's generator state
// after the subsample, which each point copies. Points fit in parallel
// (ml.ParallelFor). Validation is then read once: each morsel's match
// counts against all n sample rows are computed once and folded, for every
// point, over that point's support rows in ascending sample order — the
// order PredictBatch folds the support set in, through the same table
// entries — so every class equals PredictBatch's.
func FitGrid(cfgs []Config, train, validation *ml.Dataset) ([]*SVM, []float64, error) {
	if len(cfgs) == 0 {
		return nil, nil, fmt.Errorf("svm: empty grid")
	}
	models := make([]*SVM, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Seed != cfgs[0].Seed || cfg.SubsampleCap != cfgs[0].SubsampleCap {
			return nil, nil, fmt.Errorf("svm: grid points must share Seed and SubsampleCap")
		}
		s, err := New(cfg)
		if err != nil {
			return nil, nil, err
		}
		models[i] = s
	}
	if train.NumExamples() == 0 {
		return nil, nil, fmt.Errorf("svm: empty training set")
	}
	smp := newSample(train, cfgs[0].Seed, cfgs[0].SubsampleCap)
	sv := make([][]int, len(models))
	errs := make([]error, len(models))
	ml.ParallelFor(len(models), func(i int) {
		sv[i], errs[i] = models[i].fitSample(smp, smo)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return models, smp.accuracies(models, sv, validation), nil
}

// GridSearch is ml.GridSearch over an SVM grid, with every point fitted and
// scored by FitGrid: config maps each grid point to its Config.
func GridSearch(grid *ml.Grid, config func(ml.GridPoint) Config, train, validation *ml.Dataset) (ml.TuneResult, error) {
	return ml.SharedSearch(grid, config, func(cfgs []Config) ([]*SVM, []float64, error) {
		return FitGrid(cfgs, train, validation)
	})
}

// scoreCounts bounds the int32 match counts one validation morsel holds
// against the sample (morsel rows × n), so an uncapped sample shrinks the
// morsel instead of growing the buffer.
const scoreCounts = 1 << 18

// accuracies scores models — fitted on smp, with support rows sv — on
// validation (see FitGrid).
func (smp *sample) accuracies(models []*SVM, sv [][]int, validation *ml.Dataset) []float64 {
	accs := make([]float64, len(models))
	nv := validation.NumExamples()
	if nv == 0 {
		return accs
	}
	n, d := smp.n, smp.d
	labels := make([]int8, nv)
	validation.ScanLabels(labels, 0)
	stride := min(nv, predictMorsel, max(1, scoreCounts/n))
	morsels := (nv + stride - 1) / stride
	// Each span of consecutive morsels reuses one morsel of scratch, so at
	// most one count buffer per worker is live.
	spans := ml.Parallelism(morsels)
	correct := make([]int, spans*len(models))
	feats := make([]int, d)
	for j := range feats {
		feats[j] = j
	}
	words := mat.PackedWords(d)
	ml.ParallelFor(spans, func(sp int) {
		idx := make([]int, stride)
		cols := make([]relational.Value, d*stride)
		rows := make([]relational.Value, stride*d)
		packed := make([]uint64, stride*words)
		cnt := make([]int32, stride*n)
		hits := correct[sp*len(models) : (sp+1)*len(models)]
		for mi := morsels * sp / spans; mi < morsels*(sp+1)/spans; mi++ {
			from := mi * stride
			m := min(stride, nv-from)
			for k := range idx[:m] {
				idx[k] = from + k
			}
			gatherRows(validation, feats, idx[:m], cols, rows)
			if smp.packed != nil && mat.PackU16Rows(packed, rows, m, d) {
				mat.MatchCountsU16(cnt, n, packed, smp.packed, m, n, d)
			} else {
				mat.MatchCounts(cnt, n, rows, d, smp.block, d, m, n, d)
			}
			for p, s := range models {
				lut := s.kernel.lut
				for k := 0; k < m; k++ {
					crow := cnt[k*n : (k+1)*n]
					sum := s.b
					for i, j := range sv[p] {
						sum += float64(s.svAlphaY[i] * lut[crow[j]])
					}
					if (sum >= 0) == (labels[from+k] == 1) {
						hits[p]++
					}
				}
			}
		}
	})
	for p := range models {
		total := 0
		for sp := 0; sp < spans; sp++ {
			total += correct[sp*len(models)+p]
		}
		accs[p] = float64(total) / float64(nv)
	}
	return accs
}

// packSupport packs the support block to 16-bit lanes for PredictBatch,
// leaving svPacked nil when some code does not fit.
func (s *SVM) packSupport() {
	nSV, d := len(s.svAlphaY), s.kernel.dims
	s.svPacked = make([]uint64, nSV*mat.PackedWords(d))
	if !mat.PackU16Rows(s.svPacked, s.svBlock, nSV, d) {
		s.svPacked = nil
	}
}

// smo is Platt's simplified SMO over p, returning the multipliers and bias.
//
// Its read is f(i) = Σ_j α_j y_j k(i,j) + b, which depends only on the
// multipliers and b — and those change at one site, the pair update. A
// version counter bumped there lets f return a per-row memo while its
// version is current: a pass after the last change, and the re-reads of
// rows a miss already folded, cost one load. Every memoized value was
// computed by the same fold in the same order as an unmemoized call at that
// version, so the trajectory and the fitted model are unchanged.
//
// With the Gram cache present, a miss folds eight rows in one walk of the
// active set (mat.FoldPanels): the 4-row panel holding the missed row i,
// and the panel holding j* = jr + (jr ≥ i), where jr is the generator's
// next draw, peeked from a copy so the trajectory is untouched. Every row
// i' ≥ i of i's panel that violates KKT before the generator moves draws
// j = jr + (jr ≥ i'): j* when jr < i or jr ≥ i', and otherwise jr itself,
// which lies in i's panel. So until the generator moves, the second
// multiplier drawn for any row of i's panel from i on is already folded.
func smo(p *problem) ([]float64, float64) {
	n, y, kcache, r := p.n, p.y, p.kcache, p.r
	alpha := make([]float64, n)
	b := 0.0

	// ay[j] caches α_j·y_j for f's fold, and active lists the nonzero-α set
	// ascending (j listed ⟺ α_j > 0), kept sorted at the pair update. Each
	// ay entry is refreshed from the same two operands the historical
	// `alpha[j] * y[j]` recomputed per term, so every product f folds
	// carries identical bits, and the list walks the historical
	// `alpha[j] != 0` skip set in the historical ascending order.
	ay := make([]float64, n)
	active := make([]int32, 0, n)
	setActive := func(j int, was, on bool) {
		if was == on {
			return
		}
		k, _ := slices.BinarySearch(active, int32(j))
		if on {
			active = slices.Insert(active, k, int32(j))
		} else {
			active = slices.Delete(active, k, k+1)
		}
	}

	// fval[i] holds f(i) as of version fver[i]; version 0 is never current.
	fval := make([]float64, n)
	fver := make([]uint64, n)
	version := uint64(1)
	var sums [8]float64
	// keep memoizes the four sums of the panel whose first row is p0,
	// skipping the padding rows of a short last panel.
	keep := func(p0 int, s []float64) {
		for l, v := range s[:min(4, n-p0)] {
			fval[p0+l], fver[p0+l] = v+b, version
		}
	}

	// Without the cache, the historical kij fold is unchanged.
	f := func(i int) float64 {
		if fver[i] == version {
			return fval[i]
		}
		if kcache == nil {
			sum := 0.0
			for j := 0; j < n; j++ {
				if alpha[j] != 0 {
					sum += float64(alpha[j] * y[j] * p.kij(i, j))
				}
			}
			fval[i], fver[i] = sum+b, version
			return fval[i]
		}
		peek := *r
		j := peek.Intn(n - 1)
		if j >= i {
			j++
		}
		pi, pj := i&^3, j&^3
		mat.FoldPanels(kcache[pi*n:(pi+4)*n], kcache[pj*n:(pj+4)*n], ay, active, &sums)
		keep(pj, sums[4:])
		keep(pi, sums[:4])
		return fval[i]
	}

	C, tol := p.C, p.tol
	passes, iter := 0, 0
	for passes < p.maxPasses && iter < p.maxIter {
		passT0 := time.Now()
		changed := 0
		for i := 0; i < n && iter < p.maxIter; i++ {
			iter++
			Ei := f(i) - y[i]
			if !((y[i]*Ei < -tol && alpha[i] < C) || (y[i]*Ei > tol && alpha[i] > 0)) {
				continue
			}
			// Pick j != i at random (simplified SMO's second choice).
			j := r.Intn(n - 1)
			if j >= i {
				j++
			}
			Ej := f(j) - y[j]
			ai, aj := alpha[i], alpha[j]
			var L, H float64
			if y[i] != y[j] {
				L = max(0, aj-ai)
				H = min(C, C+aj-ai)
			} else {
				L = max(0, ai+aj-C)
				H = min(C, ai+aj)
			}
			if L == H {
				continue
			}
			kii, kjj, kij := p.kij(i, i), p.kij(j, j), p.kij(i, j)
			eta := 2*kij - kii - kjj
			if eta >= 0 {
				continue
			}
			ajNew := aj - y[j]*(Ei-Ej)/eta
			if ajNew > H {
				ajNew = H
			} else if ajNew < L {
				ajNew = L
			}
			if math.Abs(ajNew-aj) < 1e-7 {
				continue
			}
			aiNew := ai + float64(y[i]*y[j]*(aj-ajNew))
			b1 := b - Ei - float64(y[i]*(aiNew-ai)*kii) - float64(y[j]*(ajNew-aj)*kij)
			b2 := b - Ej - float64(y[i]*(aiNew-ai)*kij) - float64(y[j]*(ajNew-aj)*kjj)
			switch {
			case aiNew > 0 && aiNew < C:
				b = b1
			case ajNew > 0 && ajNew < C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = aiNew, ajNew
			ay[i], ay[j] = aiNew*y[i], ajNew*y[j]
			setActive(i, ai > 0, aiNew > 0)
			setActive(j, aj > 0, ajNew > 0)
			version++
			changed++
		}
		smoPassSpan.ObserveSince(passT0)
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return alpha, b
}

// Decision returns the signed decision value Σ αᵢyᵢ k(xᵢ, x) + b.
func (s *SVM) Decision(row []relational.Value) float64 {
	sum := s.b
	if s.kernel == nil {
		return sum
	}
	d := s.kernel.dims
	for i, ay := range s.svAlphaY {
		sum += float64(ay * s.kernel.Eval(s.svBlock[i*d:(i+1)*d], row))
	}
	return sum
}

// Predict classifies one example.
func (s *SVM) Predict(row []relational.Value) int8 {
	if s.kernel == nil {
		// Degenerate single-class fit stored the class sign in b.
		if s.b >= 0 {
			return 1
		}
		return 0
	}
	if s.Decision(row) >= 0 {
		return 1
	}
	return 0
}

// predictMorsel is the example count of one PredictBatch gather.
const predictMorsel = 256

// PredictBatch implements ml.BatchPredictor. The dataset is read a morsel
// at a time through GatherFeatures (on a spilled table, one pin per touched
// segment), each morsel is packed to 16-bit lanes, and each example's match
// counts against the whole support set come from one mat.MatchCountsU16
// call (its AVX2 body, or the SWAR loop where the CPU has none) against the
// support block packed at Fit (the int32 mat.MatchCounts when a code does
// not fit a lane). The decision folds
// b + Σ αᵢyᵢ·lut[countᵢ] in support-vector order — Decision's fold term for
// term, the same table entries Eval looks up — so every class equals
// Predict's. Scratch is one morsel of codes plus one count per support
// vector, reused across morsels.
func (s *SVM) PredictBatch(ds *ml.Dataset) []int8 {
	n := ds.NumExamples()
	out := make([]int8, n)
	if s.kernel == nil {
		if s.Predict(nil) == 1 {
			for i := range out {
				out[i] = 1
			}
		}
		return out
	}
	d, nSV, lut := s.kernel.dims, len(s.svAlphaY), s.kernel.lut
	words := mat.PackedWords(d)
	stride := min(n, predictMorsel)
	feats := make([]int, d)
	for j := range feats {
		feats[j] = j
	}
	cols := make([]relational.Value, d*stride)
	rows := make([]relational.Value, stride*d)
	packed := make([]uint64, stride*words)
	idx := make([]int, stride)
	cnt := make([]int32, nSV)
	for from := 0; from < n; from += stride {
		m := min(stride, n-from)
		for k := range idx[:m] {
			idx[k] = from + k
		}
		gatherRows(ds, feats, idx[:m], cols, rows)
		u16 := s.svPacked != nil && mat.PackU16Rows(packed, rows, m, d)
		for k := 0; k < m; k++ {
			if u16 {
				mat.MatchCountsU16(cnt, nSV, packed[k*words:(k+1)*words], s.svPacked, 1, nSV, d)
			} else {
				mat.MatchCounts(cnt, nSV, rows[k*d:(k+1)*d], d, s.svBlock, d, 1, nSV, d)
			}
			sum := s.b
			for i, c := range cnt {
				sum += float64(s.svAlphaY[i] * lut[c])
			}
			if sum >= 0 {
				out[from+k] = 1
			}
		}
	}
	return out
}

// gatherRows reads examples idx of ds into rows, row-major, through one
// GatherFeatures call into the column-major scratch cols, whose stride is
// len(cols)/len(feats).
func gatherRows(ds *ml.Dataset, feats, idx []int, cols, rows []relational.Value) {
	d := len(feats)
	stride := len(cols) / d
	ds.GatherFeatures(cols, stride, feats, idx)
	for k := range idx {
		row := rows[k*d : (k+1)*d]
		for j := range row {
			row[j] = cols[j*stride+k]
		}
	}
}

// NumSupportVectors returns the size of the retained support set.
func (s *SVM) NumSupportVectors() int { return len(s.svAlphaY) }
