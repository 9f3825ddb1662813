package svm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ml"
	"repro/internal/relational"
	"repro/internal/rng"
)

// smoOracle is the historical SMO loop, kept as the reference smo is
// pinned against: f(i) is refolded on every call, with no memo and no
// panels, over the active set as a bitmap. It reports the iteration count
// it stopped at in *iters.
func smoOracle(iters *int) func(p *problem) ([]float64, float64) {
	return func(p *problem) ([]float64, float64) {
		n, y, kcache, r := p.n, p.y, p.kcache, p.r
		alpha := make([]float64, n)
		b := 0.0
		C, tol, maxIter := p.C, p.tol, p.maxIter
		kij := p.kij
		ay := make([]float64, n)
		activeMask := make([]uint64, (n+63)/64)
		setActive := func(j int, on bool) {
			if on {
				activeMask[j>>6] |= 1 << (j & 63)
			} else {
				activeMask[j>>6] &^= 1 << (j & 63)
			}
		}
		f := func(i int) float64 {
			sum := 0.0
			if kcache != nil {
				// The cached row, read through kij, which only widens
				// the float32 entry: the oracle does not depend on the
				// cache's layout.
				for wi, word := range activeMask {
					base := wi << 6
					for word != 0 {
						j := base + bits.TrailingZeros64(word)
						word &= word - 1
						sum += float64(ay[j] * kij(i, j))
					}
				}
			} else {
				for j := 0; j < n; j++ {
					if alpha[j] != 0 {
						sum += float64(alpha[j] * y[j] * kij(i, j))
					}
				}
			}
			return sum + b
		}
		passes, iter := 0, 0
		for passes < p.maxPasses && iter < maxIter {
			changed := 0
			for i := 0; i < n && iter < maxIter; i++ {
				iter++
				Ei := f(i) - y[i]
				if !((y[i]*Ei < -tol && alpha[i] < C) || (y[i]*Ei > tol && alpha[i] > 0)) {
					continue
				}
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
				eta := 2*kij(i, j) - kij(i, i) - kij(j, j)
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
				b1 := b - Ei - float64(y[i]*(aiNew-ai)*kij(i, i)) - float64(y[j]*(ajNew-aj)*kij(i, j))
				b2 := b - Ej - float64(y[i]*(aiNew-ai)*kij(i, j)) - float64(y[j]*(ajNew-aj)*kij(j, j))
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
				setActive(i, aiNew > 0)
				setActive(j, ajNew > 0)
				changed++
			}
			if changed == 0 {
				passes++
			} else {
				passes = 0
			}
		}
		*iters = iter
		return alpha, b
	}
}

// tinyDataset is n random rows of three features with alternating
// labels, so both classes are present from n = 2.
func tinyDataset(n int, seed uint64) *ml.Dataset {
	r := rng.New(seed)
	xs := make([]relational.Value, 3*n)
	ys := make([]int8, n)
	for i := range ys {
		for f := 0; f < 3; f++ {
			xs[3*i+f] = relational.Value(r.Intn(3))
		}
		ys[i] = int8(i % 2)
	}
	return mustRows(feats(3, 3, 3), xs, ys)
}

// flightsJoin returns the join view of a small Flights star schema with
// its JoinAll feature columns and target column.
func flightsJoin(t *testing.T, scale int, seed uint64) (jv *relational.JoinView, cols []int, target int) {
	t.Helper()
	dspec, err := dataset.SpecByName("Flights")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(dspec, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	if jv, err = relational.NewJoinView(ss); err != nil {
		t.Fatal(err)
	}
	target = slices.IndexFunc(jv.Schema().Cols, func(c relational.Column) bool {
		return c.Kind == relational.KindTarget
	})
	return jv, ml.ViewColumns(jv, ml.JoinAll, nil), target
}

// sameParams requires two exports to agree bit for bit.
func sameParams(t *testing.T, name string, got, want Params) {
	t.Helper()
	if got.HasKernel != want.HasKernel || got.Dims != want.Dims ||
		math.Float64bits(got.B) != math.Float64bits(want.B) {
		t.Fatalf("%s: header (kernel %v, dims %d, b %v) != oracle (%v, %d, %v)",
			name, got.HasKernel, got.Dims, got.B, want.HasKernel, want.Dims, want.B)
	}
	if !slices.Equal(got.SVRows, want.SVRows) {
		t.Fatalf("%s: support rows differ from the oracle's", name)
	}
	if len(got.SVAlphaY) != len(want.SVAlphaY) {
		t.Fatalf("%s: %d multipliers, oracle %d", name, len(got.SVAlphaY), len(want.SVAlphaY))
	}
	for i := range got.SVAlphaY {
		if math.Float64bits(got.SVAlphaY[i]) != math.Float64bits(want.SVAlphaY[i]) {
			t.Fatalf("%s: multiplier %d = %v, oracle %v", name, i, got.SVAlphaY[i], want.SVAlphaY[i])
		}
	}
}

// TestFitMatchesOracle pins Fit's memoized, panel-folding SMO to the
// historical loop: identical support rows, multiplier bits and bias for
// every kernel and several seeds, for tiny fits of one and two panels, for
// a fit stopped by MaxIter, and for the cacheless branch.
func TestFitMatchesOracle(t *testing.T) {
	type fitCase struct {
		name   string
		ds     *ml.Dataset
		cfg    Config
		capped bool // the fit must stop at MaxIter, not converge
	}
	jv, cols, target := flightsJoin(t, 64, 1)
	flights, err := ml.FromRelation(jv, cols, target)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fitCase
	for _, seed := range []uint64{1, 7, 23} {
		for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
			for _, c := range []float64{1, 100} {
				cases = append(cases, fitCase{
					name: kind.String() + "/noisy",
					ds:   noisyDataset(301, seed),
					cfg:  Config{Kernel: kind, C: c, Gamma: 0.5, Seed: seed},
				}, fitCase{
					name: kind.String() + "/flights",
					ds:   flights,
					cfg:  Config{Kernel: kind, C: c, Gamma: 0.1, SubsampleCap: 200, Seed: seed},
				})
			}
		}
	}
	// Tiny fits: every n up to 4 is one panel (padded past n below 4), so
	// every second multiplier j* falls in the missed row's own panel
	// (FoldPanels with a == b); 5 and 6 add a short second panel.
	for _, n := range []int{2, 3, 4, 5, 6} {
		for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
			cases = append(cases, fitCase{
				name: fmt.Sprintf("%v/tiny-%d", kind, n),
				ds:   tinyDataset(n, uint64(n)),
				cfg:  Config{Kernel: kind, C: 10, Gamma: 0.5, Seed: uint64(n)},
			})
		}
	}
	cases = append(cases, fitCase{
		name:   "linear/flights/maxiter",
		ds:     flights,
		cfg:    Config{Kernel: Linear, C: 100, SubsampleCap: 400, Seed: 1},
		capped: true,
	})
	run := func(t *testing.T, tc fitCase) {
		t.Helper()
		got, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Fit(tc.ds); err != nil {
			t.Fatal(err)
		}
		want, _ := New(tc.cfg)
		var iters int
		if err := want.fit(tc.ds, smoOracle(&iters)); err != nil {
			t.Fatal(err)
		}
		n := tc.ds.NumExamples()
		if tc.cfg.SubsampleCap > 0 {
			n = min(n, tc.cfg.SubsampleCap)
		}
		if tc.capped && iters != 200*n {
			t.Fatalf("%s: oracle stopped after %d iterations; the case must hit MaxIter = %d", tc.name, iters, 200*n)
		}
		gp, err := got.ExportParams()
		if err != nil {
			t.Fatal(err)
		}
		wp, err := want.ExportParams()
		if err != nil {
			t.Fatal(err)
		}
		sameParams(t, tc.name, gp, wp)
	}
	for _, tc := range cases {
		run(t, tc)
	}
	// The cacheless branch: memoized without blocking.
	old := gramCacheCap
	gramCacheCap = 8
	defer func() { gramCacheCap = old }()
	for _, tc := range cases[:12] {
		tc.name += "/cacheless"
		run(t, tc)
	}
}

// TestEvalMatchesOfMatch pins the kernel table: Eval on rows with every
// match count m in [0, d] returns OfMatch(m) bit for bit, and Self is
// OfMatch(d).
func TestEvalMatchesOfMatch(t *testing.T) {
	const d = 9
	for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
		for _, gamma := range []float64{1e-4, 0.1, 0.37, 10} {
			k, err := NewKernel(kind, gamma, d)
			if err != nil {
				t.Fatal(err)
			}
			a := make([]relational.Value, d)
			for m := 0; m <= d; m++ {
				b := make([]relational.Value, d)
				for j := m; j < d; j++ {
					b[j] = 1
				}
				got, want := k.Eval(a, b), k.OfMatch(float64(ml.MatchCount(a, b)))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v γ=%v m=%d: Eval = %v, OfMatch = %v", kind, gamma, m, got, want)
				}
			}
			if got, want := k.Self(), k.OfMatch(d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v γ=%v: Self = %v, OfMatch(d) = %v", kind, gamma, got, want)
			}
		}
	}
}

// requireBatchMatchesPredict checks PredictBatch against per-example
// Predict on every example of ds.
func requireBatchMatchesPredict(t *testing.T, name string, s *SVM, ds *ml.Dataset) {
	t.Helper()
	got := s.PredictBatch(ds)
	if len(got) != ds.NumExamples() {
		t.Fatalf("%s: %d classes for %d examples", name, len(got), ds.NumExamples())
	}
	rows, _ := rowsOf(ds)
	for i, cls := range got {
		if want := s.Predict(rows[i]); cls != want {
			t.Fatalf("%s: example %d: PredictBatch %d, Predict %d", name, i, cls, want)
		}
	}
}

// TestPredictBatchMatchesPredict pins PredictBatch to Predict for every
// kernel at C ∈ {1, 100}, for the degenerate single-class models, and for
// models round-tripped through ExportParams/FromParams, over batches several
// morsels long that end on a short morsel — with the support set and the
// morsels packed to 16-bit lanes and, when either holds a code past a lane,
// on the int32 fallback.
func TestPredictBatchMatchesPredict(t *testing.T) {
	train := noisyDataset(300, 3)
	eval := noisyDataset(3*predictMorsel+77, 4)
	var xs []relational.Value
	var ys []int8
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		x0 := relational.Value(r.Intn(2) << 16)
		xs = append(xs, x0, relational.Value(r.Intn(4)))
		ys = append(ys, int8(x0>>16))
	}
	wide := mustRows([]ml.Feature{{Name: "big", Cardinality: 1 << 17}, {Name: "f", Cardinality: 4}}, xs, ys)
	for _, kind := range []KernelKind{Linear, Quadratic, RBF} {
		for _, c := range []float64{1, 100} {
			for name, ds := range map[string]*ml.Dataset{"u16": train, "int32": wide} {
				s, err := New(Config{Kernel: kind, C: c, Gamma: 0.5, Seed: 9})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Fit(ds); err != nil {
					t.Fatal(err)
				}
				if (s.svPacked != nil) != (name == "u16") {
					t.Fatalf("%v/%s: packed support = %v", kind, name, s.svPacked != nil)
				}
				requireBatchMatchesPredict(t, kind.String()+"/"+name, s, eval)
				requireBatchMatchesPredict(t, kind.String()+"/"+name+"/wide", s, wide)
				p, err := s.ExportParams()
				if err != nil {
					t.Fatal(err)
				}
				back, err := FromParams(ds.Features, p)
				if err != nil {
					t.Fatal(err)
				}
				requireBatchMatchesPredict(t, kind.String()+"/"+name+"/roundtrip", back, eval)
			}
		}
	}
	// Degenerate models: a single-class fit (kernel, no support set) and the
	// kernel-less model FromParams builds from a class sign.
	one := mustRows(feats(2, 4), []relational.Value{0, 1, 1, 2}, []int8{1, 1})
	s, _ := New(Config{Kernel: RBF, C: 1, Gamma: 1})
	if err := s.Fit(one); err != nil {
		t.Fatal(err)
	}
	requireBatchMatchesPredict(t, "single-class", s, eval)
	for _, b := range []float64{1, -1} {
		kernelless, err := FromParams(feats(2, 4), Params{Kernel: RBF, Gamma: 1, B: b})
		if err != nil {
			t.Fatal(err)
		}
		requireBatchMatchesPredict(t, "kernel-less", kernelless, eval)
	}
	if got := s.PredictBatch(mustRows(feats(2, 4), nil, nil)); len(got) != 0 {
		t.Fatalf("empty batch returned %d classes", len(got))
	}
}

// TestPredictBatchAcrossBackings runs PredictBatch's gather path over an
// in-memory segmented table, a spilled one under a cache of a few
// segments, and Subset views of both, requiring per-example Predict
// agreement on each.
func TestPredictBatchAcrossBackings(t *testing.T) {
	jv, cols, target := flightsJoin(t, 64, 7)
	backing := func(name string, opts relational.SegmentOptions) *ml.Dataset {
		st, err := relational.MaterializeSegmented(jv, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		ds, err := ml.FromRelation(st, cols, target)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	mem := backing("mem", relational.SegmentOptions{SegmentSize: 128})
	spilled := backing("spilled", relational.SegmentOptions{SegmentSize: 64, SpillDir: t.TempDir(), CacheBytes: 4096})
	r := rng.New(11)
	sub := r.Perm(mem.NumExamples())[:mem.NumExamples()/2]
	backings := map[string]*ml.Dataset{
		"in-memory":      mem,
		"spilled":        spilled,
		"subset":         mem.Subset(sub),
		"spilled-subset": spilled.Subset(sub),
	}
	for _, kind := range []KernelKind{Linear, RBF} {
		s, err := New(Config{Kernel: kind, C: 10, Gamma: 0.1, SubsampleCap: 300, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Fit(mem); err != nil {
			t.Fatal(err)
		}
		for name, ds := range backings {
			requireBatchMatchesPredict(t, kind.String()+"/"+name, s, ds)
		}
	}
}
