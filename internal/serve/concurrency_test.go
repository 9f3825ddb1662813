package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ann"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
)

// moviesEngines trains one linear (NB) and one gather-path (MLP) engine on
// the same Movies star schema and returns them with a deck of valid requests
// drawn from the fact table.
func moviesEngines(t testing.TB) (*Engine, *Engine, [][]relational.Value) {
	t.Helper()
	ss := star(t, "Movies", 2048)
	train, _ := joinAllDataset(t, ss)

	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	nbm, err := model.New(nbc, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := NewEngine(nbm, ss)
	if err != nil {
		t.Fatal(err)
	}

	net := ann.New(ann.Config{Hidden1: 32, Hidden2: 16, LearningRate: 1e-2, Epochs: 2, Seed: 7})
	if err := net.Fit(train); err != nil {
		t.Fatal(err)
	}
	annm, err := model.New(net, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := NewEngine(annm, ss)
	if err != nil {
		t.Fatal(err)
	}
	if mlp.Factorized() {
		t.Fatal("MLP engine claims a factorized form")
	}

	n := min(ss.Fact.NumRows(), 512)
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = lin.RequestFromFactRow(make([]relational.Value, len(lin.InputFeatures())), ss.Fact.Row(i))
	}
	return lin, mlp, reqs
}

// TestRegistryHotSwapRace is the snapshot-consistency test: workers hammer a
// slot through the full serving path (snapshot resolve + Engine.Predict) while
// the main goroutine swaps between two models and rolls back, under -race.
// Every response must exactly equal one model's sequential answer for that
// request — a response that matches neither would mean a request was scored
// by a mix of versions.
func TestRegistryHotSwapRace(t *testing.T) {
	ss := star(t, "Movies", 2048)
	train, _ := joinAllDataset(t, ss)
	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: 1e-3, Epochs: 3, Seed: 5})
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	ma, err := model.New(nbc, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := model.New(lr, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := NewEngine(ma, ss)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := NewEngine(mb, ss)
	if err != nil {
		t.Fatal(err)
	}

	n := min(ss.Fact.NumRows(), 256)
	reqs := make([][]relational.Value, n)
	wantA := make([]Prediction, n)
	wantB := make([]Prediction, n)
	for i := range reqs {
		reqs[i] = ea.RequestFromFactRow(make([]relational.Value, len(ea.InputFeatures())), ss.Fact.Row(i))
		if wantA[i], err = ea.Predict(reqs[i]); err != nil {
			t.Fatal(err)
		}
		if wantB[i], err = eb.Predict(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Both linear, but trained differently: scores must differ somewhere or
	// a version mix would be undetectable.
	distinct := false
	for i := range wantA {
		if wantA[i] != wantB[i] {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("the two models answer identically — race test has no power")
	}

	reg := NewRegistry()
	slot, err := reg.Register("m", ea)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j := rng.Intn(n)
				got, err := slot.Predict(reqs[j])
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if got != wantA[j] && got != wantB[j] {
					errs <- fmt.Errorf("worker %d req %d: response %+v matches neither version (%+v / %+v)",
						w, j, got, wantA[j], wantB[j])
					return
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		m := mb
		if i%2 == 1 {
			m = ma
		}
		if _, err := reg.Swap("m", m); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := reg.Rollback("m", slot.Snapshot().Version-1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := slot.Snapshot().Version; v != 42 {
		t.Fatalf("final version %d, want 42 (1 + 40 swaps + 1 rollback)", v)
	}
}

// TestRegistrySemantics covers registration, lookup, history bounding, and
// the typed error paths.
func TestRegistrySemantics(t *testing.T) {
	lin, _, _ := moviesEngines(t)
	reg := NewRegistry()
	if _, err := reg.Register("", lin); err == nil {
		t.Fatal("empty name accepted")
	}
	slot, err := reg.Register("a", lin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("a", lin); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if def, ok := reg.Slot(""); !ok || def != slot {
		t.Fatal("first registration is not the default slot")
	}
	if _, ok := reg.Slot("nope"); ok {
		t.Fatal("unknown slot resolved")
	}
	if _, err := reg.Swap("nope", lin.Model()); err == nil {
		t.Fatal("swap on unknown slot accepted")
	}
	if _, err := reg.Rollback("a", 99); err == nil {
		t.Fatal("rollback to unknown version accepted")
	}
	// Drive versions past the history bound; early versions age out.
	for i := 0; i < keepVersions+3; i++ {
		if _, err := reg.Swap("a", lin.Model()); err != nil {
			t.Fatal(err)
		}
	}
	hist := slot.Versions()
	if len(hist) != keepVersions {
		t.Fatalf("history holds %d versions, want %d", len(hist), keepVersions)
	}
	if _, err := reg.Rollback("a", 1); err == nil {
		t.Fatal("rollback to aged-out version accepted")
	}
	if _, err := reg.Rollback("a", hist[0].Version); err != nil {
		t.Fatalf("rollback to retained version: %v", err)
	}
	if b, err := reg.Register("b", lin); err != nil {
		t.Fatal(err)
	} else if got := reg.Slots(); len(got) != 2 || got[0] != slot || got[1] != b {
		t.Fatalf("Slots() = %v", got)
	}
}

// TestPredictBatchErrors pins the batch error contract: the first invalid
// request fails the whole batch with its index, and nothing is returned.
func TestPredictBatchErrors(t *testing.T) {
	lin, mlp, reqs := moviesEngines(t)
	for name, e := range map[string]*Engine{"linear": lin, "mlp": mlp} {
		t.Run(name, func(t *testing.T) {
			bad := append([]relational.Value(nil), reqs[0]...)
			bad[0] = -1
			out, err := e.PredictBatch([][]relational.Value{reqs[0], bad, reqs[1]})
			if err == nil || out != nil {
				t.Fatalf("invalid request accepted: out=%v err=%v", out, err)
			}
			if want := "request 1"; !contains(err.Error(), want) {
				t.Fatalf("error %q does not name the failing index", err)
			}
			short := reqs[0][:len(reqs[0])-1]
			if _, err := e.PredictBatch([][]relational.Value{short}); err == nil {
				t.Fatal("short request accepted")
			}
			if out, err := e.PredictBatch(nil); err != nil || len(out) != 0 {
				t.Fatalf("empty batch: out=%v err=%v", out, err)
			}
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestServeAllocations is the zero-alloc proof: the factorized linear path
// allocates nothing per request — neither directly nor through the slot —
// and the pooled gather path amortizes to well under one allocation per
// request in steady state (a GC clearing the pool may force an occasional
// refill, hence the <1 bound rather than ==0). The MLP's direct path is
// pinned at the count its model's own Predict makes.
func TestServeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are proven in the non-race run")
	}
	lin, mlp, reqs := moviesEngines(t)
	req := reqs[0]

	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := lin.PredictFactorized(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("PredictFactorized: %v allocs/op, want 0", avg)
	}

	reg := NewRegistry()
	slot, err := reg.Register("lin", lin)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := slot.Predict(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("slot.Predict (factorized linear): %v allocs/op, want 0", avg)
	}

	// The gather path's scratch is pooled; the linear engine isolates that
	// (the MLP's Predict allocates inside the model itself).
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := lin.PredictJoined(req); err != nil {
			t.Fatal(err)
		}
	}); avg >= 1 {
		t.Errorf("PredictJoined (pooled scratch): %v allocs/op, want <1", avg)
	}

	// The MLP through its slot: the pooled gather adds nothing, and
	// Probability allocates its two hidden layers per call. Any allocation
	// the serving layer adds on top moves the count off 2.
	mslot, err := reg.Register("mlp", mlp)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := mslot.Predict(req); err != nil {
			t.Fatal(err)
		}
	}); avg != 2 {
		t.Errorf("slot.Predict (MLP): %v allocs/op, want 2", avg)
	}

	// The instrumented hot path: exactly the telemetry sequence handlePredict
	// adds around a request (endpoint counter, three phase observations plus
	// the total) must record without allocating — the property that lets
	// /metrics coexist with the zero-alloc serving contract.
	m := reg.Metrics()
	if avg := testing.AllocsPerRun(1000, func() {
		t0 := time.Now()
		m.reqPredict.Inc()
		if _, err := slot.Predict(req); err != nil {
			t.Fatal(err)
		}
		m.predictDecode.Observe(int64(time.Since(t0)))
		m.predictScore.Observe(int64(time.Since(t0)))
		m.predictEncode.Observe(int64(time.Since(t0)))
		m.predictTotal.Observe(int64(time.Since(t0)))
	}); avg != 0 {
		t.Errorf("instrumented predict path: %v allocs/op, want 0", avg)
	}
}
