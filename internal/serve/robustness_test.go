package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nb"
	"repro/internal/relational"
)

// hardenedServer builds a registry server over a Naive Bayes Walmart engine
// with the given hardening config, plus a deck of valid requests.
func hardenedServer(t *testing.T, cfg ServerConfig) (*Server, *Engine, [][]relational.Value, *relational.StarSchema) {
	t.Helper()
	ss := star(t, "Walmart", 1024)
	train, _ := joinAllDataset(t, ss)
	nbc := nb.New(nb.Config{})
	if err := nbc.Fit(train); err != nil {
		t.Fatal(err)
	}
	m, err := model.New(nbc, train.Features, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.Register("default", e); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg, cfg)
	n := min(ss.Fact.NumRows(), 64)
	reqs := make([][]relational.Value, n)
	for i := range reqs {
		reqs[i] = e.RequestFromFactRow(make([]relational.Value, len(e.InputFeatures())), ss.Fact.Row(i))
	}
	return srv, e, reqs, ss
}

// errBody decodes the structured error shape fail() writes.
func errBody(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("response body %q is not a structured error", body)
	}
	return e.Error
}

// TestAdmissionGateSheds pins the overload contract: with the gate full, a
// predict request is rejected immediately with 429 + Retry-After and a
// structured body, the shed and err429 counters move, and — once the gate
// drains — the same request succeeds.
func TestAdmissionGateSheds(t *testing.T) {
	srv, e, _, ss := hardenedServer(t, ServerConfig{MaxInflight: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Occupy both gate slots as two in-flight requests would.
	srv.gate <- struct{}{}
	srv.gate <- struct{}{}

	resp, body := postJSON(t, hs.URL+"/predict", map[string]any{"input": inputObject(e, ss.Fact.Row(0))})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full gate: status %d, want 429 (body %q)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if msg := errBody(t, body); !strings.Contains(msg, "capacity") {
		t.Fatalf("shed error %q does not mention capacity", msg)
	}
	m := srv.Registry().Metrics()
	if m.shed.Value() != 1 || m.err429.Value() != 1 {
		t.Fatalf("shed=%d err429=%d, want 1/1", m.shed.Value(), m.err429.Value())
	}

	<-srv.gate
	<-srv.gate
	resp, body = postJSON(t, hs.URL+"/predict", map[string]any{"input": inputObject(e, ss.Fact.Row(0))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained gate: status %d (body %q), want 200", resp.StatusCode, body)
	}
	if m.shed.Value() != 1 {
		t.Fatalf("successful request moved the shed counter to %d", m.shed.Value())
	}
}

// TestAdmissionUnlimited: a negative MaxInflight disables the gate entirely.
func TestAdmissionUnlimited(t *testing.T) {
	srv, _, reqs, _ := hardenedServer(t, ServerConfig{MaxInflight: -1})
	if srv.gate != nil {
		t.Fatal("MaxInflight < 0 still built an admission gate")
	}
	slot, _ := srv.Registry().Slot("")
	if _, err := srv.Predict(slot, reqs[0]); err != nil {
		t.Fatalf("ungated Predict: %v", err)
	}
}

// TestChaosPanicRecovered drives a server that panics on every predict and
// requires every response to be a structured 500 — never a dropped
// connection, never a 429. The absence of 429s is the gate-release proof:
// with MaxInflight=2 and panics on every request, a leaked slot would
// exhaust the gate within two requests and every later one would shed.
func TestChaosPanicRecovered(t *testing.T) {
	srv, e, _, ss := hardenedServer(t, ServerConfig{MaxInflight: 2, ChaosPanicEvery: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const n = 16
	for i := 0; i < n; i++ {
		resp, body := postJSON(t, hs.URL+"/predict", map[string]any{"input": inputObject(e, ss.Fact.Row(i))})
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d (body %q), want structured 500", i, resp.StatusCode, body)
		}
		if msg := errBody(t, body); !strings.Contains(msg, "internal error") {
			t.Fatalf("request %d: error %q", i, msg)
		}
	}
	m := srv.Registry().Metrics()
	if got := m.panics.Value(); got != n {
		t.Fatalf("panics_recovered = %d, want %d", got, n)
	}
	if got := m.err500.Value(); got != n {
		t.Fatalf("err500 = %d, want %d", got, n)
	}
	if got := m.shed.Value(); got != 0 {
		t.Fatalf("%d requests shed — a panic leaked its gate slot", got)
	}
}

// TestServerPredictHardened covers the in-process hardened entry: normal
// scoring matches the engine, a full gate returns ErrShed, and a panic on
// the path comes back as an error with the counter moved.
func TestServerPredictHardened(t *testing.T) {
	srv, e, reqs, _ := hardenedServer(t, ServerConfig{MaxInflight: 1})
	slot, _ := srv.Registry().Slot("")

	want, err := e.Predict(reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := srv.Predict(slot, reqs[0])
	if err != nil || got != want {
		t.Fatalf("Predict = %+v, %v; want %+v", got, err, want)
	}

	srv.gate <- struct{}{}
	if _, err := srv.Predict(slot, reqs[0]); !errors.Is(err, ErrShed) {
		t.Fatalf("full gate: err = %v, want ErrShed", err)
	}
	<-srv.gate

	// A nil slot panics inside the hardened region; the recovery turns it
	// into an error and the gate slot comes back (the follow-up succeeds).
	if _, err := srv.Predict(nil, reqs[0]); err == nil || !strings.Contains(err.Error(), "recovered panic") {
		t.Fatalf("nil slot: err = %v, want recovered panic", err)
	}
	if got := srv.Registry().Metrics().panics.Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	if _, err := srv.Predict(slot, reqs[0]); err != nil {
		t.Fatalf("after recovered panic: %v — gate slot leaked?", err)
	}
}

// TestRegistryErrorPaths pins the typed registry errors: rolling back a
// fresh slot (history holds only the live version), swapping or rolling
// back an unknown slot, and rolling back to a never-existed version.
func TestRegistryErrorPaths(t *testing.T) {
	lin, _, _ := moviesEngines(t)
	reg := NewRegistry()
	slot, err := reg.Register("m", lin)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh slot: version 1 is live and the only history entry. There is no
	// previous version to return to.
	if _, err := reg.Rollback("m", 0); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("rollback to version 0: err = %v, want ErrUnknownVersion", err)
	}
	if _, err := reg.Rollback("m", 2); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("rollback to future version: err = %v, want ErrUnknownVersion", err)
	}
	if _, err := reg.Swap("ghost", lin.Model()); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("swap unknown slot: err = %v, want ErrUnknownModel", err)
	}
	if _, err := reg.Rollback("ghost", 1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("rollback unknown slot: err = %v, want ErrUnknownModel", err)
	}
	// Rolling back to the live version is legal (roll-forward semantics: it
	// reinstalls the same engine as a new version).
	snap, err := reg.Rollback("m", 1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 2 || snap.Engine != slot.Versions()[0].Engine {
		t.Fatalf("self-rollback produced %+v", snap)
	}
}

// TestRegistryConcurrentSwapRollback hammers Swap and Rollback on one slot
// from several goroutines while predictors score through it, under -race.
// Every mutation must either succeed or fail with a typed error (a rollback
// target can age out of the bounded history mid-race), and every predict
// must succeed.
func TestRegistryConcurrentSwapRollback(t *testing.T) {
	lin, _, reqs := moviesEngines(t)
	reg := NewRegistry()
	slot, err := reg.Register("m", lin)
	if err != nil {
		t.Fatal(err)
	}
	m := lin.Model()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				snap, err := reg.Swap("m", m)
				if err != nil {
					errs <- fmt.Errorf("swap: %v", err)
					return
				}
				if _, err := reg.Rollback("m", snap.Version); err != nil && !errors.Is(err, ErrUnknownVersion) {
					errs <- fmt.Errorf("rollback: %v", err)
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := slot.Predict(reqs[(w+i)%len(reqs)]); err != nil {
					errs <- fmt.Errorf("predict: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if len(slot.Versions()) != keepVersions {
		t.Fatalf("history holds %d versions, want the %d bound", len(slot.Versions()), keepVersions)
	}
}

// TestServerPredictAllocations extends the zero-alloc proof to the hardened
// in-process path: admission gate plus panic recovery must add nothing to
// the factorized linear steady state.
func TestServerPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are proven in the non-race run")
	}
	srv, _, reqs, _ := hardenedServer(t, ServerConfig{MaxInflight: 64})
	slot, _ := srv.Registry().Slot("")
	req := reqs[0]
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := srv.Predict(slot, req); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("hardened Server.Predict: %v allocs/op, want 0", avg)
	}
}
