package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// scrape fetches /metrics and returns every sample keyed by fully qualified
// series name, failing on anything that does not parse as exposition text.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := samples[line[:sp]]; dup {
			t.Fatalf("series %q emitted twice", line[:sp])
		}
		samples[line[:sp]] = v
	}
	return samples
}

// TestMetricsEndpoint drives traffic (successes and a structured error)
// through a live server and checks the scrape against ground truth: request
// counters match requests sent, the latency histogram count matches the
// success count, errors land in their by-code counter, and /stats — which
// reads the same obs counters — agrees with the exposition.
func TestMetricsEndpoint(t *testing.T) {
	srv, engine, ss := testServer(t)
	const good = 7
	for i := 0; i < good; i++ {
		resp, body := postJSON(t, srv.URL+"/predict", map[string]any{"input": inputObject(engine, ss.Fact.Row(i))})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	// One structured error: an unknown model is a 404.
	if resp, _ := postJSON(t, srv.URL+"/predict?model=nope", map[string]any{"input": map[string]int32{}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d", resp.StatusCode)
	}

	samples := scrape(t, srv.URL)
	if got := samples[`hamlet_http_requests_total{endpoint="predict"}`]; got != good+1 {
		t.Fatalf("request counter = %v, want %d", got, good+1)
	}
	if got := samples[`hamlet_http_errors_total{code="404"}`]; got != 1 {
		t.Fatalf("404 counter = %v, want 1", got)
	}
	if got := samples[`hamlet_http_request_ns_count{endpoint="predict"}`]; got != good {
		t.Fatalf("latency histogram count = %v, want %d (errors must not contribute)", got, good)
	}
	for _, phase := range []string{"decode", "score", "encode"} {
		name := `hamlet_http_phase_ns_count{endpoint="predict",phase="` + phase + `"}`
		if got := samples[name]; got != good {
			t.Fatalf("%s = %v, want %d", name, got, good)
		}
	}
	// The storage families registered on obs.Default must appear in the same
	// scrape (values depend on prior tests in the process; presence is the
	// contract).
	for _, name := range []string{"hamlet_segcache_hits_total", "hamlet_segcache_misses_total"} {
		if _, ok := samples[name]; !ok {
			t.Fatalf("scrape missing process-wide series %q", name)
		}
	}

	// /stats reads the same counters: its request/error totals and segcache
	// block must agree with the exposition just scraped (no new traffic in
	// between — scrapes themselves hit /metrics, not /predict).
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Requests float64           `json:"requests"`
		Errors   float64           `json:"errors"`
		History  map[string][]int  `json:"history"`
		SegCache map[string]uint64 `json:"segcache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	wantReqs := samples[`hamlet_http_requests_total{endpoint="predict"}`] +
		samples[`hamlet_http_requests_total{endpoint="predict_batch"}`]
	if stats.Requests != wantReqs {
		t.Fatalf("/stats requests = %v, /metrics sum = %v", stats.Requests, wantReqs)
	}
	if stats.Errors != 1 {
		t.Fatalf("/stats errors = %v, want 1", stats.Errors)
	}
	if vs := stats.History["default"]; len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("/stats history = %v, want default:[1]", stats.History)
	}
	if stats.SegCache["hits"] != uint64(samples["hamlet_segcache_hits_total"]) {
		t.Fatalf("/stats segcache hits %d != scraped %v", stats.SegCache["hits"], samples["hamlet_segcache_hits_total"])
	}
}

// TestMetricsSwapCounters pins the registry-transition counters: a swap and a
// rollback each bump their labeled series.
func TestMetricsSwapCounters(t *testing.T) {
	srv, engine, _ := testServer(t)
	path := saveModel(t, engine.Model())
	if resp, body := postJSON(t, srv.URL+"/swap", map[string]any{"path": path}); resp.StatusCode != http.StatusOK {
		t.Fatalf("swap: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, srv.URL+"/swap", map[string]any{"version": 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: status %d: %s", resp.StatusCode, body)
	}
	samples := scrape(t, srv.URL)
	if got := samples[`hamlet_registry_transitions_total{kind="swap"}`]; got != 1 {
		t.Fatalf("swap counter = %v, want 1", got)
	}
	if got := samples[`hamlet_registry_transitions_total{kind="rollback"}`]; got != 1 {
		t.Fatalf("rollback counter = %v, want 1", got)
	}
}
