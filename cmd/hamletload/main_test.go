package main

import (
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// testDaemon boots an in-process serving stack identical to hamletd's:
// trained NB artifact, factorized engine, registry server.
func testDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	spec, err := dataset.SpecByName("Movies")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := dataset.Generate(spec, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := core.NewEnv(ss, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := core.BuildArtifact(env, core.NaiveBayesBFSSpec(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.NewEngine(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(e).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadClosedLoop drives a short closed-loop burst and checks the report.
func TestLoadClosedLoop(t *testing.T) {
	ts := testDaemon(t)
	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-duration", "300ms", "-warmup", "50ms",
		"-conns", "8", "-min-rps", "1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"req/s", "latency: p50", "mallocs/req"} {
		if !strings.Contains(got, want) {
			t.Errorf("report missing %q:\n%s", want, got)
		}
	}
}

// TestLoadOpenLoop exercises the paced arrival path.
func TestLoadOpenLoop(t *testing.T) {
	ts := testDaemon(t)
	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-duration", "300ms", "-warmup", "0s",
		"-conns", "8", "-rate", "200",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "req/s") {
		t.Errorf("report missing throughput:\n%s", out.String())
	}
}

// TestLoadFailures covers the gating exits: unreachable floor and unknown
// model slot.
func TestLoadFailures(t *testing.T) {
	ts := testDaemon(t)
	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-duration", "200ms", "-warmup", "0s",
		"-conns", "4", "-min-rps", "1e12",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "below floor") {
		t.Fatalf("want throughput-floor error, got %v", err)
	}
	if err := run([]string{"-addr", ts.URL, "-model", "nope", "-duration", "100ms"}, &out); err == nil {
		t.Fatal("unknown model slot accepted")
	}
}

// TestLoadScrape drives a burst with -scrape and checks the server-side
// report: the recomputed latency quantiles, the delta table, and agreement
// between the scraped request-counter delta and the client's own count.
func TestLoadScrape(t *testing.T) {
	ts := testDaemon(t)
	var out strings.Builder
	err := run([]string{
		"-addr", ts.URL, "-duration", "300ms", "-warmup", "50ms",
		"-conns", "8", "-scrape",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"server latency (from /metrics bucket deltas): p50",
		"scrape deltas (",
		`hamlet_http_requests_total{endpoint="predict"}`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("scrape report missing %q:\n%s", want, got)
		}
	}
	// The scraped request delta must equal the requests the client sent in
	// the measured window (the "N requests in" line counts successes; warmup
	// traffic happened before the first scrape).
	var clientN int
	if _, err := fmt.Sscanf(got[strings.Index(got, "\n")+1:], "%d requests in", &clientN); err != nil {
		t.Fatalf("parsing client request count: %v\n%s", err, got)
	}
	re := regexp.MustCompile(`hamlet_http_requests_total\{endpoint="predict"\}\s+\+(\d+)`)
	m := re.FindStringSubmatch(got)
	if m == nil {
		t.Fatalf("no request-counter delta in report:\n%s", got)
	}
	if serverN, _ := strconv.Atoi(m[1]); serverN != clientN {
		t.Errorf("server counted %d requests, client measured %d\n%s", serverN, clientN, got)
	}
}
