// Command hamletload is the load harness for hamletd: it discovers a model's
// input layout from GET /models, synthesizes valid requests, drives
// concurrent /predict traffic against a live daemon, and reports throughput,
// tail latency, and server-side allocation counts.
//
// Usage:
//
//	hamletd    -model m.bin -addr 127.0.0.1:8080 &
//	hamletload -addr 127.0.0.1:8080 -conns 64 -duration 5s
//
// Two drive modes: closed-loop (-rate 0, the default) keeps -conns workers
// each with one outstanding request — the classic saturation probe; open
// loop (-rate N) dispatches N requests per second from a pacer regardless of
// completions, the arrival process that actually exposes queueing delay
// (coordinated omission is what closed loops hide). In both modes the report
// gives req/s, p50/p99/p999/max latency, and the server's
// mallocs-per-request delta (from /stats).
//
// -min-rps sets a throughput floor: the run exits non-zero below it, which
// is what lets CI gate serving regressions with a one-line smoke job.
//
// -retries N makes each worker retry a failed request up to N times —
// transport errors, 429 (the daemon's admission gate shedding load), and 5xx
// all qualify — with capped exponential backoff and full jitter, so a shed
// burst spreads out instead of stampeding back in sync. The report counts
// retries, shed responses, and splits 5xx into structured (the recovery
// middleware's JSON error body) and unstructured; a chaos run against a
// panicking daemon must report 0 unstructured 5xx, which is exactly what the
// CI chaos-smoke job greps for.
//
// -scrape additionally snapshots GET /metrics before and after the measured
// window and reports the server's own view of the run: every counter that
// moved, and p50/p99/p999 recomputed from the /predict latency histogram's
// bucket deltas — printed next to the client-side percentiles so queueing
// delay outside the server (client stack, kernel, NIC) is visible as the gap
// between the two.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hamletload:", err)
		os.Exit(1)
	}
}

type config struct {
	base     string
	model    string
	mode     string
	duration time.Duration
	warmup   time.Duration
	conns    int
	rate     int
	seed     int64
	minRPS   float64
	bodies   int
	scrape   bool
	retries  int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("hamletload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "hamletd address (host:port or http URL)")
	model := fs.String("model", "", "model slot to target (default: the daemon's default slot)")
	mode := fs.String("mode", "", "forced scoring path: factorized or joined (default: the engine's choice)")
	duration := fs.Duration("duration", 5*time.Second, "measured load duration")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "unmeasured warmup before the clock starts")
	conns := fs.Int("conns", 64, "concurrent workers (closed loop) / max in-flight (open loop)")
	rate := fs.Int("rate", 0, "open-loop request rate in req/s (0 = closed loop)")
	seed := fs.Int64("seed", 1, "request synthesis seed")
	minRPS := fs.Float64("min-rps", 0, "fail (exit 1) below this measured req/s")
	bodies := fs.Int("bodies", 256, "distinct pre-encoded request bodies to cycle through")
	scrape := fs.Bool("scrape", false, "snapshot /metrics around the run and report server-side counter deltas and latency quantiles")
	retries := fs.Int("retries", 0, "max retries per request on 429/5xx/transport errors (capped exponential backoff with jitter)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	if *conns <= 0 {
		return config{}, fmt.Errorf("-conns must be positive")
	}
	return config{
		base: base, model: *model, mode: *mode,
		duration: *duration, warmup: *warmup,
		conns: *conns, rate: *rate, seed: *seed,
		minRPS: *minRPS, bodies: *bodies, scrape: *scrape,
		retries: *retries,
	}, nil
}

// modelsResponse mirrors hamletd's GET /models shape.
type modelsResponse struct {
	Models []struct {
		Name       string `json:"name"`
		Version    int    `json:"version"`
		Kind       string `json:"kind"`
		Factorized bool   `json:"factorized"`
		Inputs     []struct {
			Name        string `json:"name"`
			Cardinality int    `json:"cardinality"`
		} `json:"inputs"`
	} `json:"models"`
}

// statsSnapshot is the slice of GET /stats the report needs.
type statsSnapshot struct {
	Mallocs  uint64 `json:"mallocs"`
	Examples int64  `json:"examples"`
	Errors   int64  `json:"errors"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// synthesize pre-encodes cfg.bodies random valid /predict bodies for the
// chosen model, using the advertised cardinalities so every request passes
// domain validation and the run measures serving, not error handling.
func synthesize(cfg config, models modelsResponse) ([][]byte, string, error) {
	idx := 0
	if cfg.model != "" {
		idx = -1
		for i, m := range models.Models {
			if m.Name == cfg.model {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, "", fmt.Errorf("daemon has no model %q", cfg.model)
		}
	}
	if len(models.Models) == 0 {
		return nil, "", fmt.Errorf("daemon serves no models")
	}
	m := models.Models[idx]
	rng := rand.New(rand.NewSource(cfg.seed))
	bodies := make([][]byte, cfg.bodies)
	var buf bytes.Buffer
	for i := range bodies {
		buf.Reset()
		buf.WriteString(`{"input":{`)
		for j, in := range m.Inputs {
			if j > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "%q:%d", in.Name, rng.Intn(in.Cardinality))
		}
		buf.WriteString("}}")
		bodies[i] = append([]byte(nil), buf.Bytes()...)
	}
	return bodies, fmt.Sprintf("%s v%d (%s, factorized=%v)",
		m.Name, m.Version, m.Kind, m.Factorized), nil
}

// scrapeMetrics fetches /metrics and returns every sample keyed by its fully
// qualified series name (name plus rendered labels).
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			samples[line[:sp]] = v
		}
	}
	return samples, sc.Err()
}

// scrapeQuantiles recomputes latency quantiles from the delta of two scrapes
// of one histogram family: the cumulative bucket counts that moved during
// the run ARE the run's histogram, so the server's own p50/p99/p999 fall out
// of obs.QuantileFromCumulative with no extra instrumentation. prefix is the
// family's `_bucket{...` series prefix up to (excluding) the le label.
func scrapeQuantiles(before, after map[string]float64, prefix string) (p50, p99, p999 time.Duration, ok bool) {
	type bkt struct {
		le    float64
		count uint64
	}
	var bkts []bkt
	for series, av := range after {
		rest, found := strings.CutPrefix(series, prefix)
		if !found {
			continue
		}
		rest, found = strings.CutPrefix(rest, `le="`)
		if !found {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		// A bucket absent from the earlier scrape was empty then (empty
		// buckets are elided from the exposition): its before-count is 0.
		if d := av - before[series]; d > 0 {
			bkts = append(bkts, bkt{le, uint64(d)})
		}
	}
	if len(bkts) == 0 {
		return 0, 0, 0, false
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	les := make([]float64, len(bkts))
	cums := make([]uint64, len(bkts))
	for i, b := range bkts {
		les[i] = b.le
		cums[i] = b.count // deltas of cumulative counts are cumulative
	}
	q := func(p float64) time.Duration {
		return time.Duration(obs.QuantileFromCumulative(les, cums, p))
	}
	return q(0.50), q(0.99), q(0.999), true
}

// reportScrape prints the server-side view of the run: recomputed /predict
// latency quantiles and every scalar counter that moved between the scrapes.
func reportScrape(out io.Writer, before, after map[string]float64) {
	if p50, p99, p999, ok := scrapeQuantiles(before, after,
		`hamlet_http_request_ns_bucket{endpoint="predict",`); ok {
		fmt.Fprintf(out, "server latency (from /metrics bucket deltas): p50 %s  p99 %s  p999 %s\n",
			p50, p99, p999)
	}
	var moved []string
	for series, av := range after {
		if strings.Contains(series, "_bucket{") || strings.Contains(series, "_bucket ") {
			continue // quantiles above already summarize the buckets
		}
		if d := av - before[series]; d != 0 {
			// Counters are integral; %g would flip to exponent notation past
			// 1e6 and defeat downstream delta parsing.
			moved = append(moved, fmt.Sprintf("  %-64s %+d", series, int64(d)))
		}
	}
	sort.Strings(moved)
	fmt.Fprintf(out, "scrape deltas (%d series moved):\n", len(moved))
	for _, line := range moved {
		fmt.Fprintln(out, line)
	}
}

// recorder accumulates latencies across workers.
type recorder struct {
	mu   sync.Mutex
	lat  []time.Duration
	errs int
}

func (r *recorder) add(lats []time.Duration, errs int) {
	r.mu.Lock()
	r.lat = append(r.lat, lats...)
	r.errs += errs
	r.mu.Unlock()
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.conns * 2,
			MaxIdleConnsPerHost: cfg.conns * 2,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	var models modelsResponse
	if err := getJSON(client, cfg.base+"/models", &models); err != nil {
		return fmt.Errorf("discovering input layout: %w", err)
	}
	bodies, target, err := synthesize(cfg, models)
	if err != nil {
		return err
	}
	url := cfg.base + "/predict"
	q := []string{}
	if cfg.model != "" {
		q = append(q, "model="+cfg.model)
	}
	if cfg.mode != "" {
		q = append(q, "mode="+cfg.mode)
	}
	if len(q) > 0 {
		url += "?" + strings.Join(q, "&")
	}

	// Robustness accounting across all attempts (warmup included — an
	// unstructured 5xx is a defect whenever it happens):
	//   shed429      responses rejected by the daemon's admission gate
	//   structured5  5xx with the recovery middleware's JSON error body
	//   unstruct5    5xx without one — a panic that escaped the middleware
	//   retried      attempts re-issued after a retryable failure
	var shed429, structured5, unstruct5, retried atomic.Int64

	// attempt fires one request. code 0 means a transport-level error.
	attempt := func(body []byte) (lat time.Duration, code int, err error) {
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		if resp.StatusCode == http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return time.Since(start), http.StatusOK, nil
		}
		// Error path: read the body to classify it. Structured errors are the
		// server's fail() shape — a JSON object with a non-empty "error" key.
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			shed429.Add(1)
		case resp.StatusCode >= 500:
			var e struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(rb, &e) == nil && e.Error != "" {
				structured5.Add(1)
			} else {
				unstruct5.Add(1)
			}
		}
		return 0, resp.StatusCode, fmt.Errorf("status %s", resp.Status)
	}

	// shoot wraps attempt with up to cfg.retries re-issues on retryable
	// failures: transport errors, 429 (shed — the server asked us to back
	// off), and any 5xx. Backoff is capped exponential with full jitter
	// (uniform in [0, min(2ms<<n, 200ms))): a shed burst de-synchronizes
	// instead of returning as the same thundering herd that got it shed.
	shoot := func(body []byte) (time.Duration, error) {
		const (
			backoffBase = 2 * time.Millisecond
			backoffCap  = 200 * time.Millisecond
		)
		for att := 0; ; att++ {
			lat, code, err := attempt(body)
			if err == nil {
				return lat, nil
			}
			retryable := code == 0 || code == http.StatusTooManyRequests || code >= 500
			if !retryable || att >= cfg.retries {
				return 0, err
			}
			retried.Add(1)
			ceil := backoffBase << uint(att)
			if ceil > backoffCap {
				ceil = backoffCap
			}
			time.Sleep(time.Duration(rand.Int63n(int64(ceil))))
		}
	}

	// Warmup: fill connection pools and JIT the serving path off the clock.
	if cfg.warmup > 0 {
		stopAt := time.Now().Add(cfg.warmup)
		var wg sync.WaitGroup
		for w := 0; w < cfg.conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; time.Now().Before(stopAt); i++ {
					shoot(bodies[i%len(bodies)])
				}
			}(w)
		}
		wg.Wait()
	}

	var before statsSnapshot
	if err := getJSON(client, cfg.base+"/stats", &before); err != nil {
		return fmt.Errorf("reading /stats: %w", err)
	}
	var mBefore map[string]float64
	if cfg.scrape {
		if mBefore, err = scrapeMetrics(client, cfg.base); err != nil {
			return fmt.Errorf("scraping /metrics: %w", err)
		}
	}

	rec := &recorder{}
	begin := time.Now()
	deadline := begin.Add(cfg.duration)
	if cfg.rate > 0 {
		// Open loop: a pacer releases request slots on schedule; each fires
		// in its own goroutine, bounded only by -conns in-flight (a full
		// window blocks the pacer, which the report surfaces as reduced
		// throughput rather than silently thinning the arrival process).
		sem := make(chan struct{}, cfg.conns)
		var wg sync.WaitGroup
		interval := time.Second / time.Duration(cfg.rate)
		next := begin
		for i := 0; ; i++ {
			now := time.Now()
			if !now.Before(deadline) {
				break
			}
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(interval)
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				lat, err := shoot(bodies[i%len(bodies)])
				if err != nil {
					rec.add(nil, 1)
					return
				}
				rec.add([]time.Duration{lat}, 0)
			}(i)
		}
		wg.Wait()
	} else {
		// Closed loop: one outstanding request per worker.
		var wg sync.WaitGroup
		for w := 0; w < cfg.conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lats := make([]time.Duration, 0, 4096)
				errs := 0
				for i := w; time.Now().Before(deadline); i += cfg.conns {
					lat, err := shoot(bodies[i%len(bodies)])
					if err != nil {
						errs++
						continue
					}
					lats = append(lats, lat)
				}
				rec.add(lats, errs)
			}(w)
		}
		wg.Wait()
	}
	elapsed := time.Since(begin)

	var after statsSnapshot
	if err := getJSON(client, cfg.base+"/stats", &after); err != nil {
		return fmt.Errorf("reading /stats: %w", err)
	}

	n := len(rec.lat)
	rps := float64(n) / elapsed.Seconds()
	sort.Slice(rec.lat, func(i, j int) bool { return rec.lat[i] < rec.lat[j] })
	fmt.Fprintf(out, "hamletload: target %s via %s\n", target, url)
	fmt.Fprintf(out, "%d requests in %.2fs: %.1f req/s, %d errors\n", n, elapsed.Seconds(), rps, rec.errs)
	if n > 0 {
		fmt.Fprintf(out, "latency: p50 %s  p99 %s  p999 %s  max %s\n",
			percentile(rec.lat, 0.50), percentile(rec.lat, 0.99),
			percentile(rec.lat, 0.999), rec.lat[n-1])
	}
	if served := after.Examples - before.Examples; served > 0 {
		fmt.Fprintf(out, "server: %.1f mallocs/req (%d mallocs over %d served)\n",
			float64(after.Mallocs-before.Mallocs)/float64(served),
			after.Mallocs-before.Mallocs, served)
	}
	if errs := after.Errors - before.Errors; errs > 0 {
		fmt.Fprintf(out, "server: %d errored requests during run\n", errs)
	}
	if cfg.retries > 0 || shed429.Load()+structured5.Load()+unstruct5.Load() > 0 {
		fmt.Fprintf(out, "robustness: %d retries, %d shed (429), %d structured 5xx, %d unstructured 5xx\n",
			retried.Load(), shed429.Load(), structured5.Load(), unstruct5.Load())
	}
	if cfg.scrape {
		mAfter, err := scrapeMetrics(client, cfg.base)
		if err != nil {
			return fmt.Errorf("scraping /metrics: %w", err)
		}
		reportScrape(out, mBefore, mAfter)
	}
	if rec.errs > 0 && n == 0 {
		return fmt.Errorf("all %d requests failed", rec.errs)
	}
	if cfg.minRPS > 0 && rps < cfg.minRPS {
		return fmt.Errorf("throughput %.1f req/s below floor %.1f", rps, cfg.minRPS)
	}
	if u := unstruct5.Load(); u > 0 {
		// A 5xx without the structured JSON error body means a panic escaped
		// the recovery middleware — always a server defect, so always fatal.
		return fmt.Errorf("%d unstructured 5xx responses", u)
	}
	return nil
}
