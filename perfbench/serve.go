package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/serve"
)

const (
	// serveRate is the open loop's fixed request rate, about a quarter of
	// what two connections sustain closed-loop on a 2-core machine.
	serveRate = 2000
	// serveConns caps in-flight requests: one connection per core.
	serveConns = 2
	// requestTimeout bounds one request; a failed or refused request is
	// recorded at this latency, so it misses every latency limit below it.
	requestTimeout = 5 * time.Second
	// cpuWindow is the serve op: the process CPU time of each window of
	// this many consecutive requests (a tenth of a second) is divided by
	// the window's requests.
	cpuWindow = 200
)

// adminClient serves the cold endpoints (/healthz, /metrics); the timed
// /predict traffic goes over each load phase's own client.
var adminClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: requestTimeout}

// liveServer is one bound engine behind a listening HTTP server.
type liveServer struct {
	engine *serve.Engine
	slot   *serve.Slot
	hs     *http.Server
	addr   string
	served chan error
}

// startServer registers the engine with the default coalescer, wraps it in
// the default server configuration, listens on loopback and waits until
// /healthz answers.
func startServer(eng *serve.Engine) (*liveServer, error) {
	reg := serve.NewRegistry(serve.DefaultCoalescerConfig())
	slot, err := reg.Register("default", eng)
	if err != nil {
		return nil, err
	}
	srv := serve.NewRegistryServer(reg, serve.DefaultServerConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		engine: eng, slot: slot,
		hs:     &http.Server{Handler: srv.Handler()},
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	resp, err := adminClient.Get("http://" + ls.addr + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

// close stops the server and waits for its serve loop to return.
func (ls *liveServer) close() error {
	err := ls.hs.Close()
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// stream is the request stream: the held-out test rows as pre-encoded
// /predict bodies, with their labels and the in-process prediction each
// served answer must equal.
type stream struct {
	reqs   [][]relational.Value
	bodies [][]byte
	labels []int8
	want   []int8
}

func buildStream(eng *serve.Engine, env *core.Env) (*stream, error) {
	schema := env.Joined.Schema()
	inputs := eng.InputFeatures()
	cols := make([]int, len(inputs))
	for i, in := range inputs {
		if cols[i] = schema.Index(in.Name); cols[i] < 0 {
			return nil, fmt.Errorf("input %q is not a joined column", in.Name)
		}
	}
	test := env.Split.Test
	row := make([]relational.Value, schema.Width())
	st := &stream{}
	for r := 0; r < test.NumRows(); r++ {
		test.CopyRow(row, r)
		req := make([]relational.Value, len(inputs))
		body := []byte(`{"input":{`)
		for i, c := range cols {
			req[i] = row[c]
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendQuote(body, inputs[i].Name)
			body = append(body, ':')
			body = strconv.AppendInt(body, int64(row[c]), 10)
		}
		body = append(body, "}}"...)
		p, err := eng.Predict(req)
		if err != nil {
			return nil, err
		}
		st.reqs = append(st.reqs, req)
		st.bodies = append(st.bodies, body)
		st.labels = append(st.labels, int8(row[env.TargetCol]))
		st.want = append(st.want, p.Class)
	}
	if len(st.reqs) == 0 {
		return nil, fmt.Errorf("empty test split")
	}
	return st, nil
}

// loadResult is one open-loop phase, indexed by request.
type loadResult struct {
	wall    time.Duration // first scheduled send to last completion
	cpu     time.Duration // process CPU time over the same span
	latUs   []float64     // from scheduled send time; failures at requestTimeout
	lateUs  []float64     // pacer release minus scheduled send
	ok      []bool
	agree   []bool
	correct []bool
	// windowCPUUs is the process CPU time per request of each window of
	// cpuWindow consecutive releases, in microseconds.
	windowCPUUs []float64
	// Segments of traced requests, in microseconds: release to pickup by a
	// free sender, pickup to request written, written to first response
	// byte, first byte to body read.
	dispatchUs, writeUs, wireUs, readUs []float64
}

func (lr *loadResult) counts() (ok, mismatched, labelHits int) {
	for i := range lr.ok {
		if !lr.ok[i] {
			continue
		}
		ok++
		if !lr.agree[i] {
			mismatched++
		}
		if lr.correct[i] {
			labelHits++
		}
	}
	return ok, mismatched, labelHits
}

// openLoop sends serveRate·dur requests on a fixed schedule over at most
// serveConns connections. A pacer releases request i at its scheduled time;
// the first free sender sends it. Each request is timed from its scheduled
// send time, so a stall that delays later sends counts against them too.
// first offsets the position in the request stream. A probe loop sends
// GET /healthz on the same schedule instead, to time the transport alone.
func openLoop(addr string, st *stream, dur time.Duration, first int, traced, probe bool) *loadResult {
	n := max(1, int(serveRate*dur.Seconds()))
	interval := time.Second / serveRate
	lr := &loadResult{
		latUs: make([]float64, n), lateUs: make([]float64, n),
		ok: make([]bool, n), agree: make([]bool, n), correct: make([]bool, n),
	}
	if traced {
		lr.dispatchUs, lr.writeUs = make([]float64, n), make([]float64, n)
		lr.wireUs, lr.readUs = make([]float64, n), make([]float64, n)
	}
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns},
		Timeout:   requestTimeout,
	}
	defer client.CloseIdleConnections()
	url := "http://" + addr + "/predict"
	if probe {
		url = "http://" + addr + "/healthz"
	}
	// Sized to every send, so the pacer never waits for a sender.
	released := make(chan int, n)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	ends := make([]time.Time, serveConns)
	for w := range serveConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range released {
				sched := start.Add(time.Duration(i) * interval)
				sent := time.Now()
				j := (first + i) % len(st.bodies)
				ctx := context.Background()
				var wrote, firstByte time.Time
				if traced {
					ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
						WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
						GotFirstResponseByte: func() { firstByte = time.Now() },
					})
				}
				var class int8
				var err error
				if probe {
					err = get(ctx, client, url)
				} else {
					class, err = predict(ctx, client, url, st.bodies[j])
				}
				done := time.Now()
				if err != nil {
					lr.latUs[i] = us(requestTimeout)
					continue
				}
				lr.latUs[i] = us(done.Sub(sched))
				lr.ok[i] = true
				lr.agree[i] = probe || class == st.want[j]
				lr.correct[i] = probe || class == st.labels[j]
				if traced {
					lr.dispatchUs[i] = us(sent.Sub(sched)) - lr.lateUs[i]
					lr.writeUs[i] = us(wrote.Sub(sent))
					lr.wireUs[i] = us(firstByte.Sub(wrote))
					lr.readUs[i] = us(done.Sub(firstByte))
				}
			}
			ends[w] = time.Now()
		}()
	}
	paced := make(chan []time.Duration)
	cpu0 := cpuTime()
	go pace(start, interval, n, lr.lateUs, released, paced)
	marks := <-paced
	close(released)
	wg.Wait()
	cpuEnd := cpuTime()
	last := start
	for _, e := range ends {
		if e.After(last) {
			last = e
		}
	}
	lr.wall, lr.cpu = last.Sub(start), cpuEnd-cpu0
	marks = append(marks, cpuEnd)
	for k := 1; k < len(marks); k++ {
		reqs := min(cpuWindow, n-(k-1)*cpuWindow)
		lr.windowCPUUs = append(lr.windowCPUUs, us(marks[k]-marks[k-1])/float64(reqs))
	}
	return lr
}

// predict posts one /predict body and returns the served class. A
// transport error, a non-200 status or a response without a prediction is
// an error.
func predict(ctx context.Context, client *http.Client, url string, body []byte) (int8, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/predict: %s", resp.Status)
	}
	var out struct {
		Prediction *int8 `json:"prediction"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, err
	}
	if out.Prediction == nil {
		return 0, fmt.Errorf("/predict response without a prediction: %q", raw)
	}
	return *out.Prediction, nil
}

// get sends one GET and requires a 200 response.
func get(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// pace releases request i on the released channel at start + i·interval,
// recording how late each release was, and reads the process CPU time at
// the release of every cpuWindow-th request; it sends those readings on
// done when the last request is released. It runs on its own OS thread
// with the kernel's timer slack at its minimum, and never unlocks the
// thread, so the thread and its setting end with the goroutine.
func pace(start time.Time, interval time.Duration, n int, lateUs []float64, released chan<- int, done chan<- []time.Duration) {
	runtime.LockOSThread()
	// Best effort: where the kernel refuses, the pacer keeps the default
	// 50 us slack and its lateness shows it.
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	var marks []time.Duration
	for i := range n {
		sched := start.Add(time.Duration(i) * interval)
		sleepUntil(sched)
		lateUs[i] = us(time.Since(sched))
		if i%cpuWindow == 0 {
			marks = append(marks, cpuTime())
		}
		released <- i
	}
	done <- marks
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// own timers round sub-millisecond waits up to a millisecond when the
// process is idle, which would make a 500 us schedule run late; a kernel
// sleep keeps the pacer within the kernel's timer slack.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// scrape fetches /metrics and returns every sample by series name.
func scrape(addr string) (map[string]float64, error) {
	resp, err := adminClient.Get("http://" + addr + "/metrics")
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

// serverP50 is the median /predict handler time, recomputed from the delta
// of the server's own latency histogram between two scrapes.
func serverP50(before, after map[string]float64) (float64, error) {
	const prefix = `hamlet_http_request_ns_bucket{endpoint="predict",le="`
	type bucket struct {
		le    float64
		count uint64
	}
	var bs []bucket
	for series, v := range after {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
		if err != nil {
			continue
		}
		if d := v - before[series]; d > 0 {
			bs = append(bs, bucket{le, uint64(d)})
		}
	}
	if len(bs) == 0 {
		return 0, fmt.Errorf("/metrics recorded no /predict latencies")
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	les := make([]float64, len(bs))
	cums := make([]uint64, len(bs))
	for i, b := range bs {
		les[i], cums[i] = b.le, b.count
	}
	return obs.QuantileFromCumulative(les, cums, 0.5) / 1e3, nil
}

// runServe is the serve workload: an ANN(MLP) artifact served over loopback
// HTTP under a fixed-rate open loop.
func runServe(cfg config) (*report, error) {
	rep := newReport()
	scale := 16
	if cfg.tiny {
		scale = 256
	}
	in, err := generate("Flights", scale, cfg.seed)
	if err != nil {
		return nil, err
	}
	ss, err := in.ingest()
	if err != nil {
		return nil, err
	}
	path, st, err := prepareServe(ss, cfg)
	if err != nil {
		return nil, err
	}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	// Set-up is timed in process CPU seconds; its wall time is reported
	// with the traced pass.
	times := phaseTimes{}
	var ls *liveServer
	err = repeatSetup(cfg, func() error {
		w0, c0 := time.Now(), cpuTime()
		m, err := model.Load(path)
		if err != nil {
			return err
		}
		c1 := cpuTime()
		eng, err := serve.NewEngine(m, ss)
		if err != nil {
			return err
		}
		c2 := cpuTime()
		if ls, err = startServer(eng); err != nil {
			return err
		}
		c3, w3 := cpuTime(), time.Now()
		times.add("model.decode_ms", c1-c0)
		times.add("serve.bind_ms", c2-c1)
		times.add("setup_s", c3-c0)
		times.add("wall.setup_s", w3.Sub(w0))
		return nil
	}, func() error {
		err := ls.close()
		ls = nil
		return err
	})
	if ls != nil {
		defer ls.close()
	}
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", median(times["setup_s"]))
	rep.set("wall.setup_s", median(times["wall.setup_s"]))
	rep.set("model.decode_ms", median(times["model.decode_ms"])*1e3)
	rep.set("serve.bind_ms", median(times["serve.bind_ms"])*1e3)
	rep.notef("setup: %d repetitions of load + decode + bind + listen, median %.6f CPU s, %.6f wall s",
		len(times["setup_s"]), rep.metrics["setup_s"], rep.metrics["wall.setup_s"])

	record := func(lr *loadResult) {
		ok, mismatched, _ := lr.counts()
		rep.attempted += len(lr.ok)
		rep.failed += len(lr.ok) - ok
		rep.mismatches += mismatched
	}
	warm := openLoop(ls.addr, st, cfg.duration(0.05), 0, false, false)
	record(warm)

	measured := cfg.duration(1)
	if cfg.trace {
		measured = cfg.duration(0.4)
	}
	var before, after map[string]float64
	var c0 serve.CoalescerStats
	var m0, m1 runtime.MemStats
	if cfg.trace {
		if before, err = scrape(ls.addr); err != nil {
			return nil, err
		}
		c0 = ls.slot.Coalescer().Stats()
		runtime.ReadMemStats(&m0)
	}
	lr := openLoop(ls.addr, st, measured, len(warm.ok), false, false)
	record(lr)
	ok, mismatched, hits := lr.counts()
	if ok == 0 {
		return nil, fmt.Errorf("no request succeeded")
	}
	summarize(lr.windowCPUUs, ok, lr.cpu).set(rep, fmt.Sprintf("one request's share of a %d-request window", cpuWindow))
	wallSummary(rep, lr.latUs, ok, lr.wall)
	rep.set("accuracy", float64(hits)/float64(ok))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", rss)
	rep.notef("open loop: %d req/s over at most %d connections, %d requests, %d failed, %d disagreeing with Engine.Predict",
		serveRate, serveConns, len(lr.ok), len(lr.ok)-ok, mismatched)
	rep.notef("request wall latency from scheduled send (not gated): p50 %.1f us, p99 %.1f us; loadgen lateness p50 %.1f us, p99 %.1f us",
		median(lr.latUs), rankQuantile(lr.latUs, 0.99), median(lr.lateUs), rankQuantile(lr.lateUs, 0.99))
	if !cfg.trace {
		return rep, nil
	}

	runtime.ReadMemStats(&m1)
	c1 := ls.slot.Coalescer().Stats()
	if after, err = scrape(ls.addr); err != nil {
		return nil, err
	}
	n := float64(len(lr.ok))
	rep.set("serve.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n)
	calls := float64(c1.Batches-c0.Batches) + float64(c1.Direct-c0.Direct)
	if calls > 0 {
		rep.set("serve.coalescer_mean_batch", float64(c1.Coalesced-c0.Coalesced+c1.Direct-c0.Direct)/calls)
	}
	p50, err := serverP50(before, after)
	if err != nil {
		return nil, err
	}
	rep.set("serve.server_p50_us", p50)
	rep.set("serve.agreement", float64(ok-mismatched)/float64(ok))
	rep.set("loadgen.late_p99_us", rankQuantile(lr.lateUs, 0.99))
	rep.set("loadgen.inflight_cap", serveConns)

	// The traced half: per-request segments, and the server's own view of
	// the same requests, so the reported layers must account for the
	// request's latency.
	if before, err = scrape(ls.addr); err != nil {
		return nil, err
	}
	traced := openLoop(ls.addr, st, measured, len(warm.ok)+len(lr.ok), true, false)
	record(traced)
	if after, err = scrape(ls.addr); err != nil {
		return nil, err
	}
	key := func(suffix string) string { return `hamlet_http_request_ns_` + suffix + `{endpoint="predict"}` }
	handled := after[key("count")] - before[key("count")]
	handlerNs := after[key("sum")] - before[key("sum")]
	if handled <= 0 {
		return nil, fmt.Errorf("/metrics recorded no traced /predict requests")
	}
	var tracedLat, late, dispatch, write, wire, read []float64
	var sumLat, sumClient float64
	for i := range traced.ok {
		if traced.ok[i] {
			tracedLat = append(tracedLat, traced.latUs[i])
			late = append(late, traced.lateUs[i])
			dispatch = append(dispatch, traced.dispatchUs[i])
			write = append(write, traced.writeUs[i])
			wire = append(wire, traced.wireUs[i])
			read = append(read, traced.readUs[i])
			sumLat += traced.latUs[i]
			sumClient += traced.lateUs[i] + traced.dispatchUs[i] + traced.writeUs[i] + traced.readUs[i]
		}
	}
	// The transport alone: the wire time of /healthz round trips on the
	// same schedule, with no handler work to speak of.
	probe := openLoop(ls.addr, st, cfg.duration(0.1), 0, true, true)
	var loopback []float64
	for i := range probe.ok {
		if probe.ok[i] {
			loopback = append(loopback, probe.wireUs[i])
		}
	}
	if len(loopback) == 0 {
		return nil, fmt.Errorf("no /healthz probe succeeded")
	}
	loopbackMean := mean(loopback)
	rep.set("serve.loopback_us", loopbackMean)
	// The server's handler time covers the traced requests only: the
	// scrapes bracket the traced half.
	unattributed := sumLat - sumClient - handlerNs/1e3 - loopbackMean*float64(len(tracedLat))
	rep.set("unattributed_share", unattributed/sumLat)
	rep.set("tracing_overhead_share", median(traced.windowCPUUs)/median(lr.windowCPUUs)-1)
	rep.set("op_samples", float64(len(traced.windowCPUUs)))
	rep.notef("traced requests, mean us: latency %.1f = client side (lateness, dispatch, write, read) %.1f + server handler %.1f + loopback %.1f + unattributed %.1f",
		mean(tracedLat), sumClient/float64(len(tracedLat)), handlerNs/1e3/handled, loopbackMean,
		unattributed/float64(len(tracedLat)))
	rep.notef("traced requests, p50 us: latency %.1f, lateness %.1f, dispatch %.1f, client write %.1f, wire %.1f (server included), client read %.1f",
		median(tracedLat), median(late), median(dispatch), median(write), median(wire), median(read))

	scoreUs, err := scoreLoop(ls.engine, st, cfg.duration(0.1))
	if err != nil {
		return nil, err
	}
	scoreP50 := median(scoreUs)
	rep.set("serve.score_p50_us", scoreP50)
	rep.set("serve.score_p99_us", rankQuantile(scoreUs, 0.99))
	rep.set("serve.transport_us", median(lr.latUs)-scoreP50)
	rep.notef("in-process Engine.Predict: %d calls", len(scoreUs))
	rep.zeroLayers()
	return rep, nil
}

// prepareServe trains the served ANN(MLP) on JoinAll, saves it, and
// builds the request stream from its test split with the saved artifact's
// in-process predictions. It is input preparation, never timed; the
// training env is closed before it returns.
func prepareServe(ss *relational.StarSchema, cfg config) (string, *stream, error) {
	env, err := core.NewEnv(ss, cfg.seed)
	if err != nil {
		return "", nil, err
	}
	defer env.Close()
	path, err := trainArtifact(env, cfg)
	if err != nil {
		return "", nil, err
	}
	m, err := model.Load(path)
	if err != nil {
		return "", nil, err
	}
	eng, err := serve.NewEngine(m, ss)
	if err != nil {
		return "", nil, err
	}
	st, err := buildStream(eng, env)
	return path, st, err
}

// scoreLoop times in-process Engine.Predict over the request stream for
// about dur and checks every answer against the stream's reference.
func scoreLoop(eng *serve.Engine, st *stream, dur time.Duration) ([]float64, error) {
	var lat []float64
	deadline := time.Now().Add(dur)
	for i := 0; i < len(st.reqs) || time.Now().Before(deadline); i++ {
		j := i % len(st.reqs)
		t0 := time.Now()
		p, err := eng.Predict(st.reqs[j])
		lat = append(lat, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		if p.Class != st.want[j] {
			return nil, fmt.Errorf("Engine.Predict is not deterministic on request %d", j)
		}
	}
	return lat, nil
}

// trainArtifact trains the served ANN(MLP) on JoinAll and saves it; this is
// input preparation, never timed.
func trainArtifact(env *core.Env, cfg config) (string, error) {
	train, val, _, err := env.ViewSplits(ml.JoinAll, nil)
	if err != nil {
		return "", err
	}
	spec := core.ANNSpec(core.EffortFast)
	cls, _, _, err := spec.Train(train, val, cfg.seed)
	if err != nil {
		return "", err
	}
	m, err := model.New(cls, train.Features, map[string]string{core.MetaSpec: spec.Name})
	if err != nil {
		return "", err
	}
	path := filepath.Join(cfg.workDir, "ann.model")
	return path, model.Save(path, m)
}
