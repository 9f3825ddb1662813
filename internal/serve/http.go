package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/relational"
)

// Server is the HTTP front end over a model Registry:
//
//	POST /predict        {"input": {"Home0": 1, "FK_Users": 3, ...}}
//	POST /predict_batch  {"inputs": [{...}, {...}, ...]}
//	GET  /models
//	POST /swap           {"model": "default", "path": "artifact.json"}
//	                     {"model": "default", "version": 2}
//	GET  /healthz
//	GET  /stats
//
// Inputs are JSON objects mapping input feature names (see
// Engine.InputFeatures) to integer category codes. Responses carry the
// predicted class, and the decision score where the model exposes one. Query
// parameters: "model" selects a registry slot (default: the first
// registered), "mode" ("factorized" or "joined") forces a scoring path for
// A/B checks.
//
// Every request resolves its slot's Snapshot exactly once and scores
// entirely against it, so a concurrent /swap never mixes model versions
// inside one response. Single predicts are scored by the snapshot's
// Engine.Predict; steady-state handling reuses pooled scratch (request
// vectors, decode maps, response buffers) so the serving tier itself
// allocates almost nothing on top of the score.
type Server struct {
	reg      *Registry
	maxBody  int64
	maxBatch int
	start    time.Time

	// gate is the bounded in-flight admission semaphore for the predict
	// endpoints: acquire is a non-blocking channel send, so a full server
	// sheds with 429 + Retry-After instead of queueing without bound. Nil
	// means unlimited.
	gate chan struct{}
	// chaosEvery > 0 panics every Nth admitted predict request — the CI
	// chaos job's way of proving the recovery middleware turns handler
	// panics into structured 500s under load.
	chaosEvery int64
	chaosTick  atomic.Int64

	examples atomic.Int64
	batchMax atomic.Int64
	mux      *http.ServeMux
	root     http.Handler
	scratch  sync.Pool
	m        *Metrics
}

// ServerConfig bounds the HTTP surface.
type ServerConfig struct {
	// MaxBodyBytes caps any request body; larger bodies get 413.
	MaxBodyBytes int64
	// MaxBatchLen caps /predict_batch input count; longer batches get 413
	// as soon as the limit is crossed mid-stream.
	MaxBatchLen int
	// MaxInflight bounds concurrently admitted /predict + /predict_batch
	// requests; excess load sheds with 429 + Retry-After. 0 means the
	// default (1024); negative disables admission control.
	MaxInflight int
	// ChaosPanicEvery, when positive, panics every Nth admitted predict
	// request. Test/CI only — it proves panic recovery under load.
	ChaosPanicEvery int
}

// DefaultMaxInflight bounds admitted predict requests when MaxInflight is 0.
const DefaultMaxInflight = 1024

// DefaultServerConfig allows bodies to 8 MiB, batches to 4096 inputs, and
// 1024 in-flight predict requests.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{MaxBodyBytes: 8 << 20, MaxBatchLen: 4096, MaxInflight: DefaultMaxInflight}
}

// hscratch is one request's pooled working set.
type hscratch struct {
	body  []byte
	obj   map[string]int32
	req   []relational.Value
	out   []byte
	reqs  [][]relational.Value
	flat  []relational.Value
	preds []Prediction
}

// NewServer wraps a single engine in a fresh registry (slot "default") with
// default limits — the one-artifact deployment cmd/hamletd boots into.
func NewServer(e *Engine) *Server {
	reg := NewRegistry()
	if _, err := reg.Register("default", e); err != nil {
		panic(err) // fresh registry; unreachable
	}
	return NewRegistryServer(reg, DefaultServerConfig())
}

// NewRegistryServer builds the HTTP front end over an existing registry.
func NewRegistryServer(reg *Registry, cfg ServerConfig) *Server {
	def := DefaultServerConfig()
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = def.MaxBodyBytes
	}
	if cfg.MaxBatchLen <= 0 {
		cfg.MaxBatchLen = def.MaxBatchLen
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	s := &Server{
		reg:        reg,
		maxBody:    cfg.MaxBodyBytes,
		maxBatch:   cfg.MaxBatchLen,
		chaosEvery: int64(cfg.ChaosPanicEvery),
		start:      time.Now(),
		m:          reg.Metrics(),
	}
	if cfg.MaxInflight > 0 {
		s.gate = make(chan struct{}, cfg.MaxInflight)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/predict", s.admit(s.handlePredict))
	s.mux.HandleFunc("/predict_batch", s.admit(s.handlePredictBatch))
	s.mux.HandleFunc("/models", s.handleModels)
	s.mux.HandleFunc("/swap", s.handleSwap)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.root = s.withRecovery(s.mux)
	return s
}

// admit wraps a predict handler in the bounded in-flight admission gate.
// Acquire is a non-blocking send into a buffered channel: when the server
// is already running MaxInflight predict requests, the excess request is
// shed immediately with 429 + Retry-After instead of joining an unbounded
// queue — under overload, fast rejection keeps the admitted requests' tail
// latency sane and gives clients an honest backpressure signal to retry on.
// The chaos hook panics inside the gated region, so recovery provably
// releases the slot (the load smoke would deadlock within seconds if not).
func (s *Server) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.gate != nil {
			select {
			case s.gate <- struct{}{}:
				defer func() { <-s.gate }()
			default:
				s.m.shed.Inc()
				w.Header().Set("Retry-After", "1")
				s.fail(w, nil, http.StatusTooManyRequests,
					"server at capacity (%d requests in flight)", cap(s.gate))
				return
			}
		}
		if s.chaosEvery > 0 && s.chaosTick.Add(1)%s.chaosEvery == 0 {
			panic(fmt.Sprintf("chaos: injected handler panic (request %d)", s.chaosTick.Load()))
		}
		h(w, r)
	}
}

// withRecovery is the outermost middleware: a panicking handler becomes a
// structured 500 instead of a killed connection, and the panic is counted.
// http.ErrAbortHandler keeps its net/http meaning (abort silently).
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.m.panics.Inc()
			// Best effort: if the handler already wrote a header this is a
			// no-op body append; panics virtually always fire before that.
			s.fail(w, nil, http.StatusInternalServerError, "internal error: %v", rec)
		}()
		next.ServeHTTP(w, r)
	})
}

// Handler returns the root handler (mountable under httptest or net/http):
// the mux wrapped in panic recovery, with admission control on the predict
// endpoints.
func (s *Server) Handler() http.Handler { return s.root }

// Registry returns the served registry.
func (s *Server) Registry() *Registry { return s.reg }

// ErrShed reports a request rejected by the admission gate on the
// in-process Predict path (the HTTP path renders it as 429 + Retry-After).
var ErrShed = errors.New("serve: server at capacity")

// Predict scores one request through the hardened in-process path: the same
// admission gate and panic-to-error recovery the HTTP predict handlers run
// behind, then the slot's live Engine.Predict, without HTTP parsing. It is
// the entry the hardened zero-alloc benchmark drives — the gate and the
// recovery must add no allocations over Engine.Predict.
func (s *Server) Predict(slot *Slot, req []relational.Value) (p Prediction, err error) {
	if s.gate != nil {
		select {
		case s.gate <- struct{}{}:
		default:
			s.m.shed.Inc()
			return Prediction{}, ErrShed
		}
	}
	defer func() {
		if s.gate != nil {
			<-s.gate
		}
		if rec := recover(); rec != nil {
			s.m.panics.Inc()
			err = fmt.Errorf("serve: recovered panic: %v", rec)
		}
	}()
	return slot.Predict(req)
}

// Engine returns the default slot's live engine.
func (s *Server) Engine() *Engine {
	slot, ok := s.reg.Slot("")
	if !ok {
		return nil
	}
	return slot.Snapshot().Engine
}

func (s *Server) getScratch() *hscratch {
	if sc, ok := s.scratch.Get().(*hscratch); ok {
		return sc
	}
	return &hscratch{obj: make(map[string]int32, 16)}
}

func (s *Server) putScratch(sc *hscratch) {
	for i := range sc.reqs {
		sc.reqs[i] = nil
	}
	sc.reqs = sc.reqs[:0]
	s.scratch.Put(sc)
}

func (s *Server) fail(w http.ResponseWriter, sc *hscratch, code int, format string, args ...any) {
	s.m.errCounter(code).Inc()
	var buf []byte
	if sc != nil {
		buf = sc.out[:0]
	}
	buf = append(buf, `{"error":`...)
	buf = appendJSONString(buf, fmt.Sprintf(format, args...))
	buf = append(buf, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf)
	if sc != nil {
		sc.out = buf
	}
}

// readBody drains the request body into the pooled buffer, bounded by the
// server's body cap. A body over the cap reports 413 via *MaxBytesError.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *hscratch) ([]byte, error) {
	lr := http.MaxBytesReader(w, r.Body, s.maxBody)
	defer lr.Close()
	buf := sc.body[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.body = buf
			return buf, nil
		}
		if err != nil {
			sc.body = buf
			return nil, err
		}
	}
}

// failRead maps body-read errors: over-cap bodies are 413, the rest 400.
func (s *Server) failRead(w http.ResponseWriter, sc *hscratch, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.fail(w, sc, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	s.fail(w, sc, http.StatusBadRequest, "reading body: %v", err)
}

// resolve picks the request's snapshot and whether it is scored factorized
// (false under a forced joined mode). Everything downstream uses the
// snapshot, never the slot's current.
func (s *Server) resolve(r *http.Request) (*Snapshot, bool, error) {
	q := r.URL.Query()
	slot, ok := s.reg.Slot(q.Get("model"))
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownModel, q.Get("model"))
	}
	snap := slot.Snapshot()
	e := snap.Engine
	switch m := q.Get("mode"); m {
	case "":
		return snap, e.Factorized(), nil
	case "factorized":
		if !e.Factorized() {
			return nil, false, fmt.Errorf("model kind %q has no factorized form", e.Model().Kind)
		}
		return snap, true, nil
	case "joined":
		return snap, false, nil
	default:
		return nil, false, fmt.Errorf("unknown mode %q (want factorized or joined)", m)
	}
}

// parseRequestInto converts a name→code object into the engine's positional
// request layout, requiring exactly the engine's inputs (unknown names are
// rejected rather than ignored — a misspelled feature must not silently
// score as zero). Domain validation is left to the engine's entry points,
// which all validate before scoring.
func parseRequestInto(e *Engine, dst []relational.Value, obj map[string]int32) ([]relational.Value, error) {
	n := len(e.InputFeatures())
	if cap(dst) < n {
		dst = make([]relational.Value, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	seen := 0
	for name, v := range obj {
		i, ok := e.InputIndex(name)
		if !ok {
			return dst, fmt.Errorf("unknown input feature %q", name)
		}
		dst[i] = v
		seen++
	}
	if seen != n {
		for _, f := range e.InputFeatures() {
			if _, ok := obj[f.Name]; !ok {
				return dst, fmt.Errorf("missing input feature %q", f.Name)
			}
		}
	}
	return dst, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// Phase timing happens here, at µs handler granularity — four clock
	// reads and a few atomic adds per request, never inside the ~16ns
	// factorized score. Error returns skip the latency histograms; they are
	// counted by code in fail().
	t0 := time.Now()
	s.m.reqPredict.Inc()
	sc := s.getScratch()
	defer s.putScratch(sc)
	if r.Method != http.MethodPost {
		s.fail(w, sc, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := s.readBody(w, r, sc)
	if err != nil {
		s.failRead(w, sc, err)
		return
	}
	clear(sc.obj)
	wrap := struct {
		Input map[string]int32 `json:"input"`
	}{Input: sc.obj}
	if err := json.Unmarshal(body, &wrap); err != nil {
		s.fail(w, sc, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	snap, factorized, err := s.resolve(r)
	if err != nil {
		s.failResolve(w, sc, err)
		return
	}
	sc.req, err = parseRequestInto(snap.Engine, sc.req, wrap.Input)
	if err != nil {
		s.fail(w, sc, http.StatusBadRequest, "%v", err)
		return
	}
	tDec := time.Now()
	var p Prediction
	if factorized == snap.Engine.Factorized() {
		p, err = snap.Engine.Predict(sc.req)
	} else {
		// Forced joined mode on a linear engine really exercises the gather
		// path.
		p, err = snap.Engine.PredictJoined(sc.req)
	}
	if err != nil {
		s.fail(w, sc, http.StatusBadRequest, "%v", err)
		return
	}
	tScore := time.Now()
	s.examples.Add(1)
	sc.out = appendPredictResponse(sc.out[:0], p, factorized)
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.out)
	end := time.Now()
	s.m.predictDecode.Observe(int64(tDec.Sub(t0)))
	s.m.predictScore.Observe(int64(tScore.Sub(tDec)))
	s.m.predictEncode.Observe(int64(end.Sub(tScore)))
	s.m.predictTotal.Observe(int64(end.Sub(t0)))
}

// failResolve maps slot/mode resolution errors: unknown slots are 404, bad
// modes 400.
func (s *Server) failResolve(w http.ResponseWriter, sc *hscratch, err error) {
	if errors.Is(err, ErrUnknownModel) {
		s.fail(w, sc, http.StatusNotFound, "%v", err)
		return
	}
	s.fail(w, sc, http.StatusBadRequest, "%v", err)
}

// decodeBatch stream-decodes {"inputs": [...]} from dec, converting each
// object through the engine's layout as it arrives — the batch is bounded by
// maxBatch and rejected the moment it crosses the cap, not after buffering
// an arbitrarily long array. Returns (reqs, http status, error).
func (s *Server) decodeBatch(dec *json.Decoder, e *Engine, sc *hscratch) ([][]relational.Value, int, error) {
	expect := func(want json.Delim) error {
		t, err := dec.Token()
		if err != nil {
			return fmt.Errorf("bad JSON: %v", err)
		}
		if d, ok := t.(json.Delim); !ok || d != want {
			return fmt.Errorf("bad JSON: expected %q, got %v", want.String(), t)
		}
		return nil
	}
	if err := expect('{'); err != nil {
		return nil, http.StatusBadRequest, err
	}
	reqs := sc.reqs[:0]
	n := len(e.InputFeatures())
	seenInputs := false
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err)
		}
		key, ok := t.(string)
		if !ok {
			return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: non-string key %v", t)
		}
		if key != "inputs" {
			// Skip unknown top-level fields wholesale, like encoding/json's
			// object decoding does.
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err)
			}
			continue
		}
		seenInputs = true
		if err := expect('['); err != nil {
			return nil, http.StatusBadRequest, err
		}
		for dec.More() {
			if len(reqs) >= s.maxBatch {
				return nil, http.StatusRequestEntityTooLarge,
					fmt.Errorf("batch exceeds %d inputs", s.maxBatch)
			}
			clear(sc.obj)
			obj := sc.obj
			if err := dec.Decode(&obj); err != nil {
				return nil, http.StatusBadRequest, fmt.Errorf("input %d: bad JSON: %v", len(reqs), err)
			}
			// Requests are carved out of one flat backing array, appended
			// per batch and reused across batches.
			if len(sc.flat) < (len(reqs)+1)*n {
				sc.flat = append(sc.flat, make([]relational.Value, n)...)
			}
			req := sc.flat[len(reqs)*n : (len(reqs)+1)*n]
			req, err := parseRequestInto(e, req, obj)
			if err != nil {
				return nil, http.StatusBadRequest, fmt.Errorf("input %d: %v", len(reqs), err)
			}
			reqs = append(reqs, req)
		}
		if err := expect(']'); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	if err := expect('}'); err != nil {
		return nil, http.StatusBadRequest, err
	}
	sc.reqs = reqs
	if !seenInputs || len(reqs) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("empty batch")
	}
	return reqs, 0, nil
}

func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.m.reqBatch.Inc()
	sc := s.getScratch()
	defer s.putScratch(sc)
	if r.Method != http.MethodPost {
		s.fail(w, sc, http.StatusMethodNotAllowed, "POST required")
		return
	}
	snap, factorized, err := s.resolve(r)
	if err != nil {
		s.failResolve(w, sc, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	defer body.Close()
	dec := json.NewDecoder(body)
	reqs, code, err := s.decodeBatch(dec, snap.Engine, sc)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.fail(w, sc, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		s.fail(w, sc, code, "%v", err)
		return
	}
	tDec := time.Now()
	var preds []Prediction
	if factorized == snap.Engine.Factorized() {
		preds, err = snap.Engine.PredictBatch(reqs)
	} else {
		// Forced joined mode on a linear engine: score sequentially through
		// the gather path so the A/B comparison really exercises it.
		preds = make([]Prediction, len(reqs))
		for i, req := range reqs {
			preds[i], err = snap.Engine.PredictJoined(req)
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		s.fail(w, sc, http.StatusBadRequest, "%v", err)
		return
	}
	tScore := time.Now()
	s.examples.Add(int64(len(preds)))
	for n := int64(len(preds)); ; {
		cur := s.batchMax.Load()
		if n <= cur || s.batchMax.CompareAndSwap(cur, n) {
			break
		}
	}
	s.m.batchMax.Set(s.batchMax.Load())
	sc.out = appendBatchResponse(sc.out[:0], preds, factorized)
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.out)
	end := time.Now()
	s.m.batchDecode.Observe(int64(tDec.Sub(t0)))
	s.m.batchScore.Observe(int64(tScore.Sub(tDec)))
	s.m.batchEncode.Observe(int64(end.Sub(tScore)))
	s.m.batchTotal.Observe(int64(end.Sub(t0)))
}

// predictResponse documents /predict's wire shape; the hot path encodes it
// field-for-field via appendPredictResponse rather than reflection.
type predictResponse struct {
	Prediction int8     `json:"prediction"`
	Score      *float64 `json:"score,omitempty"`
	Mode       string   `json:"mode"`
}

// batchResponse documents /predict_batch's wire shape; encoded by
// appendBatchResponse.
type batchResponse struct {
	Predictions []int8    `json:"predictions"`
	Scores      []float64 `json:"scores,omitempty"`
	N           int       `json:"n"`
	Mode        string    `json:"mode"`
}

// modelInfo is one slot's /models entry.
type modelInfo struct {
	Name       string      `json:"name"`
	Version    int         `json:"version"`
	Kind       string      `json:"kind"`
	Factorized bool        `json:"factorized"`
	Inputs     []inputInfo `json:"inputs"`
	Versions   []int       `json:"versions"`
	Swapped    time.Time   `json:"swapped"`
}

type inputInfo struct {
	Name        string `json:"name"`
	Cardinality int    `json:"cardinality"`
	IsFK        bool   `json:"is_fk,omitempty"`
	Dim         string `json:"dim,omitempty"`
	Aux         bool   `json:"aux,omitempty"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, nil, http.StatusMethodNotAllowed, "GET required")
		return
	}
	slots := s.reg.Slots()
	infos := make([]modelInfo, 0, len(slots))
	for _, slot := range slots {
		snap := slot.Snapshot()
		e := snap.Engine
		mi := modelInfo{
			Name:       slot.Name(),
			Version:    snap.Version,
			Kind:       e.Model().Kind,
			Factorized: e.Factorized(),
			Swapped:    snap.Swapped,
		}
		for _, f := range e.InputFeatures() {
			mi.Inputs = append(mi.Inputs, inputInfo{
				Name: f.Name, Cardinality: f.Cardinality,
				IsFK: f.IsFK, Dim: f.Dim, Aux: f.Aux,
			})
		}
		for _, h := range slot.Versions() {
			mi.Versions = append(mi.Versions, h.Version)
		}
		infos = append(infos, mi)
	}
	writeJSON(w, map[string]any{"models": infos})
}

// handleSwap hot-swaps a slot to a new artifact ({"model", "path"}) or rolls
// it back to a retained version ({"model", "version"}). The model name may
// be empty for the default slot. Swap and rollback are admin operations —
// cold path, plain encoding/json.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, nil, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var body struct {
		Model   string `json:"model"`
		Path    string `json:"path"`
		Version *int   `json:"version"`
	}
	lr := http.MaxBytesReader(w, r.Body, s.maxBody)
	defer lr.Close()
	if err := json.NewDecoder(lr).Decode(&body); err != nil {
		s.fail(w, nil, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	var (
		snap *Snapshot
		err  error
	)
	switch {
	case body.Path != "" && body.Version != nil:
		s.fail(w, nil, http.StatusBadRequest, "path and version are mutually exclusive")
		return
	case body.Path != "":
		var m *model.Model
		m, err = model.Load(body.Path)
		if err != nil {
			s.fail(w, nil, http.StatusBadRequest, "loading artifact: %v", err)
			return
		}
		snap, err = s.reg.Swap(body.Model, m)
	case body.Version != nil:
		snap, err = s.reg.Rollback(body.Model, *body.Version)
	default:
		s.fail(w, nil, http.StatusBadRequest, "need path (swap) or version (rollback)")
		return
	}
	if err != nil {
		var sme *model.SchemaMismatchError
		switch {
		case errors.Is(err, ErrUnknownModel) || errors.Is(err, ErrUnknownVersion):
			s.fail(w, nil, http.StatusNotFound, "%v", err)
		case errors.As(err, &sme):
			s.fail(w, nil, http.StatusConflict, "%v", err)
		default:
			s.fail(w, nil, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, map[string]any{
		"model":      snap.Name,
		"version":    snap.Version,
		"kind":       snap.Engine.Model().Kind,
		"factorized": snap.Engine.Factorized(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e := s.Engine()
	slot, _ := s.reg.Slot("")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	history := map[string][]int{}
	for _, sl := range s.reg.Slots() {
		var versions []int
		for _, h := range sl.Versions() {
			versions = append(versions, h.Version)
		}
		history[sl.Name()] = versions
	}
	// The robustness and segment-cache blocks read the same obs counters the
	// Prometheus exposition renders, so /stats and /metrics cannot disagree.
	writeJSON(w, map[string]any{
		"model":       e.Model().Kind,
		"version":     slot.Snapshot().Version,
		"fingerprint": e.Model().Fingerprint().String(),
		"factorized":  e.Factorized(),
		"dimensions":  e.NumDimensions(),
		"inputs":      len(e.InputFeatures()),
		"requests":    s.m.requestsTotal(),
		"examples":    s.examples.Load(),
		"errors":      s.m.errorsTotal(),
		"batch_max":   s.batchMax.Load(),
		"uptime_ms":   time.Since(s.start).Milliseconds(),
		"mallocs":     ms.Mallocs,
		"meta":        e.Model().Meta,
		"history":     history,
		"swaps":       s.m.swaps.Value(),
		"rollbacks":   s.m.rollbacks.Value(),
		"robustness": map[string]uint64{
			"requests_shed":       s.m.shed.Value(),
			"panics_recovered":    s.m.panics.Value(),
			"corruption_detected": relational.StorageCorruptionDetected.Value(),
		},
		"segcache": map[string]uint64{
			"hits":          relational.SegCacheHits.Value(),
			"misses":        relational.SegCacheMisses.Value(),
			"evictions":     relational.SegCacheEvictions.Value(),
			"faulted_bytes": relational.SegCacheFaultedBytes.Value(),
		},
	})
}

// handleMetrics renders the Prometheus text exposition: the registry's
// serving metrics (per-endpoint latency, robustness, registry transitions)
// followed by the process-wide obs.Default (segment cache, training-phase
// spans). One scrape covers all three layers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.fail(w, nil, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.m.Obs.WritePrometheus(w); err != nil {
		return
	}
	obs.Default.WritePrometheus(w)
}
