// Command hamletd is the online inference server: it loads a model artifact
// trained by `hamlet -train`, regenerates the star schema the model was
// trained on (dimension tables are what factorized serving precomputes
// against), and serves predictions over HTTP without ever materializing the
// KFK join.
//
// Usage:
//
//	hamlet  -train -dataset Movies -spec "NaiveBayes(BFS)" -model m.bin
//	hamletd -model m.bin [-addr 127.0.0.1:8080]
//
// Dataset, scale, and seed default from the artifact's metadata, so a
// hamlet-trained model serves with no further flags; pass -dataset/-scale/
// -seed to override. -addr accepts port 0 for an OS-assigned port (the
// bound address is printed on startup).
//
// Endpoints: POST /predict, POST /predict_batch, GET /models, POST /swap,
// GET /healthz, GET /stats, GET /metrics (Prometheus text exposition covering
// serving, segment cache, and training spans; -pprof additionally mounts
// net/http/pprof under /debug/pprof/). The artifact boots into registry slot
// "default";
// POST /swap {"model":"default","path":"new.bin"} hot-swaps it under live
// traffic (in-flight requests finish against their version) and
// {"model":"default","version":N} rolls back. Linear-family models
// (Naive Bayes, logistic regression, linear SVM) are served factorized — one
// precomputed partial-score lookup per dimension table per request; others
// fall back to per-request gather through the join view. Every request,
// single or batched, gets exactly the answer Engine.Predict gives. A
// ?mode=factorized|joined query parameter pins the path for A/B comparisons.
//
// The daemon exits non-zero when the listen address cannot be bound, and
// drains in-flight connections for up to -drain on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hamletd:", err)
		os.Exit(1)
	}
}

// daemon is a built-but-unbound server: everything except the socket.
// handler is what actually serves — srv.Handler(), optionally wrapped with
// the pprof mux when -pprof is set.
type daemon struct {
	srv     *serve.Server
	handler http.Handler
	addr    string
	drain   time.Duration

	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
}

// run binds the socket and serves until the context is cancelled, then
// drains connections for up to the -drain timeout before returning.
func run(ctx context.Context, args []string, out *os.File) error {
	d, err := build(args, out)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", d.addr)
	if err != nil {
		return fmt.Errorf("bind %s: %w", d.addr, err)
	}
	fmt.Fprintf(out, "hamletd listening on %s\n", ln.Addr())
	// Server-side timeouts are load-shedding, not politeness: without a
	// ReadHeaderTimeout a slowloris client holds a connection (and its
	// handler goroutine budget) forever, and without a WriteTimeout a dead
	// reader pins response buffers. Defaults are set in build(), flag-tunable.
	hs := &http.Server{
		Handler:           d.handler,
		ReadTimeout:       d.readTimeout,
		ReadHeaderTimeout: d.readHeaderTimeout,
		WriteTimeout:      d.writeTimeout,
		IdleTimeout:       d.idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "hamletd: shutting down, draining for up to %s\n", d.drain)
	sctx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		hs.Close()
		return fmt.Errorf("drain: %w", err)
	}
	<-errc // Serve has returned ErrServerClosed
	return nil
}

// build parses flags, loads the artifact, regenerates the star schema, and
// assembles the HTTP server — everything except binding the socket, so
// tests can drive the handler without a real listener.
func build(args []string, out *os.File) (*daemon, error) {
	fs := flag.NewFlagSet("hamletd", flag.ContinueOnError)
	modelPath := fs.String("model", "", "model artifact path (required; train with hamlet -train)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 for an OS-assigned port)")
	datasetName := fs.String("dataset", "", "dataset name (default: artifact metadata)")
	scale := fs.Int("scale", 0, "dataset scale divisor (default: artifact metadata)")
	seed := fs.Uint64("seed", 0, "dataset generation seed (default: artifact metadata)")
	drain := fs.Duration("drain", 5*time.Second, "connection drain timeout on shutdown")
	maxBody := fs.Int64("max-body", serve.DefaultServerConfig().MaxBodyBytes,
		"max request body bytes (oversized requests get 413)")
	maxBatch := fs.Int("max-batch", serve.DefaultServerConfig().MaxBatchLen,
		"max /predict_batch inputs per request (longer batches get 413)")
	maxInflight := fs.Int("max-inflight", serve.DefaultMaxInflight,
		"max concurrently admitted predict requests; excess sheds with 429 (-1 = unlimited)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second,
		"max time to read a full request including body (0 = unlimited)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second,
		"max time to read request headers — the slowloris guard (0 = read-timeout)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second,
		"max time to write a response (0 = unlimited)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second,
		"keep-alive idle connection timeout (0 = read-timeout)")
	chaosPanicEvery := fs.Int("chaos-panic-every", 0,
		"panic on every Nth predict request (chaos testing only; 0 = off)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *modelPath == "" {
		return nil, fmt.Errorf("-model <path> is required")
	}
	m, err := model.Load(*modelPath)
	if err != nil {
		return nil, err
	}

	name := *datasetName
	if name == "" {
		name = m.Meta[core.MetaDataset]
		if name == "" {
			return nil, fmt.Errorf("artifact has no dataset metadata; pass -dataset")
		}
	}
	sc := *scale
	if !explicit["scale"] {
		sc = 64
		if s := m.Meta[core.MetaScale]; s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				sc = v
			}
		}
	}
	sd := *seed
	if !explicit["seed"] {
		sd = 1
		if s := m.Meta[core.MetaSeed]; s != "" {
			if v, err := strconv.ParseUint(s, 10, 64); err == nil {
				sd = v
			}
		}
	}

	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	ss, err := dataset.Generate(spec, sc, sd)
	if err != nil {
		return nil, err
	}
	engine, err := serve.NewEngine(m, ss)
	if err != nil {
		return nil, err
	}
	reg := serve.NewRegistry()
	if _, err := reg.Register("default", engine); err != nil {
		return nil, err
	}
	mode := "joined (gather fallback)"
	if engine.Factorized() {
		mode = "factorized (per-dimension partial scores)"
	}
	fmt.Fprintf(out, "hamletd: serving %s (%s) on %s scale %d seed %d — %s, %d inputs, %d dimensions\n",
		m.Kind, m.Fingerprint().Short(), name, sc, sd, mode, len(engine.InputFeatures()), engine.NumDimensions())
	srv := serve.NewRegistryServer(reg, serve.ServerConfig{
		MaxBodyBytes:    *maxBody,
		MaxBatchLen:     *maxBatch,
		MaxInflight:     *maxInflight,
		ChaosPanicEvery: *chaosPanicEvery,
	})
	if *chaosPanicEvery > 0 {
		fmt.Fprintf(out, "hamletd: CHAOS MODE — panicking on every %d-th predict request\n", *chaosPanicEvery)
	}
	var handler http.Handler = srv.Handler()
	if *pprofOn {
		// The profiling surface is opt-in: a production scrape target should
		// not expose heap dumps and CPU profiles by default. Handlers are
		// mounted explicitly rather than via the package's DefaultServeMux
		// side effect, which this daemon never serves.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintln(out, "hamletd: pprof enabled at /debug/pprof/")
	}
	return &daemon{
		srv: srv, handler: handler, addr: *addr, drain: *drain,
		readTimeout:       *readTimeout,
		readHeaderTimeout: *readHeaderTimeout,
		writeTimeout:      *writeTimeout,
		idleTimeout:       *idleTimeout,
	}, nil
}
