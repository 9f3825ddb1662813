package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
)

// CoalescerConfig tunes the adaptive request coalescer.
type CoalescerConfig struct {
	// MaxBatch caps how many concurrent requests one flush scores; a batch
	// that fills flushes immediately without waiting for the window.
	MaxBatch int
	// Window is the maximum time the first request of a batch waits for
	// company before the batch flushes anyway. Window <= 0 disables
	// coalescing entirely: every request takes the direct path.
	Window time.Duration
}

// DefaultCoalescerConfig is the serving default: a window two orders of
// magnitude below a human-visible latency budget but long enough for a busy
// listener to accumulate tens of requests, and a batch cap matching the
// engine's morsel size.
func DefaultCoalescerConfig() CoalescerConfig {
	return CoalescerConfig{MaxBatch: 64, Window: 50 * time.Microsecond}
}

// cbatch is one micro-batch under construction, pinned to the Snapshot its
// first request scored against — the invariant that keeps coalesced serving
// hot-swap consistent: a request is only ever scored by the exact engine its
// caller resolved.
//
// The handoff is a single broadcast: the flusher writes preds/err and closes
// done once; every waiter wakes, reads its own slot by index, and the last
// reader (readers hits zero) recycles the batch. This replaces a per-call
// result channel — under a full 64-request batch that design made the flusher
// perform 64 serialized channel sends, which dominated the coalescer's
// per-request overhead.
type cbatch struct {
	snap    *Snapshot
	done    chan struct{}
	reqs    [][]relational.Value
	preds   []Prediction
	err     error
	readers atomic.Int32
	timer   *time.Timer
	opened  time.Time // when the batch was opened; flush observes the residency
	bs      batchScratch
}

// Coalescer micro-batches concurrent Predict calls into one
// Engine.predictBatchInto flush — the serving analogue of batched training
// kernels. Amortization only pays when the per-request score is expensive
// (Engine.BatchServeable); cheap factorized-linear scores and lone requests
// fall through to the direct path so the unloaded p50 never regresses.
//
// Mechanics: the first request under load opens a batch and arms a
// per-batch timer; followers append until MaxBatch fills the batch (the
// filler flushes, stopping the timer) or the window expires (the timer
// goroutine flushes). Every waiter blocks on the batch's done channel, which
// on a loaded machine is exactly what lets the other request goroutines run
// and fill the batch. A request that fails validation is rejected before it
// can join a batch, so one malformed request can never poison its neighbors.
//
// Load detection is adaptive. A request batches whenever overlap is
// observable — another call is mid-flight or a batch is already open — but
// on a saturated single core overlap never shows: each non-blocking direct
// call runs to completion before the next goroutine is scheduled, so
// everyone looks alone and coalescing would never ignite. So after probeAt
// consecutive direct calls the next one probes: it opens a batch and waits
// the window. Under real concurrent load the probe's block frees the core,
// the other request goroutines run into the open batch, and batching becomes
// self-sustaining (every waiter's block admits the next). A truly sequential
// client just times the probe out alone, and probeAt doubles — the wasted
// windows decay geometrically, so a scalar caller's amortized cost tends
// to zero.
type Coalescer struct {
	cfg CoalescerConfig

	mu       sync.Mutex
	cur      *cbatch
	streak   int // consecutive direct calls since the last batch
	probeAt  int // direct-streak length that triggers the next probe
	inflight atomic.Int64

	batchPool sync.Pool

	// Monotonic counters for /stats: flushed batches, requests scored
	// through a batch, and requests served on the direct path.
	batches   atomic.Uint64
	coalesced atomic.Uint64
	direct    atomic.Uint64

	// m carries the owning registry's telemetry (batch-fill and residency
	// histograms, flush-reason counters). Nil for a bare NewCoalescer — the
	// flush path guards once per batch, never per request.
	m *Metrics
}

// minProbeStreak is the direct-call streak before the first batching probe;
// maxProbeStreak caps the back-off so a long-idle coalescer still re-probes.
const (
	minProbeStreak = 64
	maxProbeStreak = 8192
)

// NewCoalescer builds a coalescer; zero or negative MaxBatch falls back to
// the default cap.
func NewCoalescer(cfg CoalescerConfig) *Coalescer {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultCoalescerConfig().MaxBatch
	}
	return &Coalescer{cfg: cfg, probeAt: minProbeStreak}
}

// CoalescerStats is a point-in-time counter snapshot.
type CoalescerStats struct {
	Batches   uint64 `json:"batches"`
	Coalesced uint64 `json:"coalesced"`
	Direct    uint64 `json:"direct"`
}

// Stats returns the counters accumulated since construction.
func (c *Coalescer) Stats() CoalescerStats {
	return CoalescerStats{
		Batches:   c.batches.Load(),
		Coalesced: c.coalesced.Load(),
		Direct:    c.direct.Load(),
	}
}

// newBatch opens a batch pinned to snap and arms its flush timer. The timer
// closure captures the batch itself, so a stale fire (the batch already
// flushed by its filler) is detected by identity in flushExpired and
// becomes a no-op — no generation counters needed.
func (c *Coalescer) newBatch(snap *Snapshot) *cbatch {
	b, ok := c.batchPool.Get().(*cbatch)
	if !ok {
		b = &cbatch{}
	}
	b.snap = snap
	b.done = make(chan struct{})
	b.opened = time.Now()
	b.timer = time.AfterFunc(c.cfg.Window, func() { c.flushExpired(b) })
	return b
}

// putBatch recycles a flushed batch. Only the last reader calls it (readers
// reached zero), so no waiter can still be reading preds. reqs are cleared so
// the pool never retains caller request slices.
func (c *Coalescer) putBatch(b *cbatch) {
	b.snap = nil
	b.done = nil
	b.err = nil
	b.timer = nil
	for i := range b.reqs {
		b.reqs[i] = nil
	}
	b.reqs = b.reqs[:0]
	c.batchPool.Put(b)
}

// Predict scores one request against snap, micro-batching with concurrent
// callers when that pays. Validation errors are snap.Engine.Predict's, and
// the result always comes from snap's engine regardless of hot-swaps racing
// this call. Only BatchServeable engines (the MLP) batch, and their batched
// class is not bit-identical to Predict's: the hoisted first layer folds
// each dimension group's rows before adding them, where Probability folds
// every row in sequence, so z1 can differ in the last bits and a logit
// within rounding of zero can flip class. Every other engine answers
// through Predict itself.
func (c *Coalescer) Predict(snap *Snapshot, req []relational.Value) (Prediction, error) {
	return c.PredictCtx(context.Background(), snap, req)
}

// PredictCtx is Predict with per-request deadline propagation. A waiter
// whose context expires while its batch is in flight abandons its slot and
// returns ctx.Err(): its request still gets scored with the batch (the
// flusher owns the shared reqs slice and is never interrupted), but nobody
// waits for the result. The abandoner decrements the reader count like a
// normal waiter; the batch is recycled only when the flush is observably
// complete, so an abandonment can never hand a batch back to the pool while
// the flusher is still writing into it — at worst the batch is dropped for
// the GC instead of reused. A background context costs one nil check over
// Predict.
func (c *Coalescer) PredictCtx(ctx context.Context, snap *Snapshot, req []relational.Value) (Prediction, error) {
	e := snap.Engine
	if c.cfg.Window <= 0 || !e.BatchServeable() {
		c.direct.Add(1)
		return e.Predict(req)
	}
	if err := e.Validate(req); err != nil {
		return Prediction{}, err
	}
	alone := c.inflight.Add(1) == 1
	defer c.inflight.Add(-1)

	c.mu.Lock()
	if alone && c.cur == nil && c.streak < c.probeAt {
		// Low load: nobody else is observably in flight and no batch is
		// pending, so waiting out a window would buy nothing and cost its
		// full length. The bounded streak makes this self-correcting on a
		// saturated single core, where overlap is real but never observable.
		c.streak++
		c.mu.Unlock()
		c.direct.Add(1)
		return e.Predict(req)
	}
	if b := c.cur; b != nil && b.snap != snap {
		// A hot-swap landed between these callers' snapshot resolutions.
		// Flush the old-snapshot batch now (swaps are rare; the latency
		// lands on one request) rather than ever mixing engines in a batch.
		c.cur = nil
		c.mu.Unlock()
		b.timer.Stop()
		if c.m != nil {
			c.m.flushSwap.Inc()
		}
		c.flush(b)
		c.mu.Lock()
	}
	b := c.cur
	if b == nil {
		b = c.newBatch(snap)
		c.cur = b
	}
	idx := len(b.reqs)
	b.reqs = append(b.reqs, req)
	b.readers.Add(1)
	full := len(b.reqs) >= c.cfg.MaxBatch
	if full {
		c.cur = nil
	}
	c.mu.Unlock()

	if full {
		b.timer.Stop()
		if c.m != nil {
			c.m.flushFull.Inc()
		}
		c.flush(b)
	}
	if done := ctx.Done(); done == nil {
		<-b.done
	} else {
		select {
		case <-b.done:
		case <-done:
			if b.readers.Add(-1) == 0 {
				select {
				case <-b.done:
					// Flush already completed; safe to recycle.
					c.putBatch(b)
				default:
					// The flusher still owns the batch (it will close done
					// after writing preds). Leave it for the GC.
				}
			}
			return Prediction{}, ctx.Err()
		}
	}
	pred, err := b.preds[idx], b.err
	if b.readers.Add(-1) == 0 {
		c.putBatch(b)
	}
	return pred, err
}

// flushExpired is the timer path: flush b only if it is still the pending
// batch — a filler or snapshot-mismatch flush may have raced the timer.
func (c *Coalescer) flushExpired(b *cbatch) {
	c.mu.Lock()
	if c.cur != b {
		c.mu.Unlock()
		return
	}
	c.cur = nil
	c.mu.Unlock()
	if c.m != nil {
		c.m.flushWindow.Inc()
	}
	c.flush(b)
}

// flush scores a detached batch and wakes its waiters with one broadcast
// close. Requests were validated at enqueue, so predictBatchInto cannot fail
// on input; an error is still fanned out to every waiter rather than
// swallowed.
func (c *Coalescer) flush(b *cbatch) {
	n := len(b.reqs)
	if cap(b.preds) < n {
		b.preds = make([]Prediction, n)
	}
	preds := b.preds[:n]
	b.err = b.snap.Engine.predictBatchInto(preds, b.reqs, &b.bs)
	c.batches.Add(1)
	c.coalesced.Add(uint64(n))
	if c.m != nil {
		// Amortized per batch, not per request: one fill sample and one
		// residency sample (open → flush, an upper bound on any waiter's
		// queue time) per flush.
		c.m.coalFill.Observe(int64(n))
		c.m.coalWait.Observe(int64(time.Since(b.opened)))
	}
	c.mu.Lock()
	c.streak = 0
	if n > 1 {
		// Company arrived: load is coalescable, probe eagerly again.
		c.probeAt = minProbeStreak
	} else if c.probeAt < maxProbeStreak {
		// A probe (or a drained batch) timed out alone: back off.
		c.probeAt *= 2
	}
	c.mu.Unlock()
	close(b.done)
}
