package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/relational"
)

// ErrUnknownModel is returned when a request names a model slot the registry
// does not hold.
var ErrUnknownModel = errors.New("serve: unknown model")

// ErrUnknownVersion is returned when a rollback names a version that never
// existed or has aged out of the slot's bounded history.
var ErrUnknownVersion = errors.New("serve: unknown version")

// keepVersions bounds each slot's rollback history (including the live
// version). Old engines past the bound are released to the collector.
const keepVersions = 8

// Snapshot is one immutable (model name, version, engine) binding. Handlers
// resolve a snapshot once per request and score against it for the request's
// whole lifetime, so a concurrent Swap never mixes versions inside one
// response — the same immutable-segment discipline the storage engine uses
// for readers vs. compaction.
type Snapshot struct {
	Name    string
	Version int
	Engine  *Engine
	// Swapped records when this version went live.
	Swapped time.Time
}

// Slot is one named model with a hot-swappable current version. The current
// snapshot is an atomic pointer (lock-free reads on the request path);
// version transitions serialize on mu.
type Slot struct {
	name string
	cur  atomic.Pointer[Snapshot]

	mu      sync.Mutex
	nextVer int
	history []*Snapshot
}

// Name returns the slot's registry key.
func (s *Slot) Name() string { return s.name }

// Snapshot returns the live version. The result is immutable; callers may
// score against it indefinitely even across swaps.
func (s *Slot) Snapshot() *Snapshot { return s.cur.Load() }

// Predict resolves the live snapshot once and scores the request against its
// engine.
func (s *Slot) Predict(req []relational.Value) (Prediction, error) {
	return s.cur.Load().Engine.Predict(req)
}

// install makes snap the live version and trims history to the bound.
// Callers hold s.mu.
func (s *Slot) install(snap *Snapshot) {
	s.history = append(s.history, snap)
	if len(s.history) > keepVersions {
		s.history = s.history[len(s.history)-keepVersions:]
	}
	s.cur.Store(snap)
}

// Versions lists the slot's retained history, oldest first; the last entry
// is the live version.
func (s *Slot) Versions() []*Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Snapshot(nil), s.history...)
}

// Registry holds the server's model slots: versioned engines keyed by name,
// with atomic hot-swap and bounded rollback. Slot lookup is lock-free
// (copy-on-write map behind an atomic pointer); mutations serialize on mu.
type Registry struct {
	mu      sync.Mutex
	slots   atomic.Pointer[map[string]*Slot]
	def     atomic.Pointer[Slot]
	metrics *Metrics
}

// NewRegistry builds an empty registry. It takes no configuration; the
// variadic parameter only keeps the perfbench call
// NewRegistry(DefaultCoalescerConfig()) compiling (see the residue block
// below).
func NewRegistry(_ ...CoalescerConfig) *Registry {
	r := &Registry{metrics: newMetrics()}
	empty := map[string]*Slot{}
	r.slots.Store(&empty)
	return r
}

// Metrics returns the registry's serving telemetry (shared with the HTTP
// front end).
func (r *Registry) Metrics() *Metrics { return r.metrics }

// Register adds a new slot serving e as version 1. The first slot registered
// becomes the default (the slot unnamed requests resolve to). Duplicate
// names are rejected — replacing a live model is Swap's job, so it is
// versioned and rollbackable.
func (r *Registry) Register(name string, e *Engine) (*Slot, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: model name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.slots.Load()
	if _, ok := old[name]; ok {
		return nil, fmt.Errorf("serve: model %q already registered", name)
	}
	s := &Slot{name: name, nextVer: 2}
	s.install(&Snapshot{Name: name, Version: 1, Engine: e, Swapped: time.Now()})
	next := make(map[string]*Slot, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = s
	r.slots.Store(&next)
	r.def.CompareAndSwap(nil, s)
	return s, nil
}

// Slot resolves a model name; the empty name resolves to the default slot.
func (r *Registry) Slot(name string) (*Slot, bool) {
	if name == "" {
		s := r.def.Load()
		return s, s != nil
	}
	s, ok := (*r.slots.Load())[name]
	return s, ok
}

// Slots lists all slots sorted by name.
func (r *Registry) Slots() []*Slot {
	m := *r.slots.Load()
	out := make([]*Slot, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Swap builds an engine for m against the slot's star schema and installs it
// as the next version. In-flight requests that already resolved the old
// snapshot finish against it; new requests see the new version atomically.
// A model that does not fit the schema is rejected with the engine's typed
// *model.SchemaMismatchError and the slot is left untouched.
func (r *Registry) Swap(name string, m *model.Model) (*Snapshot, error) {
	s, ok := r.Slot(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := NewEngine(m, s.cur.Load().Engine.star)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Name: s.name, Version: s.nextVer, Engine: e, Swapped: time.Now()}
	s.nextVer++
	s.install(snap)
	r.metrics.swaps.Inc()
	return snap, nil
}

// Rollback reinstalls a retained historical version's engine as a *new*
// version — roll-forward semantics, so the audit trail stays monotonic and a
// rollback is itself rollbackable.
func (r *Registry) Rollback(name string, version int) (*Snapshot, error) {
	s, ok := r.Slot(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var old *Snapshot
	for _, h := range s.history {
		if h.Version == version {
			old = h
			break
		}
	}
	if old == nil {
		return nil, fmt.Errorf("%w: %s@%d (history keeps %d)", ErrUnknownVersion, s.name, version, keepVersions)
	}
	snap := &Snapshot{Name: s.name, Version: s.nextVer, Engine: old.Engine, Swapped: time.Now()}
	s.nextVer++
	s.install(snap)
	r.metrics.rollbacks.Inc()
	return snap, nil
}

// The declarations below are residue of the deleted request coalescer. They
// do nothing: perfbench/serve.go still names them and perfbench/ changes
// only with the benchmark, so they stay until the benchmark change of
// ROADMAP item 6.1 moves perfbench off them and deletes this block. Until
// then perfbench's serve.coalescer_mean_batch reads 0.

// CoalescerConfig is empty; NewRegistry ignores it.
type CoalescerConfig struct{}

// DefaultCoalescerConfig returns the empty CoalescerConfig.
func DefaultCoalescerConfig() CoalescerConfig { return CoalescerConfig{} }

// CoalescerStats is the counter shape perfbench reads; it is always zero.
type CoalescerStats struct {
	Batches, Coalesced, Direct uint64
}

// Coalescer has no state; Slot.Coalescer returns a nil one.
type Coalescer struct{}

// Stats returns zero counters, also on a nil Coalescer.
func (*Coalescer) Stats() CoalescerStats { return CoalescerStats{} }

// Coalescer returns nil: every request is scored by Engine.Predict.
func (s *Slot) Coalescer() *Coalescer { return nil }
