package serve

import (
	"net/http"

	"repro/internal/obs"
)

// Metrics is one registry's serving telemetry. Every Registry (and so every
// Server) owns a private obs.Registry — tests build servers freely without
// tripping duplicate-registration panics — and the /metrics endpoint renders
// it next to obs.Default (storage counters, training spans), so one scrape
// covers all three layers.
//
// Everything here obeys the hot-path contract: each metric is resolved to a
// concrete pointer at construction, and recording is a handful of atomic adds
// plus µs-scale clock reads at HTTP handler granularity. Nothing times inside
// the ~16ns factorized score itself.
type Metrics struct {
	// Obs is the backing registry; Values() is /stats' data source and
	// WritePrometheus /metrics', so the two surfaces can never disagree.
	Obs *obs.Registry

	reqPredict *obs.Counter
	reqBatch   *obs.Counter

	// Structured errors by HTTP status — the codes fail() actually emits,
	// resolved by switch, never by map.
	err400, err404, err405, err409, err413, err429, err500, errOther *obs.Counter

	// Robustness events: requests shed by the admission gate (every one also
	// counted under err429) and handler panics converted to structured 500s.
	shed   *obs.Counter
	panics *obs.Counter

	// Per-endpoint request latency, total plus decode/score/encode phases.
	predictTotal, predictDecode, predictScore, predictEncode *obs.Histogram
	batchTotal, batchDecode, batchScore, batchEncode         *obs.Histogram

	// Registry lifecycle events.
	swaps, rollbacks *obs.Counter

	// batchMax mirrors the server's high-water batch length as a gauge.
	batchMax *obs.Gauge
}

func newMetrics() *Metrics {
	r := obs.NewRegistry()
	h := func(name, help string) *obs.Histogram { return r.NewHistogram(name, help) }
	c := func(name, help string) *obs.Counter { return r.NewCounter(name, help) }
	return &Metrics{
		Obs: r,

		reqPredict: c(`hamlet_http_requests_total{endpoint="predict"}`, "requests by endpoint"),
		reqBatch:   c(`hamlet_http_requests_total{endpoint="predict_batch"}`, "requests by endpoint"),

		err400:   c(`hamlet_http_errors_total{code="400"}`, "structured errors by HTTP status"),
		err404:   c(`hamlet_http_errors_total{code="404"}`, "structured errors by HTTP status"),
		err405:   c(`hamlet_http_errors_total{code="405"}`, "structured errors by HTTP status"),
		err409:   c(`hamlet_http_errors_total{code="409"}`, "structured errors by HTTP status"),
		err413:   c(`hamlet_http_errors_total{code="413"}`, "structured errors by HTTP status"),
		err429:   c(`hamlet_http_errors_total{code="429"}`, "structured errors by HTTP status"),
		err500:   c(`hamlet_http_errors_total{code="500"}`, "structured errors by HTTP status"),
		errOther: c(`hamlet_http_errors_total{code="other"}`, "structured errors by HTTP status"),

		shed: c("hamlet_requests_shed_total",
			"requests rejected 429 by the bounded in-flight admission gate"),
		panics: c("hamlet_panics_recovered_total",
			"handler panics recovered into structured 500 responses"),

		predictTotal:  h(`hamlet_http_request_ns{endpoint="predict"}`, "request wall time, nanoseconds"),
		predictDecode: h(`hamlet_http_phase_ns{endpoint="predict",phase="decode"}`, "read body + JSON parse + input layout"),
		predictScore:  h(`hamlet_http_phase_ns{endpoint="predict",phase="score"}`, "engine scoring"),
		predictEncode: h(`hamlet_http_phase_ns{endpoint="predict",phase="encode"}`, "response encode + write"),
		batchTotal:    h(`hamlet_http_request_ns{endpoint="predict_batch"}`, "request wall time, nanoseconds"),
		batchDecode:   h(`hamlet_http_phase_ns{endpoint="predict_batch",phase="decode"}`, "read body + JSON parse + input layout"),
		batchScore:    h(`hamlet_http_phase_ns{endpoint="predict_batch",phase="score"}`, "engine scoring"),
		batchEncode:   h(`hamlet_http_phase_ns{endpoint="predict_batch",phase="encode"}`, "response encode + write"),

		swaps:     c(`hamlet_registry_transitions_total{kind="swap"}`, "slot version transitions"),
		rollbacks: c(`hamlet_registry_transitions_total{kind="rollback"}`, "slot version transitions"),

		batchMax: r.NewGauge("hamlet_http_batch_max", "largest /predict_batch input count seen"),
	}
}

// requestsTotal and errorsTotal fold the labeled counters back into the
// scalar totals /stats reports — derived from the exposition's own series,
// so the two surfaces cannot drift.
func (m *Metrics) requestsTotal() uint64 {
	return m.reqPredict.Value() + m.reqBatch.Value()
}

func (m *Metrics) errorsTotal() uint64 {
	return m.err400.Value() + m.err404.Value() + m.err405.Value() +
		m.err409.Value() + m.err413.Value() + m.err429.Value() +
		m.err500.Value() + m.errOther.Value()
}

// errCounter maps an HTTP status to its structured-error counter.
func (m *Metrics) errCounter(code int) *obs.Counter {
	switch code {
	case http.StatusBadRequest:
		return m.err400
	case http.StatusNotFound:
		return m.err404
	case http.StatusMethodNotAllowed:
		return m.err405
	case http.StatusConflict:
		return m.err409
	case http.StatusRequestEntityTooLarge:
		return m.err413
	case http.StatusTooManyRequests:
		return m.err429
	case http.StatusInternalServerError:
		return m.err500
	default:
		return m.errOther
	}
}
