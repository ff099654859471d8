// Package telemetry is the observability layer of the S86 simulator: a
// low-overhead metrics registry (counters, gauges, simulated-cycle
// histograms, labeled counter vectors) and a span tracer that records the
// split-memory engine's fault-handling episodes into a bounded buffer,
// plus exporters for Prometheus-style text exposition, JSON Lines, and
// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
//
// All times and durations are SIMULATED CYCLES, never host wall time: the
// S86 machine is deterministic, and telemetry must not break that.
//
// Every type in this package is nil-safe: calling any method on a nil
// *Counter, *Gauge, *Histogram, *CounterVec, *SpanBuffer, *Registry or
// *Hub is a cheap no-op. Instrumented packages therefore compile their
// hooks in unconditionally and pay only a nil check when telemetry is
// disabled — the guard benchmark (BenchmarkTelemetryOnOff) keeps that
// honest.
//
// The package is a leaf: it imports only the standard library, so every
// engine package (cpu, tlb, mem, kernel, core, chaos) can register into
// one shared Registry without import cycles.
package telemetry

// Options configures a Hub.
type Options struct {
	// SpanCap bounds the span buffer (default 8192 spans). The buffer is a
	// ring that grows on demand up to the bound: once full, the oldest
	// spans are overwritten.
	SpanCap int
}

// Hub bundles the metrics registry and the span tracer of one machine.
// A nil *Hub disables all telemetry.
type Hub struct {
	reg   *Registry
	spans *SpanBuffer
}

// NewHub creates a hub with an empty registry and a bounded span buffer.
func NewHub(opts Options) *Hub {
	if opts.SpanCap <= 0 {
		opts.SpanCap = 8192
	}
	return &Hub{reg: NewRegistry(), spans: NewSpanBuffer(opts.SpanCap)}
}

// Registry returns the hub's metrics registry (nil when the hub is nil).
func (h *Hub) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Spans returns the hub's span buffer (nil when the hub is nil).
func (h *Hub) Spans() *SpanBuffer {
	if h == nil {
		return nil
	}
	return h.spans
}
