// Package hostspan records host-side lifecycle episodes across the
// serve/cluster tier on the wall clock: a goroutine-safe Recorder, a
// mutex-guarded front end over the same telemetry.Ring that holds the
// simulated-cycle spans and the execution trace. Where the telemetry
// SpanBuffer answers "where do a machine's simulated cycles go?", a
// hostspan Recorder answers "where does a job's wall-clock latency go?" —
// admission, queueing, run slices, checkpoint writes, checkpoint export,
// migration hops, resume, stream stitching.
//
// Every span carries a trace ID. The gateway mints one per client
// submission and propagates it to replicas in the X-Splitmem-Trace
// header, so the spans a migrated job leaves on the gateway and on every
// replica it visited can be reassembled into one causal timeline
// (WriteTraceEvents in export.go renders it as a single Chrome
// trace_event file, through the writer the simulated-cycle spans use).
//
// All methods are nil-safe: a nil *Recorder records nothing, which is
// how tracing is disabled without touching call sites.
package hostspan

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"splitmem/internal/telemetry"
)

// TraceHeader is the HTTP header that carries a job's trace ID between
// the gateway and its replicas (and back to the client on the response).
const TraceHeader = "X-Splitmem-Trace"

// NewTraceID mints a fresh 16-hex-digit trace identifier.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Build reports the binary's build identity — module version and Go
// toolchain — for /healthz bodies and flight-recorder dumps.
func Build() map[string]string {
	version := "devel"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	return map[string]string{"version": version, "go": runtime.Version()}
}

// Span is one wall-clock episode of host activity.
type Span struct {
	Trace   string            `json:"trace,omitempty"` // "" for process-level spans (probe transitions)
	Seq     uint64            `json:"seq"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"` // "gw.relay", "rep.run-slice", ...
	Proc    string            `json:"proc"` // recording process ("gateway:<id>", "replica:<id>")
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end,omitempty"` // zero while open (or if evicted before End)
	Attrs   map[string]string `json:"attrs,omitempty"`
	Instant bool              `json:"instant,omitempty"`
}

// Dur returns the span's wall duration (0 for instants and unfinished
// spans).
func (s Span) Dur() time.Duration {
	if s.Instant || s.End.IsZero() || s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// SpanID refers to a span handed out by Begin. The zero value is invalid
// and safely ignored by End and Annotate.
type SpanID = telemetry.Ref

// Recorder is a mutex-guarded front end over a telemetry.Ring of host
// spans. The ring grows on demand up to its capacity; once full, new spans
// overwrite the oldest, and an evicted span's End quietly no-ops.
type Recorder struct {
	proc string

	mu   sync.Mutex
	ring telemetry.Ring[Span] // a span's Seq is its push number
}

// DefaultCap is the span-ring capacity when the caller passes 0.
const DefaultCap = 4096

// NewRecorder creates a recorder for the named process holding up to
// capacity spans (0 selects DefaultCap; minimum 64). No span storage is
// allocated until the first span is recorded.
func NewRecorder(proc string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{proc: proc, ring: telemetry.NewRing[Span](max(capacity, 64))}
}

// Proc returns the recorder's process identity ("" for nil).
func (r *Recorder) Proc() string {
	if r == nil {
		return ""
	}
	return r.proc
}

// attrMap folds variadic key/value pairs into a map (nil when empty).
func attrMap(attrs []string) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs)/2)
	for i := 0; i+1 < len(attrs); i += 2 {
		m[attrs[i]] = attrs[i+1]
	}
	return m
}

// Begin opens a span under the given trace at time.Now. attrs are
// alternating key/value pairs. Nil-safe.
func (r *Recorder) Begin(trace, name string, attrs ...string) SpanID {
	return r.BeginChild(trace, name, SpanID{}, attrs...)
}

// BeginChild opens a span parented under another span from the same
// recorder. An invalid parent produces a root span.
func (r *Recorder) BeginChild(trace, name string, parent SpanID, attrs ...string) SpanID {
	if r == nil {
		return SpanID{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Push(Span{
		Trace:  trace,
		Seq:    r.ring.Pushed() + 1,
		Parent: parent.Seq(),
		Name:   name,
		Proc:   r.proc,
		Start:  time.Now(),
		Attrs:  attrMap(attrs),
	})
}

// End finishes the span at time.Now, merging any extra attrs, and
// returns its wall duration. If the span was evicted from the ring — or
// the id is invalid — End does nothing and returns 0.
func (r *Recorder) End(id SpanID, attrs ...string) time.Duration {
	if r == nil || !id.Valid() {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.ring.Get(id)
	if s == nil {
		return 0 // evicted and overwritten
	}
	s.End = time.Now()
	for i := 0; i+1 < len(attrs); i += 2 {
		s.annotate(attrs[i], attrs[i+1])
	}
	return s.End.Sub(s.Start)
}

// Annotate adds one attribute to an in-flight span (no-op if evicted).
func (r *Recorder) Annotate(id SpanID, key, value string) {
	if r == nil || !id.Valid() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.ring.Get(id); s != nil {
		s.annotate(key, value)
	}
}

// annotate sets one attribute of the span.
func (s *Span) annotate(key, value string) {
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
}

// Instant records a zero-duration marker span. Nil-safe.
func (r *Recorder) Instant(trace, name string, attrs ...string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	r.ring.Push(Span{
		Trace:   trace,
		Seq:     r.ring.Pushed() + 1,
		Name:    name,
		Proc:    r.proc,
		Start:   now,
		End:     now,
		Attrs:   attrMap(attrs),
		Instant: true,
	})
}

// Spans returns a copy of the recorded spans, oldest first. Nil-safe.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Items()
}

// SpansFor returns the recorded spans belonging to one trace, oldest
// first. Nil-safe; an empty trace matches nothing.
func (r *Recorder) SpansFor(trace string) []Span {
	if r == nil || trace == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, s := range r.ring.AppendTo(nil) {
		if s.Trace == trace {
			out = append(out, s)
		}
	}
	return out
}

// Tail returns up to the n most recent spans, oldest first (all of them
// when n <= 0). Only those n are copied. Nil-safe.
func (r *Recorder) Tail(n int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Tail(n)
}

// Len returns the number of spans currently held in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Len()
}

// Recorded returns the total spans ever recorded (including evicted).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Pushed()
}

// Dropped returns the number of spans evicted by the ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Evicted()
}
