package telemetry

// A Span is one timed episode of engine activity — a split-memory
// fault-handling lifecycle (fault → PTE repoint → TLB fill → re-restrict,
// or fault → TF set → retry → #DB → re-restrict), a scheduler slice, or a
// zero-duration instant (an injection detection, a process exit). Times
// are simulated cycles.
type Span struct {
	Seq     uint64 // unique, ascending span id (1-based)
	Parent  uint64 // Seq of the parent span, 0 for roots
	Name    string // "itlb-load", "dtlb-load", "tf-single-step", ...
	PID     int    // owning guest process
	VPN     uint32 // owning virtual page number (0 when not page-scoped)
	Start   uint64 // cycle count at the start of the episode
	End     uint64 // cycle count at the end (== Start for instants)
	Instant bool   // zero-duration marker event
}

// Dur returns the span's duration in simulated cycles (0 for instants and
// for spans that were never finished).
func (s Span) Dur() uint64 {
	if s.End <= s.Start {
		return 0
	}
	return s.End - s.Start
}

// SpanID refers to a span handed out by Begin; its Seq is the span's. The
// zero value is invalid and safely ignored by End.
type SpanID = Ref

// SpanBuffer is a bounded ring of spans on the simulated-cycle clock, a
// front end over Ring: it grows on demand up to its capacity, so a machine
// that records few spans pays for few; once full, new spans overwrite the
// oldest — including unfinished ones, whose End then quietly no-ops. Not
// goroutine-safe (the simulator is single-threaded).
type SpanBuffer struct {
	ring Ring[Span] // a span's Seq is its push number
}

// NewSpanBuffer creates a ring holding up to n spans (minimum 16). No span
// storage is allocated until the first span is recorded.
func NewSpanBuffer(n int) *SpanBuffer {
	return &SpanBuffer{ring: NewRing[Span](max(n, 16))}
}

// Cap returns the ring capacity.
func (b *SpanBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return b.ring.Cap()
}

// Len returns the number of recorded spans (up to Cap).
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	return b.ring.Len()
}

// Dropped returns the number of spans evicted by the ring.
func (b *SpanBuffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.ring.Evicted()
}

// Begin opens a root span at the given cycle count and returns its id.
// Nil-safe: a nil buffer returns the invalid zero SpanID.
func (b *SpanBuffer) Begin(name string, pid int, vpn uint32, start uint64) SpanID {
	return b.BeginChild(name, pid, vpn, start, SpanID{})
}

// BeginChild opens a span parented under another in-flight or finished
// span. An invalid parent id produces a root span.
func (b *SpanBuffer) BeginChild(name string, pid int, vpn uint32, start uint64, parent SpanID) SpanID {
	if b == nil {
		return SpanID{}
	}
	return b.ring.Push(Span{
		Seq:    b.ring.Pushed() + 1,
		Parent: parent.seq,
		Name:   name,
		PID:    pid,
		VPN:    vpn,
		Start:  start,
	})
}

// End finishes the span at the given cycle count and returns its start
// cycles (for latency accounting). If the span was already evicted from
// the ring — or the id is invalid — End reports ok=false and does
// nothing.
func (b *SpanBuffer) End(id SpanID, end uint64) (start uint64, ok bool) {
	if b == nil {
		return 0, false
	}
	s := b.ring.Get(id)
	if s == nil {
		return 0, false // invalid, or evicted and overwritten
	}
	s.End = end
	return s.Start, true
}

// Instant records a zero-duration marker span (detections, process
// lifecycle events). Nil-safe.
func (b *SpanBuffer) Instant(name string, pid int, vpn uint32, at uint64) {
	if b == nil {
		return
	}
	b.ring.Push(Span{
		Seq:     b.ring.Pushed() + 1,
		Name:    name,
		PID:     pid,
		VPN:     vpn,
		Start:   at,
		End:     at,
		Instant: true,
	})
}

// Spans returns a copy of the recorded spans, oldest first. Nil-safe.
func (b *SpanBuffer) Spans() []Span {
	if b == nil {
		return nil
	}
	return b.ring.Items()
}

// Tail returns up to the n most recent spans, oldest first (all of them
// when n <= 0). Nil-safe.
func (b *SpanBuffer) Tail(n int) []Span {
	if b == nil {
		return nil
	}
	return b.ring.Tail(n)
}
