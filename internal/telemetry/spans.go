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

// SpanID refers to an in-flight span handed out by Begin. The zero value
// is invalid and safely ignored by End.
type SpanID struct {
	slot int32
	seq  uint64
}

// Valid reports whether the id refers to a live Begin.
func (id SpanID) Valid() bool { return id.seq != 0 }

// SpanBuffer is a bounded ring of spans. It grows on demand up to its
// capacity, so a machine that records few spans pays for few; once full,
// new spans overwrite the oldest — including unfinished ones, whose End
// then quietly no-ops. Not goroutine-safe (the simulator is
// single-threaded).
type SpanBuffer struct {
	buf     []Span // recorded spans; grows to max, then wraps
	max     int
	pos     int // once full, the slot the next span overwrites (the oldest)
	nextSeq uint64
	dropped uint64 // spans overwritten before or after completion
}

// NewSpanBuffer creates a ring holding up to n spans (minimum 16). No span
// storage is allocated until the first span is recorded.
func NewSpanBuffer(n int) *SpanBuffer {
	if n < 16 {
		n = 16
	}
	return &SpanBuffer{max: n}
}

// Cap returns the ring capacity.
func (b *SpanBuffer) Cap() int {
	if b == nil {
		return 0
	}
	return b.max
}

// Len returns the number of recorded spans (up to Cap).
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.buf)
}

// Dropped returns the number of spans evicted by the ring.
func (b *SpanBuffer) Dropped() uint64 {
	if b == nil {
		return 0
	}
	return b.dropped
}

// push records a span and returns its slot: appended while the ring is
// below capacity (its storage doubling, never past it), written over the
// oldest span once it is full.
func (b *SpanBuffer) push(s Span) int {
	if n := len(b.buf); n < b.max {
		if n == cap(b.buf) {
			grown := make([]Span, n, min(b.max, max(2*n, 16)))
			copy(grown, b.buf)
			b.buf = grown
		}
		b.buf = append(b.buf, s)
		return n
	}
	slot := b.pos
	b.dropped++
	b.buf[slot] = s
	b.pos++
	if b.pos == b.max {
		b.pos = 0
	}
	return slot
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
	b.nextSeq++
	seq := b.nextSeq
	slot := b.push(Span{
		Seq:    seq,
		Parent: parent.seq,
		Name:   name,
		PID:    pid,
		VPN:    vpn,
		Start:  start,
	})
	return SpanID{slot: int32(slot), seq: seq}
}

// End finishes the span at the given cycle count and returns its start
// cycles (for latency accounting). If the span was already evicted from
// the ring — or the id is invalid — End reports ok=false and does
// nothing.
func (b *SpanBuffer) End(id SpanID, end uint64) (start uint64, ok bool) {
	if b == nil || !id.Valid() {
		return 0, false
	}
	s := &b.buf[id.slot]
	if s.Seq != id.seq {
		return 0, false // evicted and overwritten
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
	b.nextSeq++
	b.push(Span{
		Seq:     b.nextSeq,
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
	out := make([]Span, 0, len(b.buf))
	out = append(out, b.buf[b.pos:]...)
	out = append(out, b.buf[:b.pos]...)
	return out
}

// Tail returns up to the n most recent spans, oldest first.
func (b *SpanBuffer) Tail(n int) []Span {
	all := b.Spans()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}
