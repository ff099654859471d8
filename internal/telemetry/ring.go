package telemetry

// Ring is the bounded ring under every recorder in the tree: SpanBuffer,
// hostspan.Recorder and trace.Ring. Its storage grows on demand up to the
// cap (a bound, not a preallocation); once full, each new item overwrites
// the oldest. Not goroutine-safe: a shared front end guards its ring.
type Ring[T any] struct {
	buf     []T // grows to max, then wraps
	max     int
	pos     int // the next item's slot: len(buf) until full, then the oldest
	evicted uint64
}

// NewRing returns an empty ring of up to n items (n >= 1), allocating
// nothing until the first Push.
func NewRing[T any](n int) Ring[T] { return Ring[T]{max: n} }

// Ref refers to a pushed item by slot and push number; the zero Ref to
// nothing.
type Ref struct {
	slot int32
	seq  uint64 // the item's push number, 1-based
}

// Valid reports whether the ref came from a Push.
func (ref Ref) Valid() bool { return ref.seq != 0 }

// Seq returns the item's push number (0 for the zero Ref).
func (ref Ref) Seq() uint64 { return ref.seq }

// Cap returns the ring capacity.
func (r *Ring[T]) Cap() int { return r.max }

// Len returns the number of items held (up to Cap).
func (r *Ring[T]) Len() int { return len(r.buf) }

// Evicted returns the number of items overwritten.
func (r *Ring[T]) Evicted() uint64 { return r.evicted }

// Pushed returns the number of items ever pushed, evicted ones included.
func (r *Ring[T]) Pushed() uint64 { return uint64(len(r.buf)) + r.evicted }

// Push records v, doubling the storage (never past the cap) while the ring
// is below it and overwriting the oldest item once it is full.
func (r *Ring[T]) Push(v T) Ref {
	ref := Ref{slot: int32(r.pos), seq: r.Pushed() + 1}
	if n := len(r.buf); n < r.max {
		if n == cap(r.buf) {
			grown := make([]T, n, min(r.max, max(2*n, 16)))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, v)
	} else {
		r.evicted++
		r.buf[r.pos] = v
	}
	if r.pos++; r.pos == r.max {
		r.pos = 0
	}
	return ref
}

// Get returns the item ref refers to, or nil once it has been evicted.
func (r *Ring[T]) Get(ref Ref) *T {
	if ref.seq == 0 || ref.seq+uint64(len(r.buf)) <= r.Pushed() {
		return nil
	}
	return &r.buf[ref.slot]
}

// AppendTo appends the items to dst, oldest first, and returns the
// extended slice; it allocates only when dst lacks capacity.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = append(dst, r.buf[r.pos:]...)
	return append(dst, r.buf[:r.pos]...)
}

// Each calls fn with each item, oldest first, copying none: codecs use it
// to serialize a ring as deep as its cap.
func (r *Ring[T]) Each(fn func(T)) {
	for _, v := range r.buf[r.pos:] {
		fn(v)
	}
	for _, v := range r.buf[:r.pos] {
		fn(v)
	}
}

// Items returns a copy of the items, oldest first (never nil).
func (r *Ring[T]) Items() []T { return r.AppendTo(make([]T, 0, len(r.buf))) }

// Tail copies the n most recent items (all when n <= 0), oldest first.
func (r *Ring[T]) Tail(n int) []T {
	if n <= 0 || n >= len(r.buf) {
		return r.Items()
	}
	start := r.pos - n
	if start >= 0 {
		return append(make([]T, 0, n), r.buf[start:r.pos]...)
	}
	out := append(make([]T, 0, n), r.buf[len(r.buf)+start:]...)
	return append(out, r.buf[:r.pos]...)
}

// Reset empties the ring, keeping its storage.
func (r *Ring[T]) Reset() { r.buf, r.pos, r.evicted = r.buf[:0], 0, 0 }
