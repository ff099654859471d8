package hostspan

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// eagerRecorder is the host-span ring as it was before it became a front
// end over telemetry.Ring: every slot allocated up front, a wrap flag, and
// a recorded counter of its own, its ids a slot and a sequence number.
// TestHostspanRingEquivalence holds Recorder to it.
type eagerRecorder struct {
	buf      []Span
	pos      int
	full     bool
	nextSeq  uint64
	dropped  uint64
	recorded uint64
}

type eagerID struct {
	slot int32
	seq  uint64
}

func newEagerRecorder(capacity int) *eagerRecorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	if capacity < 64 {
		capacity = 64
	}
	return &eagerRecorder{buf: make([]Span, capacity)}
}

func (r *eagerRecorder) push(s Span) int {
	slot := r.pos
	if r.full {
		r.dropped++
	}
	r.buf[slot] = s
	r.recorded++
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
		r.full = true
	}
	return slot
}

func (r *eagerRecorder) BeginChild(trace, name string, parent eagerID, attrs ...string) eagerID {
	r.nextSeq++
	seq := r.nextSeq
	slot := r.push(Span{Trace: trace, Seq: seq, Parent: parent.seq, Name: name, Proc: "p", Start: time.Now(), Attrs: attrMap(attrs)})
	return eagerID{slot: int32(slot), seq: seq}
}

func (r *eagerRecorder) End(id eagerID, attrs ...string) {
	if id.seq == 0 {
		return
	}
	s := &r.buf[id.slot]
	if s.Seq != id.seq {
		return
	}
	s.End = time.Now()
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = map[string]string{}
		}
		s.Attrs[attrs[i]] = attrs[i+1]
	}
}

func (r *eagerRecorder) Annotate(id eagerID, key, value string) {
	if id.seq == 0 {
		return
	}
	s := &r.buf[id.slot]
	if s.Seq != id.seq {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
}

func (r *eagerRecorder) Instant(trace, name string, attrs ...string) {
	r.nextSeq++
	now := time.Now()
	r.push(Span{Trace: trace, Seq: r.nextSeq, Name: name, Proc: "p", Start: now, End: now, Attrs: attrMap(attrs), Instant: true})
}

func (r *eagerRecorder) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.pos
}

func (r *eagerRecorder) Spans() []Span {
	if !r.full {
		return append([]Span{}, r.buf[:r.pos]...)
	}
	return append(append([]Span{}, r.buf[r.pos:]...), r.buf[:r.pos]...)
}

// timeless blanks the wall-clock fields, which two recorders driven side
// by side cannot share, keeping only whether End was set.
func timeless(spans []Span) []Span {
	out := make([]Span, len(spans))
	for i, s := range spans {
		ended := !s.End.IsZero()
		s.Start, s.End = time.Time{}, time.Time{}
		if ended {
			s.End = time.Unix(1, 0)
		}
		out[i] = s
	}
	return out
}

// TestHostspanRingEquivalence drives Recorder and the eager reference
// through the same seeded Begin/BeginChild/End/Annotate/Instant sequences —
// End and Annotate landing on live and long-evicted spans alike — and
// requires identical span numbers, Len/Recorded/Dropped after every op, and
// identical Spans, SpansFor and Tail (clock readings aside) as the ring
// fills, wraps and keeps wrapping.
func TestHostspanRingEquivalence(t *testing.T) {
	names := []string{"rep.admit", "rep.run-slice", "gw.relay", "rep.checkpoint"}
	traces := []string{"", "t1", "t2", "t3"}
	for _, capacity := range []int{0, 10, 64, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewRecorder("p", capacity), newEagerRecorder(capacity)
			n := len(want.buf)
			every := max(37, n/8) // full comparisons are quadratic in n
			type ids struct {
				got  SpanID
				want eagerID
			}
			var open []ids
			for op := 0; op < 3*n+50; op++ {
				name, trace := names[rng.Intn(len(names))], traces[rng.Intn(len(traces))]
				attrs := []string{"op", strconv.Itoa(op)}[:2*rng.Intn(2)]
				switch k := rng.Intn(10); {
				case k < 3 || len(open) == 0:
					var parent ids
					if k%2 == 1 && len(open) > 0 {
						parent = open[rng.Intn(len(open))]
					}
					id := ids{got.BeginChild(trace, name, parent.got, attrs...), want.BeginChild(trace, name, parent.want, attrs...)}
					if id.got.Seq() != id.want.seq || !id.got.Valid() {
						t.Fatalf("cap %d seed %d op %d: BeginChild seq %d, eager %d", capacity, seed, op, id.got.Seq(), id.want.seq)
					}
					open = append(open, id)
				case k < 6:
					id := open[rng.Intn(len(open))]
					got.End(id.got, attrs...)
					want.End(id.want, attrs...)
				case k < 8:
					id := open[rng.Intn(len(open))]
					got.Annotate(id.got, "k", name)
					want.Annotate(id.want, "k", name)
				default:
					got.Instant(trace, name, attrs...)
					want.Instant(trace, name, attrs...)
				}
				if got.Len() != want.Len() || got.Recorded() != want.recorded || got.Dropped() != want.dropped {
					t.Fatalf("cap %d seed %d op %d: Len/Recorded/Dropped %d/%d/%d, eager %d/%d/%d", capacity, seed, op,
						got.Len(), got.Recorded(), got.Dropped(), want.Len(), want.recorded, want.dropped)
				}
				if op%every != 0 && op != 3*n+49 {
					continue
				}
				ws := timeless(want.Spans())
				if gs := timeless(got.Spans()); !reflect.DeepEqual(gs, ws) {
					t.Fatalf("cap %d seed %d op %d: Spans differ from the eager ring", capacity, seed, op)
				}
				wf := []Span{} // SpansFor("") matches nothing
				for _, s := range ws {
					if trace != "" && s.Trace == trace {
						wf = append(wf, s)
					}
				}
				if gf := timeless(got.SpansFor(trace)); !reflect.DeepEqual(gf, wf) {
					t.Fatalf("cap %d seed %d op %d: SpansFor(%q) differs from the eager ring", capacity, seed, op, trace)
				}
				tail := rng.Intn(n + 2)
				wt := ws
				if tail > 0 && len(wt) > tail {
					wt = wt[len(wt)-tail:]
				}
				if gt := timeless(got.Tail(tail)); !reflect.DeepEqual(gt, wt) {
					t.Fatalf("cap %d seed %d op %d: Tail(%d) differs from the eager ring", capacity, seed, op, tail)
				}
			}
		}
	}
}
