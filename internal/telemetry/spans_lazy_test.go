package telemetry

import (
	"math/rand"
	"slices"
	"testing"
)

// eagerSpanBuffer is the span ring as it was before it grew on demand: all
// n slots allocated up front. TestSpanBufferLazyEquivalence holds
// SpanBuffer to it.
type eagerSpanBuffer struct {
	buf     []Span
	pos     int
	full    bool
	nextSeq uint64
	dropped uint64
}

func newEagerSpanBuffer(n int) *eagerSpanBuffer {
	if n < 16 {
		n = 16
	}
	return &eagerSpanBuffer{buf: make([]Span, n)}
}

func (b *eagerSpanBuffer) Len() int {
	if b.full {
		return len(b.buf)
	}
	return b.pos
}

func (b *eagerSpanBuffer) push(s Span) int {
	slot := b.pos
	if b.full {
		b.dropped++
	}
	b.buf[slot] = s
	b.pos++
	if b.pos == len(b.buf) {
		b.pos = 0
		b.full = true
	}
	return slot
}

func (b *eagerSpanBuffer) BeginChild(name string, pid int, vpn uint32, start uint64, parent SpanID) SpanID {
	b.nextSeq++
	seq := b.nextSeq
	slot := b.push(Span{Seq: seq, Parent: parent.seq, Name: name, PID: pid, VPN: vpn, Start: start})
	return SpanID{slot: int32(slot), seq: seq}
}

func (b *eagerSpanBuffer) End(id SpanID, end uint64) (uint64, bool) {
	if !id.Valid() {
		return 0, false
	}
	s := &b.buf[id.slot]
	if s.Seq != id.seq {
		return 0, false
	}
	s.End = end
	return s.Start, true
}

func (b *eagerSpanBuffer) Instant(name string, pid int, vpn uint32, at uint64) {
	b.nextSeq++
	b.push(Span{Seq: b.nextSeq, Name: name, PID: pid, VPN: vpn, Start: at, End: at, Instant: true})
}

func (b *eagerSpanBuffer) Spans() []Span {
	if !b.full {
		return slices.Clone(b.buf[:b.pos])
	}
	return append(slices.Clone(b.buf[b.pos:]), b.buf[:b.pos]...)
}

// TestSpanBufferLazyEquivalence drives the growing ring and the eager
// reference through the same seeded Begin/BeginChild/End/Instant sequences
// and requires identical ids and results from every accessor, before,
// across and long after the ring fills.
func TestSpanBufferLazyEquivalence(t *testing.T) {
	names := []string{"itlb-load", "dtlb-load", "tf-single-step", "slice"}
	for _, capacity := range []int{16, 100, 8192} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewSpanBuffer(capacity), newEagerSpanBuffer(capacity)
			var ids []SpanID
			cycle := uint64(0)
			for op := 0; op < 3*capacity+50; op++ {
				cycle += uint64(rng.Intn(100))
				name, pid, vpn := names[rng.Intn(len(names))], rng.Intn(4), uint32(rng.Intn(64))
				switch k := rng.Intn(10); {
				case k < 3:
					g, w := got.Begin(name, pid, vpn, cycle), want.BeginChild(name, pid, vpn, cycle, SpanID{})
					if g != w {
						t.Fatalf("cap %d seed %d op %d: Begin %+v, eager %+v", capacity, seed, op, g, w)
					}
					ids = append(ids, g)
				case k < 5 && len(ids) > 0:
					parent := ids[rng.Intn(len(ids))]
					g, w := got.BeginChild(name, pid, vpn, cycle, parent), want.BeginChild(name, pid, vpn, cycle, parent)
					if g != w {
						t.Fatalf("cap %d seed %d op %d: BeginChild %+v, eager %+v", capacity, seed, op, g, w)
					}
					ids = append(ids, g)
				case k < 8 && len(ids) > 0:
					id := ids[rng.Intn(len(ids))]
					gs, gok := got.End(id, cycle)
					ws, wok := want.End(id, cycle)
					if gs != ws || gok != wok {
						t.Fatalf("cap %d seed %d op %d: End (%d, %v), eager (%d, %v)", capacity, seed, op, gs, gok, ws, wok)
					}
				default:
					got.Instant(name, pid, vpn, cycle)
					want.Instant(name, pid, vpn, cycle)
				}
				if got.Cap() != len(want.buf) || got.Len() != want.Len() || got.Dropped() != want.dropped {
					t.Fatalf("cap %d seed %d op %d: Cap/Len/Dropped %d/%d/%d, eager %d/%d/%d", capacity, seed, op,
						got.Cap(), got.Len(), got.Dropped(), len(want.buf), want.Len(), want.dropped)
				}
				if op%97 == 0 || op == 3*capacity+49 {
					ws := want.Spans()
					if gs := got.Spans(); !slices.Equal(gs, ws) {
						t.Fatalf("cap %d seed %d op %d: Spans differ from the eager ring", capacity, seed, op)
					}
					n := rng.Intn(capacity + 1)
					if n > 0 && len(ws) > n {
						ws = ws[len(ws)-n:]
					}
					if gt := got.Tail(n); !slices.Equal(gt, ws) {
						t.Fatalf("cap %d seed %d op %d: Tail(%d) differs from the eager ring", capacity, seed, op, n)
					}
				}
			}
		}
	}
}
