package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"splitmem/internal/isa"
	"splitmem/internal/snapshot"
)

// eagerRing is the execution-trace ring as it was before it became a front
// end over telemetry.Ring: all n slots allocated up front, a cursor and a
// wrap flag. TestRingEagerEquivalence holds Ring to it.
type eagerRing struct {
	buf  []Entry
	pos  int
	full bool
}

func newEagerRing(n int) *eagerRing { return &eagerRing{buf: make([]Entry, max(n, 1))} }

func (r *eagerRing) Add(e Entry) {
	r.buf[r.pos] = e
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
		r.full = true
	}
}

func (r *eagerRing) Entries() []Entry {
	if !r.full {
		return slices.Clone(r.buf[:r.pos])
	}
	return append(slices.Clone(r.buf[r.pos:]), r.buf[:r.pos]...)
}

func encode(enc interface{ EncodeState(*snapshot.Writer) }) []byte {
	w := snapshot.NewWriter()
	enc.EncodeState(w)
	return w.Bytes()
}

// TestRingEagerEquivalence drives Ring and the eager reference through the
// same seeded Add sequences at capacities 1, 3, 16 and 1000, before,
// across and long after the ring fills, and requires identical Len,
// Entries, EntriesInto and listings. The encoded state round-trips: a ring
// decoded from it holds the same entries, re-encodes to the same bytes,
// and goes on adding and evicting as the reference does.
func TestRingEagerEquivalence(t *testing.T) {
	for _, n := range []int{1, 3, 16, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewRing(n), newEagerRing(n)
			every := max(7, n/32) // full comparisons are quadratic in n
			cycles := uint64(0)
			for op := 0; op <= 3*n+5; op++ {
				if op > 0 {
					cycles += uint64(1 + rng.Intn(40))
					e := Entry{Cycles: cycles, EIP: rng.Uint32(), Instr: isa.Instr{
						Op: isa.Op(rng.Intn(40)), R1: uint8(rng.Intn(8)), R2: uint8(rng.Intn(8)),
						Imm: rng.Uint32(), Size: 1 + rng.Intn(6)}}
					got.Add(e)
					want.Add(e)
				}
				we := want.Entries()
				if got.Len() != len(we) || got.Cap() != len(want.buf) {
					t.Fatalf("cap %d seed %d op %d: Len/Cap %d/%d, eager %d/%d", n, seed, op, got.Len(), got.Cap(), len(we), len(want.buf))
				}
				if op%every != 0 && op < 3*n {
					continue
				}
				if ge := got.Entries(); !slices.Equal(ge, we) {
					t.Fatalf("cap %d seed %d op %d: Entries differ from the eager ring", n, seed, op)
				}
				if gi := got.EntriesInto([]Entry{{Cycles: 1}}); !slices.Equal(gi[1:], we) {
					t.Fatalf("cap %d seed %d op %d: EntriesInto differs from the eager ring", n, seed, op)
				}
				if got.String() != Listing(we) {
					t.Fatalf("cap %d seed %d op %d: listing differs from the eager ring", n, seed, op)
				}
				gb := encode(got)
				back := NewRing(n)
				if err := back.DecodeState(snapshot.NewReader(gb)); err != nil {
					t.Fatalf("cap %d seed %d op %d: decoding the ring's bytes: %v", n, seed, op, err)
				}
				if bb := encode(back); !bytes.Equal(bb, gb) || !slices.Equal(back.Entries(), we) {
					t.Fatalf("cap %d seed %d op %d: the ring's bytes do not round-trip", n, seed, op)
				}
				ref := &eagerRing{buf: slices.Clone(want.buf), pos: want.pos, full: want.full}
				for k := range n + 2 {
					e := Entry{Cycles: cycles + uint64(k) + 1, EIP: uint32(k)}
					back.Add(e)
					ref.Add(e)
					if (k == 0 || k == n+1) && !slices.Equal(back.Entries(), ref.Entries()) {
						t.Fatalf("cap %d seed %d op %d: after %d more adds the restored ring holds %d entries, the eager ring %d",
							n, seed, op, k+1, back.Len(), len(ref.Entries()))
					}
				}
			}
		}
	}
}

// TestRingDecodeRejects: a capacity mismatch, a cursor out of range and a
// truncated slot array are corrupt, and leave the ring as it was.
func TestRingDecodeRejects(t *testing.T) {
	src := NewRing(4)
	for i := range 6 {
		src.Add(Entry{Cycles: uint64(i)})
	}
	good := encode(src)
	badCursor := slices.Clone(good)
	badCursor[4] = 9 // the cursor's low byte, after the 4-byte capacity
	for name, tc := range map[string]struct {
		n     int
		bytes []byte
	}{
		"capacity":  {3, good},
		"cursor":    {4, badCursor},
		"truncated": {4, good[:len(good)-5]},
	} {
		r := NewRing(tc.n)
		r.Add(Entry{Cycles: 77})
		if err := r.DecodeState(snapshot.NewReader(tc.bytes)); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
		if es := r.Entries(); len(es) != 1 || es[0].Cycles != 77 {
			t.Fatalf("%s: a failed decode changed the ring to %+v", name, es)
		}
	}
}
