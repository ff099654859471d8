package telemetry

import (
	"slices"
	"testing"
)

// TestRingTailCopiesOnlyTail: Tail(n) is the last n items of Items, oldest
// first, in a slice of exactly n — before the ring fills and at every
// wrap position after.
func TestRingTailCopiesOnlyTail(t *testing.T) {
	const n = 5
	r := NewRing[int](n)
	for v := 1; v <= 3*n; v++ {
		r.Push(v)
		all := r.Items()
		for k := 0; k <= n+1; k++ {
			want := all
			if k > 0 && k < len(all) {
				want = all[len(all)-k:]
			}
			got := r.Tail(k)
			if !slices.Equal(got, want) {
				t.Fatalf("after %d pushes: Tail(%d) = %v, want %v", v, k, got, want)
			}
			if cap(got) != len(want) {
				t.Fatalf("after %d pushes: Tail(%d) copied into a slice of cap %d", v, k, cap(got))
			}
		}
	}
}

// TestRingSlotsRoundTrip: the positional form Slots reports — cursor, wrap
// flag, filled slots — restores through SetSlots into a ring that holds,
// and goes on recording, the same items; Reset empties a ring.
func TestRingSlotsRoundTrip(t *testing.T) {
	const n = 4
	r := NewRing[int](n)
	for v := 1; v <= 3*n; v++ {
		next, wrapped, filled := r.Slots()
		held := v - 1
		if wrapped != (held >= n) || (!wrapped && next != held) || len(filled) != min(held, n) {
			t.Fatalf("after %d pushes: Slots = %d, %v, %v", held, next, wrapped, filled)
		}
		back := NewRing[int](n)
		back.SetSlots(next, slices.Clone(filled))
		back.Push(v)
		r.Push(v)
		if !slices.Equal(back.Items(), r.Items()) {
			t.Fatalf("after %d pushes: restored ring holds %v, want %v", v, back.Items(), r.Items())
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Evicted() != 0 || len(r.Items()) != 0 {
		t.Fatalf("Reset left %v (evicted %d)", r.Items(), r.Evicted())
	}
}
