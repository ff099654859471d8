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

// TestRingEachAndReset: Each visits the items Items copies, oldest first,
// before the ring fills and at every wrap position after; Reset empties a
// ring.
func TestRingEachAndReset(t *testing.T) {
	const n = 4
	r := NewRing[int](n)
	for v := 0; v <= 3*n; v++ {
		if v > 0 {
			r.Push(v)
		}
		var each []int
		r.Each(func(x int) { each = append(each, x) })
		if want := r.Items(); !slices.Equal(each, want) {
			t.Fatalf("after %d pushes: Each visited %v, want %v", v, each, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Evicted() != 0 || len(r.Items()) != 0 {
		t.Fatalf("Reset left %v (evicted %d)", r.Items(), r.Evicted())
	}
}
