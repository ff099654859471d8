package tlb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLookupMissThenHit(t *testing.T) {
	b := New(4)
	if _, ok := b.Lookup(5); ok {
		t.Fatal("unexpected hit in empty TLB")
	}
	b.Insert(5, Entry{Frame: 42, User: true})
	e, ok := b.Lookup(5)
	if !ok || e.Frame != 42 || !e.User {
		t.Fatalf("got %+v ok=%v", e, ok)
	}
	hits, misses, _, _ := b.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	b := New(2)
	b.Insert(1, Entry{Frame: 1})
	b.Insert(2, Entry{Frame: 2})
	// Touch 1 so 2 becomes LRU.
	if _, ok := b.Lookup(1); !ok {
		t.Fatal("1 missing")
	}
	b.Insert(3, Entry{Frame: 3})
	if _, ok := b.Probe(2); ok {
		t.Fatal("2 should have been evicted (LRU)")
	}
	if _, ok := b.Probe(1); !ok {
		t.Fatal("1 should survive")
	}
	if _, ok := b.Probe(3); !ok {
		t.Fatal("3 should be present")
	}
	_, _, ev, _ := b.Stats()
	if ev != 1 {
		t.Fatalf("evictions=%d", ev)
	}
}

func TestInsertOverwritesSameVPN(t *testing.T) {
	b := New(2)
	b.Insert(7, Entry{Frame: 1, User: false})
	b.Insert(7, Entry{Frame: 2, User: true})
	if b.Valid() != 1 {
		t.Fatalf("valid=%d want 1", b.Valid())
	}
	e, _ := b.Probe(7)
	if e.Frame != 2 || !e.User {
		t.Fatalf("entry not overwritten: %+v", e)
	}
}

// TestDesync demonstrates the property the split-memory technique relies on:
// an inserted entry keeps serving its cached frame and permissions even
// after the "pagetable" changed, until explicitly invalidated.
func TestDesync(t *testing.T) {
	itlb := New(4)
	dtlb := New(4)
	const vpn = 0xbf000
	itlb.Insert(vpn, Entry{Frame: 100, User: true}) // code frame
	dtlb.Insert(vpn, Entry{Frame: 200, User: true}) // data frame

	ie, _ := itlb.Lookup(vpn)
	de, _ := dtlb.Lookup(vpn)
	if ie.Frame == de.Frame {
		t.Fatal("TLBs should be desynchronized")
	}
	if ie.Frame != 100 || de.Frame != 200 {
		t.Fatalf("fetch->%d data->%d", ie.Frame, de.Frame)
	}
}

func TestInvalidate(t *testing.T) {
	b := New(4)
	b.Insert(1, Entry{Frame: 1})
	b.Insert(2, Entry{Frame: 2})
	b.Invalidate(1)
	if _, ok := b.Probe(1); ok {
		t.Fatal("1 should be invalid")
	}
	if _, ok := b.Probe(2); !ok {
		t.Fatal("2 should remain")
	}
	// Invalidate of absent vpn is a no-op.
	b.Invalidate(99)
}

func TestFlush(t *testing.T) {
	b := New(4)
	for i := uint32(0); i < 4; i++ {
		b.Insert(i, Entry{Frame: i})
	}
	b.Flush()
	if b.Valid() != 0 {
		t.Fatalf("valid=%d after flush", b.Valid())
	}
	_, _, _, fl := b.Stats()
	if fl != 1 {
		t.Fatalf("flushes=%d", fl)
	}
}

func TestMinimumSize(t *testing.T) {
	b := New(0)
	if b.Size() != 1 {
		t.Fatalf("size=%d want 1", b.Size())
	}
	b.Insert(1, Entry{Frame: 1})
	b.Insert(2, Entry{Frame: 2})
	if _, ok := b.Probe(1); ok {
		t.Fatal("1 should be evicted in 1-entry TLB")
	}
}

func TestResetStats(t *testing.T) {
	b := New(2)
	b.Insert(1, Entry{Frame: 1})
	b.Lookup(1)
	b.Lookup(9)
	b.ResetStats()
	h, m, e, f := b.Stats()
	if h|m|e|f != 0 {
		t.Fatalf("stats not reset: %d %d %d %d", h, m, e, f)
	}
}

// Property: a TLB never holds more than its capacity of valid entries, and
// the most recently inserted vpn is always present.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(vpns []uint32, sizeSeed uint8) bool {
		size := int(sizeSeed%16) + 1
		b := New(size)
		for _, v := range vpns {
			b.Insert(v, Entry{Frame: v})
			if b.Valid() > size {
				return false
			}
			if _, ok := b.Probe(v); !ok {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocFree: lookups, fills, evictions and flushes touch only
// the preallocated slot and hint arrays.
func TestHotPathAllocFree(t *testing.T) {
	b := New(32)
	allocs := testing.AllocsPerRun(100, func() {
		for v := uint32(0); v < 48; v++ {
			if _, ok := b.Lookup(0x08048 + v); !ok {
				b.Insert(0x08048+v, Entry{Frame: v, User: true})
			}
		}
		b.Flush()
	})
	if allocs != 0 {
		t.Fatalf("Lookup/Insert/Flush cycle allocated %.1f times", allocs)
	}
}

var sinkEntry Entry

// BenchmarkTLBLookup times a Lookup that hits (a resident working set) and
// one that misses (a vpn never inserted, sharing hint cells with resident
// entries) at the ITLB's 32 and the DTLB's 64 entries.
func BenchmarkTLBLookup(b *testing.B) {
	for _, size := range []int{32, 64} {
		t := New(size)
		for v := uint32(0); v < uint32(size); v++ {
			t.Insert(0x08048+v, Entry{Frame: v, User: true})
		}
		b.Run(fmt.Sprintf("hit/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkEntry, _ = t.Lookup(0x08048 + uint32(i)%uint32(size))
			}
		})
		b.Run(fmt.Sprintf("miss/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkEntry, _ = t.Lookup(0x18048 + uint32(i)%uint32(size))
			}
		})
	}
}
