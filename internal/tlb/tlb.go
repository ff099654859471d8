// Package tlb models the split translation lookaside buffers of the S86
// machine. Modern x86 parts keep separate instruction and data TLBs; the
// split-memory technique (Riley/Jiang/Xu) works precisely because the two
// can be deliberately desynchronized: an entry cached in one TLB keeps
// serving translations after the pagetable entry has been re-restricted or
// re-pointed, so the same virtual page resolves to different physical frames
// for fetches and for loads/stores.
//
// The model is architectural, not microarchitectural: fully-associative,
// true-LRU replacement, per-entry caching of the frame number and the
// User/Writable/NX permission bits exactly as they stood in the PTE when the
// hardware walker filled the entry. A small direct-mapped hint table in
// front of the slot array accelerates the lookup without allocating: each
// cell counts the valid entries whose vpn hashes to it and remembers the
// slot that last held one, so a lookup checks one slot and scans the array
// only on a hash collision. The visible behavior is that of a
// fully-associative LRU array.
package tlb

import (
	"splitmem/internal/snapshot"
	"splitmem/internal/telemetry"
)

// Entry is one cached translation.
type Entry struct {
	Frame    uint32 // physical frame number
	User     bool   // PTE User bit at fill time
	Writable bool   // PTE Writable bit at fill time
	NoExec   bool   // PTE NX bit at fill time
}

type slot struct {
	vpn   uint32
	entry Entry
	valid bool
	used  uint64 // LRU timestamp
}

// bucket is one hint-table cell: the number of valid slots whose vpn hashes
// to it, and the slot that most recently held one of them. The slot is only
// a hint and is verified against the slot array before it is trusted.
type bucket struct {
	n    uint32
	slot uint32
}

// TLB is a single translation lookaside buffer.
type TLB struct {
	slots  []slot
	hint   []bucket // indexed by vpn&mask
	mask   uint32
	nvalid int
	tick   uint64

	hits      uint64
	misses    uint64
	evictions uint64
	flushes   uint64
}

// New creates a TLB with the given number of entries (minimum 1).
func New(size int) *TLB {
	if size < 1 {
		size = 1
	}
	// Four hint cells per entry keep collisions rare for the clustered vpns
	// of a process image (text, heap and stack pages).
	n := 1
	for n < 4*size {
		n <<= 1
	}
	return &TLB{
		slots: make([]slot, size),
		hint:  make([]bucket, n),
		mask:  uint32(n - 1),
	}
}

// Size returns the TLB capacity in entries.
func (t *TLB) Size() int { return len(t.slots) }

// find returns the slot caching vpn, or -1.
func (t *TLB) find(vpn uint32) int {
	b := &t.hint[vpn&t.mask]
	if b.n == 0 {
		return -1
	}
	if s := &t.slots[b.slot]; s.vpn == vpn && s.valid {
		return int(b.slot)
	}
	return t.scan(b, vpn)
}

// scan is find's slow path for a bucket whose hint slot does not hold vpn.
func (t *TLB) scan(b *bucket, vpn uint32) int {
	if s := &t.slots[b.slot]; b.n == 1 && s.valid && s.vpn&t.mask == vpn&t.mask {
		return -1 // the bucket's only entry is another vpn
	}
	for i := range t.slots {
		if s := &t.slots[i]; s.vpn == vpn && s.valid {
			b.slot = uint32(i)
			return i
		}
	}
	return -1
}

// link marks slot i valid in the hint table and the valid count.
func (t *TLB) link(i int) {
	b := &t.hint[t.slots[i].vpn&t.mask]
	b.n++
	b.slot = uint32(i)
	t.nvalid++
}

// unlink invalidates the valid slot i.
func (t *TLB) unlink(i int) {
	s := &t.slots[i]
	s.valid = false
	t.hint[s.vpn&t.mask].n--
	t.nvalid--
}

// Lookup returns the cached translation for virtual page number vpn. It
// tests the hint cell's slot first (LookupHint) and searches further only
// on a collision or a miss.
func (t *TLB) Lookup(vpn uint32) (Entry, bool) {
	if e, ok := t.LookupHint(vpn); ok {
		return e, true
	}
	i := t.find(vpn)
	if i < 0 {
		t.misses++
		return Entry{}, false
	}
	return t.hit(&t.slots[i]), true
}

// LookupHint is the first half of Lookup, small enough to inline into the
// machine's translation path: a hit in the slot the vpn's hint cell names,
// counted exactly as Lookup counts it. ok=false changes nothing, and the
// caller must then call Lookup, which decides between a hit elsewhere in
// the array and a miss.
func (t *TLB) LookupHint(vpn uint32) (Entry, bool) {
	if s := &t.slots[t.hint[vpn&t.mask].slot]; s.vpn == vpn && s.valid {
		return t.hit(s), true
	}
	return Entry{}, false
}

// hit records one Lookup hit on s: the LRU clock advances, s becomes most
// recently used, and the hit counter grows.
func (t *TLB) hit(s *slot) Entry {
	t.tick++
	s.used = t.tick
	t.hits++
	return s.entry
}

// Slot returns the index of the slot currently caching vpn without touching
// LRU state or statistics. It is the superblock engine's entry-pinning port:
// the engine resolves the slot once per page it runs on (whose Lookup
// already ran, or whose hit it replays) and replays per-instruction hits
// through TouchSlotN.
func (t *TLB) Slot(vpn uint32) (int, bool) {
	if i := t.find(vpn); i >= 0 {
		return i, true
	}
	return 0, false
}

// TouchSlotN replays the architectural bookkeeping of n Lookup hits on slot
// i: the LRU tick advances by n, the slot becomes most-recently-used, and
// the hit counter grows by n. Repeated hits on one entry leave every other
// entry's relative LRU order unchanged, so the TLB state is bit-identical to
// n Lookups of the slot's vpn; n <= 0 changes nothing.
func (t *TLB) TouchSlotN(i, n int) {
	if n <= 0 {
		return
	}
	s := &t.slots[i]
	t.tick += uint64(n)
	s.used = t.tick
	t.hits += uint64(n)
}

// SlotEntry returns the translation cached in slot i, as found by Slot,
// without touching LRU state or statistics.
func (t *TLB) SlotEntry(i int) Entry { return t.slots[i].entry }

// Probe is like Lookup but does not update LRU state or statistics. It is a
// test/introspection helper (real hardware has no such port; the kernel
// never uses it).
func (t *TLB) Probe(vpn uint32) (Entry, bool) {
	if i := t.find(vpn); i >= 0 {
		return t.slots[i].entry, true
	}
	return Entry{}, false
}

// Insert fills the translation for vpn, evicting the least recently used
// entry if the TLB is full. An existing entry for vpn is overwritten.
func (t *TLB) Insert(vpn uint32, e Entry) {
	t.tick++
	if i := t.find(vpn); i >= 0 {
		s := &t.slots[i]
		s.entry = e
		s.used = t.tick
		return
	}
	vi := t.victim()
	if t.slots[vi].valid {
		t.unlink(vi)
		t.evictions++
	}
	t.slots[vi] = slot{vpn: vpn, entry: e, used: t.tick, valid: true}
	t.link(vi)
}

// victim picks the slot a new entry fills: the first invalid slot, else the
// true LRU entry (the smallest timestamp, the first in slot order on a tie).
func (t *TLB) victim() int {
	if t.nvalid < len(t.slots) {
		for i := range t.slots {
			if !t.slots[i].valid {
				return i
			}
		}
	}
	vi := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].used < t.slots[vi].used {
			vi = i
		}
	}
	return vi
}

// Range calls fn for every valid entry in slot order (a deterministic
// order, unlike Go map iteration) until fn returns false. It does not touch
// LRU state or statistics; the invariant auditor and the chaos injector use
// it to walk the array the way a hardware debug port would.
func (t *TLB) Range(fn func(vpn uint32, e Entry) bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if !s.valid {
			continue
		}
		if !fn(s.vpn, s.entry) {
			return
		}
	}
}

// EvictNth invalidates the n-th valid entry in slot order and returns its
// vpn. It models a spurious hardware eviction (chaos fault injection);
// nothing in the normal machine calls it.
func (t *TLB) EvictNth(n int) (uint32, bool) {
	if n < 0 {
		return 0, false
	}
	for i := range t.slots {
		if !t.slots[i].valid {
			continue
		}
		if n == 0 {
			t.unlink(i)
			t.evictions++
			return t.slots[i].vpn, true
		}
		n--
	}
	return 0, false
}

// FlushRetaining flushes the TLB but asks retain, per valid entry, whether
// that entry (incorrectly) survives — the stale-entry-retention hardware
// fault the chaos engine injects to model broken TLB shootdowns. A nil
// retain behaves exactly like Flush. Returns the number of retained entries.
func (t *TLB) FlushRetaining(retain func(vpn uint32) bool) int {
	kept := 0
	for i := range t.slots {
		if !t.slots[i].valid {
			continue
		}
		if retain != nil && retain(t.slots[i].vpn) {
			kept++
			continue
		}
		t.unlink(i)
	}
	t.flushes++
	return kept
}

// Invalidate drops any cached translation for vpn (the invlpg operation
// targets both TLBs; the machine calls this on each).
func (t *TLB) Invalidate(vpn uint32) {
	if i := t.find(vpn); i >= 0 {
		t.unlink(i)
	}
}

// Flush drops every cached translation (CR3 reload).
func (t *TLB) Flush() { t.FlushRetaining(nil) }

// Valid returns the number of valid entries.
func (t *TLB) Valid() int { return t.nvalid }

// Stats reports hit/miss/eviction/flush counters.
func (t *TLB) Stats() (hits, misses, evictions, flushes uint64) {
	return t.hits, t.misses, t.evictions, t.flushes
}

// ResetStats zeroes the statistics counters.
func (t *TLB) ResetStats() {
	t.hits, t.misses, t.evictions, t.flushes = 0, 0, 0, 0
}

// EncodeState serializes the exact associative-array state: every slot in
// array order with its LRU timestamp, plus the LRU clock and the counters.
// Slot order and timestamps are architectural here — they decide every future
// eviction victim — so the restore must be positional, not just "reinsert the
// valid entries".
func (t *TLB) EncodeState(w *snapshot.Writer) {
	w.U32(uint32(len(t.slots)))
	w.U64(t.tick)
	w.U64(t.hits)
	w.U64(t.misses)
	w.U64(t.evictions)
	w.U64(t.flushes)
	for i := range t.slots {
		s := &t.slots[i]
		w.Bool(s.valid)
		w.U32(s.vpn)
		w.U32(s.entry.Frame)
		w.Bool(s.entry.User)
		w.Bool(s.entry.Writable)
		w.Bool(s.entry.NoExec)
		w.U64(s.used)
	}
}

// DecodeState restores state serialized by EncodeState into a TLB of the
// same capacity, rebuilding the hint table and rejecting two valid slots
// that cache the same vpn.
func (t *TLB) DecodeState(r *snapshot.Reader) error {
	if n := r.U32(); int(n) != len(t.slots) {
		return snapshot.Corruptf("tlb: %d slots, machine has %d", n, len(t.slots))
	}
	t.tick = r.U64()
	t.hits = r.U64()
	t.misses = r.U64()
	t.evictions = r.U64()
	t.flushes = r.U64()
	for i := range t.slots {
		s := &t.slots[i]
		s.valid = r.Bool()
		s.vpn = r.U32()
		s.entry.Frame = r.U32()
		s.entry.User = r.Bool()
		s.entry.Writable = r.Bool()
		s.entry.NoExec = r.Bool()
		s.used = r.U64()
	}
	clear(t.hint)
	t.nvalid = 0
	for i := range t.slots {
		s := &t.slots[i]
		if !s.valid {
			continue
		}
		if t.hint[s.vpn&t.mask].n > 0 {
			for j := range i {
				if o := &t.slots[j]; o.valid && o.vpn == s.vpn {
					return snapshot.Corruptf("tlb: duplicate valid vpn %#x", s.vpn)
				}
			}
		}
		t.link(i)
	}
	return r.Err()
}

// RegisterTelemetry registers this TLB's counters as sampled gauges
// under the given metric name prefix ("splitmem_itlb", "splitmem_dtlb").
// Sampling happens at export time, so the lookup hot path is untouched.
func (t *TLB) RegisterTelemetry(r *telemetry.Registry, prefix string) {
	if r == nil {
		return
	}
	r.GaugeFunc(prefix+"_hits_total", "TLB lookup hits",
		func() float64 { return float64(t.hits) })
	r.GaugeFunc(prefix+"_misses_total", "TLB lookup misses",
		func() float64 { return float64(t.misses) })
	r.GaugeFunc(prefix+"_evictions_total", "LRU and chaos evictions",
		func() float64 { return float64(t.evictions) })
	r.GaugeFunc(prefix+"_flushes_total", "full flushes (CR3 reloads)",
		func() float64 { return float64(t.flushes) })
	r.GaugeFunc(prefix+"_valid_entries", "currently valid entries",
		func() float64 { return float64(t.nvalid) })
}
