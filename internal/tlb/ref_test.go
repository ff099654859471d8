package tlb

import "splitmem/internal/snapshot"

// refTLB is the map-indexed TLB the hint table replaced, kept as the
// reference model FuzzTLBModel compares against: a fully-associative
// true-LRU array with a Go map from vpn to slot for the valid slots.
type refTLB struct {
	slots []slot
	index map[uint32]int
	tick  uint64

	hits, misses, evictions, flushes uint64
}

func newRef(size int) *refTLB {
	if size < 1 {
		size = 1
	}
	return &refTLB{slots: make([]slot, size), index: make(map[uint32]int, size)}
}

func (t *refTLB) Lookup(vpn uint32) (Entry, bool) {
	if i, ok := t.index[vpn]; ok {
		s := &t.slots[i]
		t.tick++
		s.used = t.tick
		t.hits++
		return s.entry, true
	}
	t.misses++
	return Entry{}, false
}

func (t *refTLB) Slot(vpn uint32) (int, bool) {
	i, ok := t.index[vpn]
	return i, ok
}

func (t *refTLB) TouchSlot(i int) {
	s := &t.slots[i]
	t.tick++
	s.used = t.tick
	t.hits++
}

func (t *refTLB) Probe(vpn uint32) (Entry, bool) {
	if i, ok := t.index[vpn]; ok {
		return t.slots[i].entry, true
	}
	return Entry{}, false
}

func (t *refTLB) Insert(vpn uint32, e Entry) {
	t.tick++
	if i, ok := t.index[vpn]; ok {
		s := &t.slots[i]
		s.entry = e
		s.used = t.tick
		return
	}
	var victim *slot
	vi := -1
	for i := range t.slots {
		s := &t.slots[i]
		if !s.valid {
			victim, vi = s, i
			break
		}
		if victim == nil || s.used < victim.used {
			victim, vi = s, i
		}
	}
	if victim.valid {
		delete(t.index, victim.vpn)
		t.evictions++
	}
	*victim = slot{vpn: vpn, entry: e, used: t.tick, valid: true}
	t.index[vpn] = vi
}

func (t *refTLB) EvictNth(n int) (uint32, bool) {
	if n < 0 {
		return 0, false
	}
	for i := range t.slots {
		s := &t.slots[i]
		if !s.valid {
			continue
		}
		if n == 0 {
			s.valid = false
			delete(t.index, s.vpn)
			t.evictions++
			return s.vpn, true
		}
		n--
	}
	return 0, false
}

func (t *refTLB) FlushRetaining(retain func(vpn uint32) bool) int {
	kept := 0
	for i := range t.slots {
		s := &t.slots[i]
		if !s.valid {
			continue
		}
		if retain != nil && retain(s.vpn) {
			kept++
			continue
		}
		s.valid = false
		delete(t.index, s.vpn)
	}
	t.flushes++
	return kept
}

func (t *refTLB) Invalidate(vpn uint32) {
	if i, ok := t.index[vpn]; ok {
		t.slots[i].valid = false
		delete(t.index, vpn)
	}
}

func (t *refTLB) Flush() {
	for i := range t.slots {
		t.slots[i].valid = false
	}
	clear(t.index)
	t.flushes++
}

func (t *refTLB) Valid() int { return len(t.index) }

func (t *refTLB) Stats() (hits, misses, evictions, flushes uint64) {
	return t.hits, t.misses, t.evictions, t.flushes
}

func (t *refTLB) EncodeState(w *snapshot.Writer) {
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

func (t *refTLB) DecodeState(r *snapshot.Reader) error {
	if n := r.U32(); int(n) != len(t.slots) {
		return snapshot.Corruptf("tlb: %d slots, machine has %d", n, len(t.slots))
	}
	t.tick = r.U64()
	t.hits = r.U64()
	t.misses = r.U64()
	t.evictions = r.U64()
	t.flushes = r.U64()
	clear(t.index)
	for i := range t.slots {
		s := &t.slots[i]
		s.valid = r.Bool()
		s.vpn = r.U32()
		s.entry.Frame = r.U32()
		s.entry.User = r.Bool()
		s.entry.Writable = r.Bool()
		s.entry.NoExec = r.Bool()
		s.used = r.U64()
		if s.valid {
			if _, dup := t.index[s.vpn]; dup {
				return snapshot.Corruptf("tlb: duplicate valid vpn %#x", s.vpn)
			}
			t.index[s.vpn] = i
		}
	}
	return r.Err()
}
