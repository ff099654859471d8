package cpu

import (
	"splitmem/internal/isa"
	"splitmem/internal/mem"
)

// The predecoded-instruction cache ("decode cache") is the machine's host-
// side fast path: instead of re-reading and re-decoding the bytes at EIP on
// every retire, decoded instructions are cached per PHYSICAL code frame and
// replayed on later fetches of the same physical address.
//
// The cache is a pure host optimization and must be architecturally
// invisible: every fetch still performs the full Translate (so ITLB
// hits/misses, pagetable walks, permission faults, and the split engine's
// detection points are reproduced bit-for-bit), and a cached entry is only
// used when both of its coherence stamps are current:
//
//   - the frame's write generation (mem.Physical.Gen): bumped by every
//     store, frame hand-out, frame copy, allocation and chaos bit flip that
//     can change the frame's bytes — self-modifying and injected code
//     invalidate themselves;
//   - the machine's decode epoch: bumped on every TLB flush and invlpg
//     shootdown, mirroring the conservative coherence points the paper's
//     trap algorithms rely on.
//
// The split engine additionally drops single frames at each PTE
// re-restriction (DropDecodeFrame). A drop empties the frame's state in
// place in O(1) (see pageTable), so the state is allocated once per frame
// and the re-restriction path, which runs on every split TLB load, neither
// allocates nor clears a page's worth of cells.
//
// Instructions that cross a frame boundary are never cached: their slow-path
// fetch translates (and may fault on, and fills the ITLB for) the second
// page, and replaying them would skip those architectural side effects.
//
// The differential-execution oracle (oracle_test.go) proves the fast path
// retires the identical architectural stream as the slow path across every
// workload and every attack form.

// pageTable maps the byte offsets of one page to 16-bit values, 0 meaning
// unset. Every cell records the table generation it was written in, so
// reset forgets all values in O(1) by advancing the generation; the cells
// are cleared only when the generation wraps. A re-split frame therefore
// costs nothing to invalidate, however large its page.
type pageTable struct {
	gen  uint16
	cell [mem.PageSize]uint32 // gen<<16 | value
}

func (t *pageTable) get(off uint32) uint16 {
	if c := t.cell[off&mem.PageMask]; uint16(c>>16) == t.gen {
		return uint16(c)
	}
	return 0
}

func (t *pageTable) set(off uint32, v uint16) {
	t.cell[off&mem.PageMask] = uint32(t.gen)<<16 | uint32(v)
}

func (t *pageTable) reset() {
	t.gen++
	if t.gen == 0 {
		clear(t.cell[:])
	}
}

// decFrame caches the decode results of one physical frame: at maps each
// byte offset decoded since the last invalidation to its instruction's
// index in ins, plus one.
type decFrame struct {
	ins  []isa.Instr
	wgen uint64 // mem.Physical.Gen at fill time
	egen uint64 // Machine.decEpoch at fill time
	at   pageTable
}

// empty forgets the frame's entries in place.
func (d *decFrame) empty() {
	d.at.reset()
	d.ins = d.ins[:0]
}

// reset empties the frame and restamps it.
func (d *decFrame) reset(wgen, egen uint64) {
	d.empty()
	d.wgen, d.egen = wgen, egen
}

// decodeLookup returns the cached decoding of the instruction at physical
// address pa, if the cache holds a current one.
func (m *Machine) decodeLookup(pa uint32) (isa.Instr, bool) {
	f := pa >> mem.PageShift
	if int(f) >= len(m.dec) {
		return isa.Instr{}, false
	}
	df := m.dec[f]
	if df == nil || df.wgen != m.Phys.Gen(f) || df.egen != m.decEpoch {
		return isa.Instr{}, false
	}
	i := df.at.get(pa)
	if i == 0 {
		return isa.Instr{}, false
	}
	return df.ins[i-1], true
}

// decodeFill caches a successfully decoded instruction at physical address
// pa. Frame-crossing instructions are rejected (see the package comment).
func (m *Machine) decodeFill(pa uint32, in isa.Instr) {
	if m.dec == nil {
		m.dec = make([]*decFrame, m.Phys.NumFrames())
	}
	f := pa >> mem.PageShift
	if int(f) >= len(m.dec) {
		return
	}
	off := pa & mem.PageMask
	if off+uint32(in.Size) > mem.PageSize {
		return
	}
	wgen := m.Phys.Gen(f)
	df := m.dec[f]
	switch {
	case df == nil:
		df = &decFrame{}
		df.reset(wgen, m.decEpoch)
		m.dec[f] = df
	case df.wgen != wgen || df.egen != m.decEpoch:
		if len(df.ins) > 0 { // an emptied frame was counted by its drop
			m.Stats.DecodeInvalidations++
		}
		df.reset(wgen, m.decEpoch)
	}
	// Fills only follow lookup misses under current stamps, so each offset
	// is filled at most once per reset and len(ins) stays within a page.
	df.ins = append(df.ins, in)
	df.at.set(off, uint16(len(df.ins)))
}

// DropDecodeFrame discards any cached decodings — and compiled superblocks —
// of physical frame f. The split engine calls it at every PTE re-restriction
// so the fast paths can never outlive the trap points Algorithms 1-2 depend
// on; it is also the hook for any future path that changes what a frame
// means without writing to it. The frame's state is emptied in place, so a
// drop neither frees nor allocates. Each drop that discards cached entries
// counts one invalidation; dropping an empty frame, or refilling a dropped
// one, counts none. No-op when both fast paths are disabled.
func (m *Machine) DropDecodeFrame(f uint32) {
	if int(f) < len(m.dec) {
		if df := m.dec[f]; df != nil && len(df.ins) > 0 {
			df.empty()
			m.Stats.DecodeInvalidations++
		}
	}
	if int(f) < len(m.sb) {
		if sbf := m.sb[f]; sbf != nil {
			if len(sbf.blocks) > 0 {
				m.Stats.SuperblockInvalidations++
			}
			sbf.empty()
		}
	}
}

// InvalidateDecode discards the entire decode cache and every compiled
// superblock by advancing the shared decode epoch. Called on TLB flushes and
// invlpg shootdowns; cheap (the per-frame state is lazily restamped on its
// next fetch).
func (m *Machine) InvalidateDecode() {
	if !m.decOn && !m.sbOn {
		return
	}
	m.decEpoch++
}
