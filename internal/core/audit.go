package core

// audit.go implements the Paranoid invariant auditor: after every protector
// entry point (MapPage, HandleFault, HandleDebug, HandleUndefined, ForkPage,
// ReleasePage, ProtectPage) it walks both TLBs and every process's pagetable
// and split-pair table, asserting the Harvard invariants the engine's
// security argument rests on:
//
//  1. pair sanity — every split page has an allocated data twin, a distinct
//     allocated code twin (or a deliberately-deferred lazy one), and no
//     physical frame serves two pairs or both roles at once;
//  2. restriction — the PTE of a split page keeps the Split bit, points at
//     the data twin, and stays supervisor-only, except during an in-flight
//     instruction-TLB load (PendingSplitValid), when it may point at the
//     code twin with the User bit set;
//  3. trap-flag hygiene — TF is set only while an instruction-TLB load is
//     in flight; a leaked TF would single-step the guest forever;
//  4. TLB coherence — an ITLB entry for a split page maps its code twin and
//     a DTLB entry maps its data twin; globally, no ITLB entry anywhere maps
//     any process's data twin and no DTLB entry maps a code twin (the
//     virtualized Harvard separation itself).
//
// Violations are contained, never fatal: incoherent TLB entries are healed
// (invalidated, forcing a clean reload through the fault path) and the
// finding is logged. When the chaos injector admits to having swallowed the
// shootdown for that page (Config.StaleVPN), the healed entry is attributed
// to the injected hardware fault and logged as EvMachineCheck; otherwise it
// is an engine bug and logged as EvInvariantViolation.

import (
	"fmt"
	"slices"

	"splitmem/internal/kernel"
	"splitmem/internal/paging"
	"splitmem/internal/tlb"
)

// violate records an engine-state inconsistency as a structured event.
func (e *Engine) violate(k *kernel.Kernel, origin string, p *kernel.Process, format string, args ...any) {
	e.stats.Violations++
	ev := kernel.Event{
		Kind: kernel.EvInvariantViolation,
		Text: origin + ": " + fmt.Sprintf(format, args...),
	}
	if p != nil {
		ev.PID = p.PID
		ev.Proc = p.Name
	}
	k.Emit(ev)
}

// heal invalidates an incoherent TLB entry and classifies it: attributed to
// an injected stale-TLB fault (machine check) or unexplained (violation).
func (e *Engine) heal(k *kernel.Kernel, origin string, p *kernel.Process, t *tlb.TLB, name string, vpn uint32, why string) {
	t.Invalidate(vpn)
	e.stats.HealedTLB++
	if e.cfg.StaleVPN != nil && e.cfg.StaleVPN(vpn) {
		e.stats.AttributedHeals++
		k.Emit(kernel.Event{
			Kind: kernel.EvMachineCheck,
			Text: fmt.Sprintf("%s: healed injected stale %s entry for page %#x (%s)", origin, name, vpn, why),
		})
		return
	}
	e.violate(k, origin, p, "incoherent %s entry for page %#x: %s", name, vpn, why)
}

// auditScratch is the Paranoid walk's working state, kept on the Engine so
// that an audit reuses the last one's storage.
type auditScratch struct {
	vpns       []uint32        // every process's split pages, ascending per process
	from       []int           // procs[i]'s pages are vpns[from[i]:from[i+1]]
	codeFrames map[uint32]bool // the code twin of every split pair
	dataFrames map[uint32]bool // the data twin of every split pair
}

// audit is the Paranoid walk; origin names the protector entry point that
// just ran, for the event log. Each process's pair table is sorted once, so
// walks, and therefore event logs, are deterministic.
func (e *Engine) audit(k *kernel.Kernel, origin string) {
	e.stats.Audits++
	m := k.Machine()
	procs := k.Processes()

	// Global twin-frame registry, and cross-pair duplicate detection.
	s := &e.aud
	if s.codeFrames == nil {
		s.codeFrames, s.dataFrames = map[uint32]bool{}, map[uint32]bool{}
	}
	clear(s.codeFrames)
	clear(s.dataFrames)
	codeFrames, dataFrames := s.codeFrames, s.dataFrames
	s.vpns, s.from = s.vpns[:0], s.from[:0]
	for _, p := range procs {
		s.from = append(s.from, len(s.vpns))
		st, ok := p.ProtData.(*procState)
		if !ok {
			continue
		}
		start := len(s.vpns)
		for vpn := range st.pairs {
			s.vpns = append(s.vpns, vpn)
		}
		slices.Sort(s.vpns[start:])
		for _, vpn := range s.vpns[start:] {
			pr := st.pairs[vpn]
			if pr.code != 0 {
				if codeFrames[pr.code] || dataFrames[pr.code] {
					e.violate(k, origin, p, "frame %d backs two split twins (page %#x)", pr.code, vpn)
				}
				codeFrames[pr.code] = true
			}
			if dataFrames[pr.data] || codeFrames[pr.data] {
				e.violate(k, origin, p, "frame %d backs two split twins (page %#x)", pr.data, vpn)
			}
			dataFrames[pr.data] = true
		}
	}

	s.from = append(s.from, len(s.vpns))

	for i, p := range procs {
		// Trap-flag hygiene holds for every process, split pages or not: the
		// live flags for the process on the CPU, the saved context otherwise.
		tf := p.Ctx.Flags.TF
		if p == k.Current() {
			tf = m.Ctx.Flags.TF
		}
		if tf && !p.PendingSplitValid {
			e.violate(k, origin, p, "trap flag set with no instruction-TLB load in flight")
		}

		st, ok := p.ProtData.(*procState)
		if !ok || len(st.pairs) == 0 {
			continue
		}
		tlbCurrent := m.Pagetable() == p.PT // the TLBs cache this process's mappings
		for _, vpn := range s.vpns[s.from[i]:s.from[i+1]] {
			pr := st.pairs[vpn]

			// Pair sanity: both twins allocated and distinct.
			if pr.data == 0 || k.Phys().RefCount(pr.data) == 0 {
				e.violate(k, origin, p, "data twin of page %#x (frame %d) is not allocated", vpn, pr.data)
			}
			if pr.code != 0 {
				if pr.code == pr.data {
					e.violate(k, origin, p, "page %#x twins collapsed onto frame %d", vpn, pr.code)
				}
				if k.Phys().RefCount(pr.code) == 0 {
					e.violate(k, origin, p, "code twin of page %#x (frame %d) is not allocated", vpn, pr.code)
				}
			}

			// Restriction: the PTE is re-restricted whenever no load is in
			// flight.
			ent := p.PT.Get(vpn)
			inflight := p.PendingSplitValid && paging.VPN(p.PendingSplit) == vpn
			switch {
			case !ent.Present() || !ent.Split():
				e.violate(k, origin, p, "split page %#x PTE lost Present/Split (%#x)", vpn, uint64(ent))
			case ent.Frame() == pr.data && !ent.User():
				// The steady state: restricted, pointing at the data twin.
			case inflight && ent.Frame() == pr.code && ent.User():
				// Unrestricted onto the code twin mid instruction-TLB load.
			default:
				e.violate(k, origin, p,
					"split page %#x PTE frame=%d user=%v (twins code=%d data=%d, inflight=%v)",
					vpn, ent.Frame(), ent.User(), pr.code, pr.data, inflight)
			}

			// Per-page TLB coherence, only meaningful for the process whose
			// pagetable is loaded (context switches flush both TLBs).
			if !tlbCurrent {
				continue
			}
			if ie, ok := m.ITLB.Probe(vpn); ok && (pr.code == 0 || ie.Frame != pr.code) {
				e.heal(k, origin, p, m.ITLB, "ITLB", vpn,
					fmt.Sprintf("maps frame %d, code twin is %d", ie.Frame, pr.code))
			}
			if de, ok := m.DTLB.Probe(vpn); ok && de.Frame != pr.data {
				e.heal(k, origin, p, m.DTLB, "DTLB", vpn,
					fmt.Sprintf("maps frame %d, data twin is %d", de.Frame, pr.data))
			}
		}
	}

	// Global Harvard separation: no fetch path to any data twin, no
	// load/store path to any code twin — across every split pair in the
	// system, whatever vpn the entry is cached under (a stale entry retained
	// across a context-switch flush can alias another process's twins).
	cur := k.Current()
	for _, bad := range tlbTwinBreaches(m.ITLB, dataFrames) {
		e.heal(k, origin, cur, m.ITLB, "ITLB", bad,
			"instruction fetches can reach a data twin")
	}
	for _, bad := range tlbTwinBreaches(m.DTLB, codeFrames) {
		e.heal(k, origin, cur, m.DTLB, "DTLB", bad,
			"loads/stores can reach a code twin")
	}
}

// tlbTwinBreaches collects the vpns of entries mapping any frame in the
// forbidden twin set (collected first: healing mutates the TLB).
func tlbTwinBreaches(t *tlb.TLB, forbidden map[uint32]bool) []uint32 {
	var bad []uint32
	t.Range(func(vpn uint32, en tlb.Entry) bool {
		if forbidden[en.Frame] {
			bad = append(bad, vpn)
		}
		return true
	})
	return bad
}
