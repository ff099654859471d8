// Package core implements the paper's primary contribution: the virtual
// split-memory (virtualized Harvard) architecture built by desynchronizing
// the x86's split instruction/data TLBs (Riley, Jiang, Xu — "An
// Architectural Approach to Preventing Code Injection Attacks", DSN'07 /
// TDSC 2010).
//
// Every protected virtual page is backed by two physical frames — a code
// twin (the only frame instruction fetches can reach) and a data twin (the
// only frame loads and stores can reach). The pagetable entry stays
// "restricted" (supervisor-only) so that every TLB miss traps into the
// page-fault handler, which tells code accesses from data accesses by the
// paper's addr==EIP test and loads exactly one TLB:
//
//   - data-TLB load (Algorithm 1, lines 7-11): point the PTE at the data
//     twin, unrestrict, touch a byte (the hardware walk fills the DTLB),
//     re-restrict;
//   - instruction-TLB load (Algorithm 1 lines 2-5 + Algorithm 2): point the
//     PTE at the code twin, unrestrict, set the trap flag and restart the
//     instruction; the debug interrupt then re-restricts.
//
// Injected code therefore lands on the data twin and can never be fetched.
// Detection happens at the unique moment the first injected instruction is
// about to run, enabling the break, observe (Algorithm 3) and forensics
// response modes.
package core

import (
	"fmt"

	"splitmem/internal/cpu"
	"splitmem/internal/isa"
	"splitmem/internal/kernel"
	"splitmem/internal/loader"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
	"splitmem/internal/telemetry"
	"splitmem/internal/tlb"
	"splitmem/internal/trace"
)

// ResponseMode selects what happens when injected-code execution is
// detected (§4.5).
type ResponseMode int

// Response modes.
const (
	// Break takes no special action: the fetch is routed to the
	// uncompromised code twin and the process typically dies on an illegal
	// instruction — the de facto standard response (§4.5.1).
	Break ResponseMode = iota
	// Observe logs the attempt, locks the page to its data twin, and lets
	// the attack continue under Sebek-style monitoring (§4.5.2).
	Observe
	// Forensics dumps the injected shellcode (EIP onward, from the data
	// twin) and can substitute forensic shellcode before resuming (§4.5.3).
	Forensics
	// Recovery transfers execution to a callback the application registered
	// with register_recovery(2), on a fresh stack — the "recovery mode"
	// §4.5 envisions as future work. Falls back to Break when no handler is
	// registered.
	Recovery
)

// String names the response mode.
func (r ResponseMode) String() string {
	switch r {
	case Break:
		return "break"
	case Observe:
		return "observe"
	case Forensics:
		return "forensics"
	case Recovery:
		return "recovery"
	}
	return "unknown"
}

// Config tunes the split-memory engine.
type Config struct {
	Response ResponseMode
	// Fraction splits only this fraction of pages (1.0 = everything),
	// selected by a deterministic per-page hash — the Fig. 9 experiment.
	// Zero means 1.0.
	Fraction float64
	// MixedOnly splits only pages that are both writable and executable,
	// leaving the rest to the execute-disable bit — the paper's
	// "supplement NX" deployment (§4.2.1). Implies UnsplitNX.
	MixedOnly bool
	// UnsplitNX marks non-executable unsplit pages with the NX bit (only
	// meaningful on a machine with NXEnabled).
	UnsplitNX bool
	// Seed drives the Fraction page-selection hash.
	Seed uint64
	// ForensicShellcode, when non-nil, is copied onto the code twin at
	// detection and executed in place of the attacker's payload (§6.1.3
	// injects exit(0)).
	ForensicShellcode []byte
	// DumpBytes is how much injected code the forensics mode records
	// (default 20, matching Fig. 5c).
	DumpBytes int
	// SoftTLB models a software-managed-TLB architecture (§4.7, e.g.
	// SPARC): the engine loads the TLBs directly through the machine's
	// TLB-load ports instead of the pagetable-walk and single-step tricks
	// x86 requires. Measurably cheaper — see the ablation benchmark.
	SoftTLB bool
	// Paranoid enables the invariant auditor (audit.go): after every
	// protector entry point the engine walks both TLBs, every pagetable and
	// every split-pair table and asserts the Harvard invariants, logging any
	// inconsistency as an EvInvariantViolation event (never panicking) and
	// healing incoherent TLB entries.
	Paranoid bool
	// StaleVPN, when non-nil, lets the auditor ask the chaos injector
	// whether an incoherent TLB entry it healed for this page is explained
	// by an injected stale-TLB fault; attributed heals are logged as
	// machine checks instead of invariant violations.
	StaleVPN func(vpn uint32) bool
	// Hub, when non-nil, enables engine telemetry: TLB-load latency
	// histograms, PTE-flip and detection counters, per-page/per-process
	// heatmaps, and itlb-load/dtlb-load spans in the hub's span buffer.
	Hub *telemetry.Hub
	// TraceRing, when non-nil, is the machine's retired-instruction ring;
	// observe and forensics detections attach its contents (the last N
	// instructions leading up to the hijack) to the emitted event.
	TraceRing *trace.Ring
	// LazyTwins enables the demand-paged twin allocation §5.1 envisions:
	// non-executable pages get their code twin only if an instruction
	// fetch ever touches them, halving the memory overhead for data-heavy
	// processes. The lazy twin is synthesized (zeros, or the invalid-opcode
	// marker in observe/forensics modes) and NEVER copied from the data
	// twin — copying current data would hand the attacker an executable
	// alias of whatever was injected.
	LazyTwins bool
}

// Stats counts engine activity.
type Stats struct {
	SplitPages    uint64 // pages currently split across all processes
	TotalSplits   uint64 // lifetime page splits
	DataTLBLoads  uint64 // pagetable-walk data-TLB loads
	CodeTLBLoads  uint64 // single-step instruction-TLB loads
	Detections    uint64 // injected-code executions detected
	PagesUnsplit  uint64 // pages handed to the NX/plain fallback
	ObserveLockIn uint64 // pages locked to the data twin by observe mode
	LazyPairs     uint64 // split pages whose code twin is not yet materialized

	// Paranoid-mode auditor counters (zero unless Config.Paranoid).
	Audits          uint64 // invariant walks performed
	Violations      uint64 // unexplained invariant violations found
	HealedTLB       uint64 // incoherent TLB entries invalidated
	AttributedHeals uint64 // heals explained by injected stale-TLB faults
}

// Engine is the split-memory protection policy; it implements
// kernel.Protector.
type Engine struct {
	cfg   Config
	stats Stats
	tel   *engineTel // nil when telemetry is disabled

	// traceScratch is the reusable backing array for retired-instruction
	// snapshots attached to detection events: allocated at the first
	// detection and reused, growing only as the ring does, instead of one
	// allocation per detection.
	traceScratch []trace.Entry

	aud auditScratch // the Paranoid audit's reusable working state
}

// New creates a split-memory engine.
func New(cfg Config) *Engine {
	if cfg.Fraction <= 0 || cfg.Fraction > 1 {
		cfg.Fraction = 1
	}
	if cfg.DumpBytes == 0 {
		cfg.DumpBytes = 20
	}
	if cfg.MixedOnly {
		cfg.UnsplitNX = true
	}
	return &Engine{cfg: cfg, tel: newEngineTel(cfg.Hub)}
}

// Name implements kernel.Protector.
func (e *Engine) Name() string { return "split" }

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Response returns the configured response mode.
func (e *Engine) Response() ResponseMode { return e.cfg.Response }

// pagePair records the two physical twins of a split page.
type pagePair struct {
	code uint32
	data uint32
	perm byte
}

// procState is the engine's per-process table, stored in Process.ProtData.
type procState struct {
	pairs map[uint32]*pagePair

	// In-flight instruction-TLB load episode (telemetry only). The span
	// opens at page-fault entry and closes in HandleDebug after the
	// re-restriction; pendingFaultExit is the cycle count when the fault
	// handler returned with TF set, so the #DB entry can measure the
	// single-step round trip. Per-process, so context switches between
	// the fault and its #DB keep episodes correctly attributed.
	pendingSpan      telemetry.SpanID
	pendingFaultExit uint64
}

func (e *Engine) state(p *kernel.Process) *procState {
	st, ok := p.ProtData.(*procState)
	if !ok || st == nil {
		st = &procState{pairs: map[uint32]*pagePair{}}
		p.ProtData = st
	}
	return st
}

// Pair exposes the code/data twin frames for a vpn (testing and forensics).
func (e *Engine) Pair(p *kernel.Process, vpn uint32) (code, data uint32, ok bool) {
	st := e.state(p)
	pr, ok := st.pairs[vpn]
	if !ok {
		return 0, 0, false
	}
	return pr.code, pr.data, true
}

// shouldSplit applies the MixedOnly and Fraction policies.
func (e *Engine) shouldSplit(vpn uint32, perm byte) bool {
	if e.cfg.MixedOnly {
		return perm&loader.PermW != 0 && perm&loader.PermX != 0
	}
	if e.cfg.Fraction >= 1 {
		return true
	}
	return splitHash(vpn, e.cfg.Seed) < uint32(e.cfg.Fraction*float64(1<<32))
}

// splitHash is a deterministic page-selection hash (splitmix-style).
func splitHash(vpn uint32, seed uint64) uint32 {
	x := uint64(vpn)*0x9E3779B97F4A7C15 ^ seed
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x)
}

// MapPage implements kernel.Protector: the paper's modified ELF loader and
// demand-paging logic (§5.1, §5.4). The page is duplicated into two
// side-by-side physical frames and its PTE is restricted (supervisor bit)
// so a page fault occurs on every TLB miss.
func (e *Engine) MapPage(k *kernel.Kernel, p *kernel.Process, vpn uint32, frame uint32, perm byte) {
	if e.cfg.Paranoid {
		defer e.audit(k, "MapPage")
	}
	if !e.shouldSplit(vpn, perm) {
		e.stats.PagesUnsplit++
		ent := paging.Entry(0).WithFrame(frame).With(paging.Present | paging.User)
		if perm&loader.PermW != 0 {
			ent = ent.With(paging.Writable)
		}
		if e.cfg.UnsplitNX && perm&loader.PermX == 0 {
			ent = ent.With(paging.NX)
		}
		p.PT.Set(vpn, ent)
		return
	}

	data := frame
	if e.cfg.LazyTwins && perm&loader.PermX == 0 {
		// Demand-paged twin (§5.1's envisioned optimization): defer the
		// code-twin allocation until an instruction fetch actually reaches
		// this page — which for a data page is the attack itself.
		st := e.state(p)
		st.pairs[vpn] = &pagePair{code: 0, data: data, perm: perm}
		e.stats.SplitPages++
		e.stats.TotalSplits++
		e.stats.LazyPairs++
		ent := paging.Entry(0).WithFrame(data).With(paging.Present | paging.Split)
		if perm&loader.PermW != 0 {
			ent = ent.With(paging.Writable)
		}
		p.PT.Set(vpn, ent)
		k.Machine().Invlpg(vpn << mem.PageShift)
		return
	}

	code, err := k.Phys().Alloc()
	if err != nil {
		// Out of physical memory: fall back to an unsplit mapping rather
		// than losing the page. (The paper's prototype doubles memory usage
		// and inherits the same failure mode.)
		e.stats.PagesUnsplit++
		ent := paging.Entry(0).WithFrame(frame).With(paging.Present | paging.User)
		if perm&loader.PermW != 0 {
			ent = ent.With(paging.Writable)
		}
		p.PT.Set(vpn, ent)
		return
	}

	switch {
	case perm&loader.PermX != 0:
		// Executable (possibly mixed) page: both twins start as exact
		// copies of the original content (§5.1).
		k.Phys().CopyFrame(code, data)
	case e.cfg.Response == Observe || e.cfg.Response == Forensics:
		// Fill the never-executable code twin with invalid opcodes so the
		// first injected-instruction fetch traps precisely (§4.5.2).
		fill := k.Phys().Frame(code)
		for i := range fill {
			fill[i] = byte(isa.OpUndef)
		}
	default:
		// Break mode: faithful §5.1 — copy the original content into both
		// twins. For fresh data pages that is a page of zeros, which S86
		// (like x86) decodes as an illegal instruction.
		k.Phys().CopyFrame(code, data)
	}

	st := e.state(p)
	st.pairs[vpn] = &pagePair{code: code, data: data, perm: perm}
	e.stats.SplitPages++
	e.stats.TotalSplits++

	ent := paging.Entry(0).WithFrame(data).With(paging.Present | paging.Split)
	if perm&loader.PermW != 0 {
		ent = ent.With(paging.Writable)
	}
	// The supervisor "restriction": the User bit stays clear.
	p.PT.Set(vpn, ent)
	k.Machine().Invlpg(vpn << mem.PageShift)
}

// HandleFault implements Algorithm 1. Not every fault on a split page is
// ours (§5.2): write-protection faults fall through to the kernel.
func (e *Engine) HandleFault(k *kernel.Kernel, p *kernel.Process, addr uint32, code uint32) kernel.FaultVerdict {
	if e.cfg.Paranoid {
		defer e.audit(k, "HandleFault")
	}
	vpn := paging.VPN(addr)
	st := e.state(p)
	pr, ok := st.pairs[vpn]
	if !ok {
		// Unsplit page under NX fallback: detect execute-disable violations.
		if e.cfg.UnsplitNX && code&cpu.PFFetch != 0 {
			ent := p.PT.Get(vpn)
			if ent.Present() && ent.NoExec() {
				e.stats.Detections++
				if e.tel != nil {
					e.tel.detections.Inc()
					e.tel.spans.Instant("nx-detection", p.PID, vpn, k.Machine().Cycles)
				}
				k.Emit(kernel.Event{
					Kind: kernel.EvInjectionDetected,
					Addr: addr,
					Text: "execute-disable violation (NX fallback)",
				})
				return kernel.FaultKill
			}
		}
		return kernel.FaultNotMine
	}
	ent := p.PT.Get(vpn)
	if !ent.Present() {
		return kernel.FaultNotMine
	}
	// A write to a read-only split page is a real protection violation, not
	// a TLB-load request.
	if code&cpu.PFWrite != 0 && !ent.Writable() {
		return kernel.FaultNotMine
	}

	m := k.Machine()
	if addr == m.Ctx.EIP && pr.code == 0 {
		// Materialize the lazy code twin (zeros, or markers under
		// observe/forensics) — never from the data twin.
		if !e.materializeTwin(k, pr) {
			return kernel.FaultNotMine // OOM: let the kernel kill cleanly
		}
	}
	entryCycles := m.Cycles
	if e.cfg.SoftTLB {
		// Software-managed TLBs (§4.7): "the processor's TLBs could be
		// loaded directly" — one trap, no PTE gymnastics, no single-step.
		entry := tlb.Entry{User: true, Writable: ent.Writable()}
		if addr == m.Ctx.EIP {
			entry.Frame = pr.code
			m.LoadITLB(vpn, entry)
			e.stats.CodeTLBLoads++
			if e.tel != nil {
				id := e.tel.spans.Begin("itlb-load", p.PID, vpn, entryCycles)
				start, _ := e.tel.spans.End(id, m.Cycles)
				e.tel.itlbLoadCycles.Observe(m.Cycles - start)
				e.tel.heat(p.PID, vpn)
			}
		} else {
			entry.Frame = pr.data
			m.LoadDTLB(vpn, entry)
			e.stats.DataTLBLoads++
			if e.tel != nil {
				id := e.tel.spans.Begin("dtlb-load", p.PID, vpn, entryCycles)
				start, _ := e.tel.spans.End(id, m.Cycles)
				e.tel.dtlbLoadCycles.Observe(m.Cycles - start)
				e.tel.heat(p.PID, vpn)
			}
		}
		return kernel.FaultHandled
	}
	if addr == m.Ctx.EIP {
		// Code access (Algorithm 1, lines 2-5): route the PTE to the code
		// twin, unrestrict, and single-step the faulting instruction so the
		// hardware walk fills the instruction-TLB.
		p.PT.Set(vpn, ent.WithFrame(pr.code).With(paging.User))
		m.Ctx.Flags.TF = true
		p.PendingSplit = addr
		p.PendingSplitValid = true
		e.stats.CodeTLBLoads++
		if e.tel != nil {
			// The episode stays open across the single-step; HandleDebug
			// closes it after the re-restriction.
			st.pendingSpan = e.tel.spans.Begin("itlb-load", p.PID, vpn, entryCycles)
			st.pendingFaultExit = m.Cycles
			e.tel.pteFlips.Inc() // unrestrict, pointed at the code twin
			e.tel.heat(p.PID, vpn)
		}
		return kernel.FaultHandled
	}

	// Data access (Algorithm 1, lines 7-11): pagetable walk. Point the PTE
	// at the data twin, unrestrict, touch a byte so the hardware loads the
	// data-TLB, then restrict again.
	p.PT.Set(vpn, ent.WithFrame(pr.data).With(paging.User))
	m.SupervisorTouch(addr)
	p.PT.Set(vpn, p.PT.Get(vpn).Without(paging.User))
	// Re-restriction is a coherence point: compiled code must never
	// outlive the trap configuration Algorithms 1-2 depend on.
	m.DropDecodeFrame(pr.code)
	m.DropDecodeFrame(pr.data)
	e.stats.DataTLBLoads++
	if e.tel != nil {
		id := e.tel.spans.Begin("dtlb-load", p.PID, vpn, entryCycles)
		start, _ := e.tel.spans.End(id, m.Cycles)
		e.tel.dtlbLoadCycles.Observe(m.Cycles - start)
		e.tel.pteFlips.Add(2) // unrestrict + re-restrict
		e.tel.heat(p.PID, vpn)
	}
	return kernel.FaultHandled
}

// HandleDebug implements Algorithm 2: after the single-stepped instruction
// retired (filling the instruction-TLB), re-restrict the PTE and clear the
// trap flag.
func (e *Engine) HandleDebug(k *kernel.Kernel, p *kernel.Process) bool {
	if e.cfg.Paranoid {
		defer e.audit(k, "HandleDebug")
	}
	if !p.PendingSplitValid {
		return false
	}
	addr := p.PendingSplit
	vpn := paging.VPN(addr)
	p.PendingSplitValid = false
	m := k.Machine()
	m.Ctx.Flags.TF = false

	st := e.state(p)
	if e.tel != nil && st.pendingSpan.Valid() {
		// The single-step round trip is the window between the fault
		// handler's return (TF set) and this #DB delivery.
		e.tel.tfRoundTrip.Observe(m.Cycles - st.pendingFaultExit)
		id := st.pendingSpan
		st.pendingSpan = telemetry.SpanID{}
		defer func() {
			if start, ok := e.tel.spans.End(id, m.Cycles); ok {
				e.tel.itlbLoadCycles.Observe(m.Cycles - start)
			}
		}()
	}
	pr, ok := st.pairs[vpn]
	if !ok {
		return true
	}
	ent := p.PT.Get(vpn)
	// Restrict and, to heal any data-TLB pollution the single-stepped
	// instruction may have caused on its own page, rerun the data walk
	// (documented deviation; see DESIGN.md).
	p.PT.Set(vpn, ent.WithFrame(pr.data).With(paging.User))
	m.DTLB.Invalidate(vpn)
	m.SupervisorTouch(addr)
	p.PT.Set(vpn, p.PT.Get(vpn).Without(paging.User))
	m.DropDecodeFrame(pr.code) // re-restriction coherence point (Algorithm 2)
	m.DropDecodeFrame(pr.data)
	if e.tel != nil {
		e.tel.pteFlips.Add(2) // repoint-to-data + re-restrict
	}
	return true
}

// HandleUndefined implements the response modes (§4.5, Algorithm 3). A #UD
// whose EIP lies on a split page means the processor fetched from a code
// twin that holds no program code — i.e., the attacker's injected bytes
// exist only on the data twin and were never reachable.
func (e *Engine) HandleUndefined(k *kernel.Kernel, p *kernel.Process) kernel.UDVerdict {
	if e.cfg.Paranoid {
		defer e.audit(k, "HandleUndefined")
	}
	m := k.Machine()
	eip := m.Ctx.EIP
	vpn := paging.VPN(eip)
	st := e.state(p)
	pr, ok := st.pairs[vpn]
	if !ok {
		return kernel.UDNotMine
	}
	e.stats.Detections++
	if e.tel != nil {
		e.tel.detections.Inc()
		e.tel.spans.Instant("injection-detected", p.PID, vpn, m.Cycles)
	}

	// The injected payload lives on the data twin, starting at EIP (§5.5).
	dump := e.readTwin(k, pr.data, eip, e.cfg.DumpBytes)
	k.Emit(kernel.Event{
		Kind:  kernel.EvInjectionDetected,
		Addr:  eip,
		Data:  dump,
		Text:  fmt.Sprintf("attempt to execute injected code at %#08x", eip),
		Trace: e.retiredTrace(),
	})

	switch e.cfg.Response {
	case Observe:
		// Algorithm 3: log, lock the page in as the data twin, disable
		// splitting, and let the attack proceed under observation.
		k.Emit(kernel.Event{
			Kind: kernel.EvInjectionObserved,
			Addr: eip,
			Text: "observe mode: locking data page and resuming attack",
		})
		ent := paging.Entry(0).WithFrame(pr.data).With(paging.Present | paging.User)
		if pr.perm&loader.PermW != 0 {
			ent = ent.With(paging.Writable)
		}
		p.PT.Set(vpn, ent)
		if pr.code != 0 {
			k.Phys().Free(pr.code)
		} else {
			e.stats.LazyPairs--
		}
		delete(st.pairs, vpn)
		e.stats.SplitPages--
		e.stats.ObserveLockIn++
		// The freed code twin may hold stale decodings and the data twin is
		// about to become fetchable; drop both before the shootdown.
		m.DropDecodeFrame(pr.code)
		m.DropDecodeFrame(pr.data)
		m.Invlpg(eip)
		k.ArmSebek(p)
		return kernel.UDResume
	case Recovery:
		// Enter the application's registered recovery callback on a fresh
		// stack; the paper argues the application itself is best placed to
		// check data integrity or terminate gracefully (§4.5).
		if k.RecoveryEntry(p) {
			k.Emit(kernel.Event{
				Kind: kernel.EvInjectionObserved,
				Addr: eip,
				Text: "recovery mode: transferring to the registered handler",
			})
			return kernel.UDResume
		}
		return kernel.UDKill
	case Forensics:
		k.Emit(kernel.Event{
			Kind: kernel.EvForensicDump,
			Addr: eip,
			Data: dump,
			Text: fmt.Sprintf("shellcode dump (%d bytes):\n%s", len(dump), isa.Disassemble(dump, eip, 8)),
		})
		if len(e.cfg.ForensicShellcode) > 0 {
			// Copy forensic shellcode onto the (empty) code twin being
			// executed from and point EIP at the start of the page (§5.5).
			twin := k.Phys().Frame(pr.code)
			clear(twin)
			copy(twin, e.cfg.ForensicShellcode)
			m.Ctx.EIP = vpn << mem.PageShift
			return kernel.UDResume
		}
		return kernel.UDKill
	default: // Break
		return kernel.UDKill
	}
}

// retiredTrace renders the machine's retired-instruction ring as a
// disassembly listing for attachment to a detection event, or "" when no
// ring is configured. The ring contents are snapshotted into the engine's
// reusable scratch slice, so the hot detection path allocates only for the
// final listing string.
func (e *Engine) retiredTrace() string {
	if e.cfg.TraceRing == nil {
		return ""
	}
	e.traceScratch = e.cfg.TraceRing.EntriesInto(e.traceScratch[:0])
	return trace.Listing(e.traceScratch)
}

// readTwin copies n bytes from a physical twin starting at the page offset
// of addr (clamped to the page).
func (e *Engine) readTwin(k *kernel.Kernel, frame uint32, addr uint32, n int) []byte {
	fr := k.Phys().Frame(frame)
	off := int(addr & mem.PageMask)
	if off+n > len(fr) {
		n = len(fr) - off
	}
	out := make([]byte, n)
	copy(out, fr[off:off+n])
	return out
}

// DataFrame implements kernel.Protector: the kernel's copyin/copyout must
// see the data twin.
func (e *Engine) DataFrame(p *kernel.Process, vpn uint32) (uint32, bool) {
	st := e.state(p)
	if pr, ok := st.pairs[vpn]; ok {
		return pr.data, true
	}
	return 0, false
}

// ForkPage implements kernel.Protector: split pages are duplicated eagerly
// on fork — both twins are copied for the child (§5.4's COW modification,
// simplified to eager copies; see DESIGN.md).
func (e *Engine) ForkPage(k *kernel.Kernel, parent, child *kernel.Process, vpn uint32, ent paging.Entry) (paging.Entry, bool) {
	if e.cfg.Paranoid {
		defer e.audit(k, "ForkPage")
	}
	pst := e.state(parent)
	pr, ok := pst.pairs[vpn]
	if !ok {
		return 0, false
	}
	var code uint32
	if pr.code != 0 {
		var err error
		code, err = k.Phys().Alloc()
		if err != nil {
			return 0, true
		}
		k.Phys().CopyFrame(code, pr.code)
	} else {
		e.stats.LazyPairs++
	}
	data, err := k.Phys().Alloc()
	if err != nil {
		if code != 0 {
			k.Phys().Free(code)
		}
		return 0, true
	}
	k.Phys().CopyFrame(data, pr.data)
	cst := e.state(child)
	cst.pairs[vpn] = &pagePair{code: code, data: data, perm: pr.perm}
	e.stats.SplitPages++
	e.stats.TotalSplits++
	ce := paging.Entry(0).WithFrame(data).With(paging.Present | paging.Split)
	if pr.perm&loader.PermW != 0 {
		ce = ce.With(paging.Writable)
	}
	return ce, true
}

// ReleasePage implements kernel.Protector: both twins return to the free
// pool (§5.4 program-termination handling).
func (e *Engine) ReleasePage(k *kernel.Kernel, p *kernel.Process, vpn uint32, ent paging.Entry) bool {
	if e.cfg.Paranoid {
		defer e.audit(k, "ReleasePage")
	}
	st := e.state(p)
	pr, ok := st.pairs[vpn]
	if !ok {
		return false
	}
	if pr.code != 0 {
		k.Phys().Free(pr.code)
	} else {
		e.stats.LazyPairs--
	}
	k.Phys().Free(pr.data)
	delete(st.pairs, vpn)
	e.stats.SplitPages--
	// TLB shootdown on unmap: without it the TLBs keep serving the freed
	// twins until the next context switch.
	k.Machine().Invlpg(vpn << mem.PageShift)
	return true
}

// materializeTwin allocates and fills a deferred code twin.
func (e *Engine) materializeTwin(k *kernel.Kernel, pr *pagePair) bool {
	code, err := k.Phys().Alloc()
	if err != nil {
		return false
	}
	if e.cfg.Response == Observe || e.cfg.Response == Forensics {
		fill := k.Phys().Frame(code)
		for i := range fill {
			fill[i] = byte(isa.OpUndef)
		}
	}
	// Break/recovery: leave the twin zeroed (an illegal instruction on S86
	// as on x86). Never copy the data twin: it may hold injected bytes.
	pr.code = code
	e.stats.LazyPairs--
	k.Machine().AddCycles(k.Machine().Cost.DemandFill)
	return true
}

// ProtectPage implements kernel.Protector (mprotect support). For split
// pages only the writable bit changes: the code twin keeps its original
// content, so an mprotect-based re-protection attack (make the injected
// buffer executable, then jump to it) still fetches from the uncompromised
// code twin — the bypass that defeats NX (§2, [4]) fails here.
func (e *Engine) ProtectPage(k *kernel.Kernel, p *kernel.Process, vpn uint32, ent paging.Entry, perm byte) bool {
	if e.cfg.Paranoid {
		defer e.audit(k, "ProtectPage")
	}
	st := e.state(p)
	pr, ok := st.pairs[vpn]
	if !ok {
		// Unsplit page: behave like the NX/plain fallback this engine
		// applied at map time.
		ne := ent.Without(paging.Writable | paging.NX)
		if perm&loader.PermW != 0 {
			ne = ne.With(paging.Writable)
		}
		if e.cfg.UnsplitNX && perm&loader.PermX == 0 {
			ne = ne.With(paging.NX)
		}
		p.PT.Set(vpn, ne)
		return true
	}
	pr.perm = perm
	ne := ent.Without(paging.Writable)
	if perm&loader.PermW != 0 {
		ne = ne.With(paging.Writable)
	}
	p.PT.Set(vpn, ne)
	return true
}

// ExitShellcode is the paper's published exit(0) forensic shellcode
// (§6.1.3); it assembles to the identical bytes on S86.
func ExitShellcode() []byte {
	return []byte("\xbb\x00\x00\x00\x00" + // mov ebx, 0
		"\xb8\x01\x00\x00\x00" + // mov eax, 1
		"\xcd\x80") // int 0x80
}
