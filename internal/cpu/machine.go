// Package cpu implements the S86 processor: fetch/decode/execute, the
// hardware pagetable walker feeding the split instruction/data TLBs, fault
// generation (#PF, #UD, #GP, #DE, #BP), the trap flag (single-step #DB), and
// simulated-cycle accounting.
//
// The CPU always executes guest code in user mode; the kernel of the
// simulated operating system runs natively in Go and is reached through the
// TrapHandler interface, which stands in for the interrupt descriptor table.
package cpu

import (
	"fmt"

	"splitmem/internal/isa"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
	"splitmem/internal/snapshot"
	"splitmem/internal/telemetry"
	"splitmem/internal/tlb"
)

// Access distinguishes the three kinds of memory access for translation.
type Access int

// Access kinds.
const (
	AccFetch Access = iota // instruction fetch (uses the ITLB)
	AccRead                // data load (uses the DTLB)
	AccWrite               // data store (uses the DTLB)
)

// String returns a short name for the access kind.
func (a Access) String() string {
	switch a {
	case AccFetch:
		return "fetch"
	case AccRead:
		return "read"
	default:
		return "write"
	}
}

// Page-fault error-code bits, matching the x86 layout.
const (
	PFPresent uint32 = 1 << 0 // fault on a present page (protection violation)
	PFWrite   uint32 = 1 << 1 // access was a write
	PFUser    uint32 = 1 << 2 // access was from user mode
	PFFetch   uint32 = 1 << 4 // access was an instruction fetch
)

// PageFault describes a #PF exception.
type PageFault struct {
	Addr uint32 // faulting virtual address (CR2)
	Code uint32 // error code (PF* bits)
}

// Error implements the error interface.
func (p *PageFault) Error() string {
	return fmt.Sprintf("#PF addr=%08x code=%#x", p.Addr, p.Code)
}

// IsFetch reports whether the fault occurred on an instruction fetch.
func (p *PageFault) IsFetch() bool { return p.Code&PFFetch != 0 }

// IsWrite reports whether the fault occurred on a write.
func (p *PageFault) IsWrite() bool { return p.Code&PFWrite != 0 }

// IsProtection reports whether the page was present (permission violation)
// as opposed to not present.
func (p *PageFault) IsProtection() bool { return p.Code&PFPresent != 0 }

// Flags is the S86 flags register (EFLAGS subset).
type Flags struct {
	ZF bool // zero
	SF bool // sign
	OF bool // overflow
	CF bool // carry
	TF bool // trap flag: raise #DB after the next completed instruction
}

// Context is the user-visible CPU register state of one process. The kernel
// saves and restores Contexts to context switch.
type Context struct {
	R     [8]uint32 // general-purpose registers (see package isa for indices)
	EIP   uint32
	Flags Flags
}

// Action is a trap handler's verdict on how execution should proceed.
type Action int

// Trap handler verdicts.
const (
	// ActResume continues execution of the current process (a faulting
	// instruction is restarted; a trap falls through to the next
	// instruction).
	ActResume Action = iota + 1
	// ActStop tells the machine the current process cannot continue right
	// now (exited, killed, blocked, or rescheduled); Step returns to its
	// caller, which is the kernel scheduler.
	ActStop
)

// ChaosAgent is the architectural fault-injection interface the machine
// consults when a chaos engine is installed (see internal/chaos). A nil
// Machine.Chaos disables every hook at zero cost. Implementations must be
// deterministic (seeded) so chaotic runs stay reproducible.
type ChaosAgent interface {
	// PreStep runs before each instruction; the injector may evict TLB
	// entries, flush the TLBs, or flip bits in physical frames.
	PreStep(m *Machine)
	// DropInvlpg reports whether this invlpg should be silently swallowed
	// (stale-entry retention: the shootdown never reaches the TLBs).
	DropInvlpg(vpn uint32) bool
	// RetainOnFlush is asked per valid entry during a TLB flush; true means
	// the entry incorrectly survives the flush.
	RetainOnFlush(vpn uint32) bool
	// SpuriousDebugTrap reports whether to raise a #DB after an instruction
	// that completed with TF clear.
	SpuriousDebugTrap() bool
	// DoubleFault reports whether a page fault the handler resolved should
	// be delivered to the handler a second time.
	DoubleFault() bool
}

// TrapHandler receives every exception and software interrupt the CPU
// raises. The kernel implements it.
type TrapHandler interface {
	// PageFault is invoked with the faulting address (CR2 is set to it) and
	// the x86-style error code. The saved context's EIP addresses the
	// faulting instruction, which is restarted on ActResume.
	PageFault(addr uint32, code uint32) Action
	// DebugTrap is invoked after an instruction completed with TF set.
	DebugTrap() Action
	// Breakpoint is invoked by int3.
	Breakpoint() Action
	// Interrupt is invoked by "int n"; EIP has advanced past the
	// instruction.
	Interrupt(vector byte) Action
	// Undefined is invoked on undefined opcodes (#UD); EIP addresses the
	// faulting instruction.
	Undefined() Action
	// GeneralProtection is invoked on privileged instructions in user mode.
	GeneralProtection() Action
	// DivideError is invoked on division/modulo by zero.
	DivideError() Action
}

// Stats aggregates architectural event counts. The Superblock* fields count
// host-side fast-path activity (see superblock.go); they are the only
// counters the fast path is allowed to change relative to an interpreter
// run.
type Stats struct {
	Instructions uint64
	DataAccesses uint64
	PageFaults   uint64
	Undefined    uint64
	DebugTraps   uint64
	Interrupts   uint64
	CtxSwitches  uint64

	SuperblockCompiled      uint64 // hot regions compiled into superblocks
	SuperblockEntered       uint64 // superblock dispatch-loop entries
	SuperblockSideExits     uint64 // blocks left before their terminal op completed
	SuperblockInvalidations uint64 // frames whose compiled blocks were discarded
}

// Machine is one simulated S86 processor with its physical memory and TLBs.
type Machine struct {
	Phys *mem.Physical
	ITLB *tlb.TLB
	DTLB *tlb.TLB

	Ctx Context // current register file
	CR2 uint32  // faulting address of the last #PF

	Cost   CostModel
	Cycles uint64
	Stats  Stats

	NXEnabled bool // honor the PTE NX bit on fetches (execute-disable support)

	// TraceHook, when non-nil, is invoked with the address and decoding of
	// every instruction about to execute. Used by the execution tracer;
	// adds no cost when nil.
	TraceHook func(eip uint32, in isa.Instr)

	// Chaos, when non-nil, is the adversarial fault injector consulted at
	// the architectural chaos points (see ChaosAgent).
	Chaos ChaosAgent

	// Tel holds the machine's telemetry instruments; nil (the default)
	// disables instrumentation at the cost of one pointer check on the
	// trap paths only — never on the instruction hot loop.
	Tel *Telemetry

	// Preempt, when non-nil, is the kernel's forced-preemption draw
	// (chaos.ForcePreempt), installed so the superblock engine can consume
	// the between-instruction draw in-block with the exact per-instruction
	// cadence the interpreter loop produces. See TakePreemptDraw.
	Preempt func() bool

	pt      *paging.Table
	handler TrapHandler

	// Superblock engine (superblock.go). sbOn gates it; sb is indexed by
	// physical frame number and allocated lazily on the first entry — a
	// frame-count pointer array is too expensive to build (and for the GC
	// to scan) on machines that never execute, and boots from an Image keep
	// it off the start-latency path. decEpoch is the global invalidation
	// stamp bumped on TLB flushes and shootdowns.
	sb            []*sbFrame
	sbOn          bool
	decEpoch      uint64
	sliceEnd      uint64 // scheduler's timeslice bound, for in-block side-exits
	sbPF          *PageFault
	sbDrawDone    bool // the last Step consumed the kernel's preempt draw
	sbDrawPreempt bool // ... and the draw said to preempt
}

// Telemetry is the set of metric instruments the machine feeds when
// telemetry is enabled (see RegisterTelemetry). The latency histograms
// measure simulated cycles consumed inside the software trap handlers —
// the per-fault overhead the paper's evaluation reasons about.
type Telemetry struct {
	// PFHandlerCycles is the per-page-fault handling latency: cycles from
	// trap delivery to handler return, covering kernel bookkeeping and
	// any split-engine work (PTE flips, twin fills, TLB touches).
	PFHandlerCycles *telemetry.Histogram
	// DBHandlerCycles is the per-debug-trap (#DB) handling latency.
	DBHandlerCycles *telemetry.Histogram
}

// RegisterTelemetry creates the machine's instruments in r and registers
// sampled gauges for the counters the machine already maintains. Passing
// a nil registry leaves telemetry disabled.
func (m *Machine) RegisterTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	m.Tel = &Telemetry{
		PFHandlerCycles: r.Histogram("splitmem_cpu_pf_handler_cycles",
			"page-fault handling latency in simulated cycles (trap delivery to handler return)", nil),
		DBHandlerCycles: r.Histogram("splitmem_cpu_db_handler_cycles",
			"debug-trap (#DB) handling latency in simulated cycles", nil),
	}
	r.GaugeFunc("splitmem_cpu_cycles_total", "simulated cycles elapsed",
		func() float64 { return float64(m.Cycles) })
	r.GaugeFunc("splitmem_cpu_instructions_total", "instructions retired",
		func() float64 { return float64(m.Stats.Instructions) })
	r.GaugeFunc("splitmem_cpu_page_faults_total", "page faults raised",
		func() float64 { return float64(m.Stats.PageFaults) })
	r.GaugeFunc("splitmem_cpu_debug_traps_total", "debug traps raised",
		func() float64 { return float64(m.Stats.DebugTraps) })
	r.GaugeFunc("splitmem_cpu_undefined_total", "undefined-opcode traps raised",
		func() float64 { return float64(m.Stats.Undefined) })
	r.GaugeFunc("splitmem_cpu_ctx_switches_total", "scheduler context switches",
		func() float64 { return float64(m.Stats.CtxSwitches) })
	r.GaugeFunc("splitmem_cpu_superblock_compiled_total", "hot regions compiled into superblocks",
		func() float64 { return float64(m.Stats.SuperblockCompiled) })
	r.GaugeFunc("splitmem_cpu_superblock_entered_total", "superblock dispatch-loop entries",
		func() float64 { return float64(m.Stats.SuperblockEntered) })
	r.GaugeFunc("splitmem_cpu_superblock_side_exits_total", "superblocks left before their terminal op",
		func() float64 { return float64(m.Stats.SuperblockSideExits) })
	r.GaugeFunc("splitmem_cpu_superblock_invalidations_total", "frames whose compiled superblocks were discarded",
		func() float64 { return float64(m.Stats.SuperblockInvalidations) })
	m.ITLB.RegisterTelemetry(r, "splitmem_itlb")
	m.DTLB.RegisterTelemetry(r, "splitmem_dtlb")
	m.Phys.RegisterTelemetry(r)
}

// Config configures a new Machine.
type Config struct {
	PhysBytes int       // physical memory size (default 64 MiB)
	ITLBSize  int       // instruction TLB entries (default 32, as on the PIII)
	DTLBSize  int       // data TLB entries (default 64, as on the PIII)
	Cost      CostModel // zero value selects PentiumIII600
	NXEnabled bool      // model hardware with the execute-disable bit
	// Superblocks enables the superblock threaded-code engine
	// (superblock.go); without it every instruction is interpreted.
	Superblocks bool
	// Phys, when non-nil, becomes the machine's physical memory instead of a
	// freshly built one — the Image boot fast path hands in a prebuilt
	// copy-on-write attachment (mem.BootPhysical). Its size must match
	// PhysBytes.
	Phys *mem.Physical
}

// New creates a machine. The trap handler must be installed with SetHandler
// before stepping.
func New(cfg Config) (*Machine, error) {
	if cfg.PhysBytes == 0 {
		cfg.PhysBytes = 64 << 20
	}
	if cfg.ITLBSize == 0 {
		cfg.ITLBSize = 32
	}
	if cfg.DTLBSize == 0 {
		cfg.DTLBSize = 64
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = PentiumIII600()
	}
	phys := cfg.Phys
	if phys == nil {
		var err error
		phys, err = mem.NewPhysical(cfg.PhysBytes)
		if err != nil {
			return nil, err
		}
	} else if phys.Size() != cfg.PhysBytes {
		return nil, fmt.Errorf("cpu: prebuilt physical memory is %d bytes, config wants %d", phys.Size(), cfg.PhysBytes)
	}
	m := &Machine{
		Phys:      phys,
		ITLB:      tlb.New(cfg.ITLBSize),
		DTLB:      tlb.New(cfg.DTLBSize),
		Cost:      cfg.Cost,
		NXEnabled: cfg.NXEnabled,
	}
	m.sbOn = cfg.Superblocks
	return m, nil
}

// SetSliceEnd publishes the scheduler's current timeslice bound (in absolute
// cycles). The superblock engine side-exits a block as soon as the bound is
// reached, reproducing the kernel's between-Step cycle check, and StepSlice
// chains blocks only below it; the kernel calls this once per slice. The zero default makes blocks retire at most
// one instruction, which keeps raw Step users exact without scheduling.
func (m *Machine) SetSliceEnd(end uint64) { m.sliceEnd = end }

// TakePreemptDraw reports (and clears) whether the superblock engine
// consumed the kernel's post-Step forced-preemption draw during the last
// Step, and what the draw decided. The kernel loop calls it after every
// Step: when drawn is true it must not draw again for that instruction —
// the draw stream stays aligned with an interpreter-only run.
func (m *Machine) TakePreemptDraw() (drawn, preempt bool) {
	drawn, preempt = m.sbDrawDone, m.sbDrawPreempt
	m.sbDrawDone, m.sbDrawPreempt = false, false
	return drawn, preempt
}

// SetHandler installs the trap handler (the kernel).
func (m *Machine) SetHandler(h TrapHandler) { m.handler = h }

// AddCycles charges n simulated cycles (used by the kernel to account for
// handler work).
func (m *Machine) AddCycles(n uint64) { m.Cycles += n }

// Pagetable returns the currently loaded pagetable.
func (m *Machine) Pagetable() *paging.Table { return m.pt }

// SetPagetable loads a pagetable ("mov cr3"), flushing both TLBs. The
// context-switch cycle cost is charged by the kernel scheduler, not here, so
// that reloading the same table stays cheap to express.
func (m *Machine) SetPagetable(t *paging.Table) {
	if m.pt == t {
		return
	}
	m.pt = t
	m.FlushTLBs()
}

// FlushTLBs flushes both TLBs without changing the pagetable (CR3 rewrite).
// Under chaos injection individual entries may incorrectly survive the
// flush (stale-entry retention).
func (m *Machine) FlushTLBs() {
	m.InvalidateDecode()
	if m.Chaos != nil {
		m.ITLB.FlushRetaining(m.Chaos.RetainOnFlush)
		m.DTLB.FlushRetaining(m.Chaos.RetainOnFlush)
		return
	}
	m.ITLB.Flush()
	m.DTLB.Flush()
}

// Invlpg invalidates any cached translation for the page containing addr in
// both TLBs, mirroring the x86 invlpg instruction. Under chaos injection
// the shootdown can be silently dropped (stale-entry retention).
func (m *Machine) Invlpg(addr uint32) {
	vpn := paging.VPN(addr)
	if m.Chaos != nil && m.Chaos.DropInvlpg(vpn) {
		return
	}
	m.InvalidateDecode()
	m.ITLB.Invalidate(vpn)
	m.DTLB.Invalidate(vpn)
}

// Translate resolves a user-mode access to a physical address, filling the
// appropriate TLB on a miss. On failure it returns the page fault to raise.
func (m *Machine) Translate(addr uint32, acc Access) (uint32, *PageFault) {
	vpn := paging.VPN(addr)
	buf := m.DTLB
	if acc == AccFetch {
		buf = m.ITLB
	}
	if e, ok := buf.Lookup(vpn); ok {
		// Permission checks are made against the cached entry; the
		// pagetable is NOT consulted on a hit. This property is what the
		// split-memory technique exploits.
		if pf := m.checkEntry(e, addr, acc); pf != nil {
			return 0, pf
		}
		return e.Frame<<mem.PageShift | addr&mem.PageMask, nil
	}
	// TLB miss: hardware pagetable walk.
	m.Cycles += m.Cost.TLBWalk
	pte := m.pt.Get(vpn)
	if !pte.Present() {
		return 0, &PageFault{Addr: addr, Code: m.faultCode(acc, false)}
	}
	if !pte.User() {
		// User access to a supervisor ("restricted") page.
		return 0, &PageFault{Addr: addr, Code: m.faultCode(acc, true)}
	}
	if acc == AccWrite && !pte.Writable() {
		return 0, &PageFault{Addr: addr, Code: m.faultCode(acc, true)}
	}
	if acc == AccFetch && pte.NoExec() && m.NXEnabled {
		return 0, &PageFault{Addr: addr, Code: m.faultCode(acc, true)}
	}
	upd := pte.With(paging.Accessed)
	if acc == AccWrite {
		upd = upd.With(paging.Dirty)
	}
	if upd != pte {
		m.pt.Set(vpn, upd)
	}
	buf.Insert(vpn, tlb.Entry{
		Frame:    pte.Frame(),
		User:     pte.User(),
		Writable: pte.Writable(),
		NoExec:   pte.NoExec(),
	})
	return pte.Frame()<<mem.PageShift | addr&mem.PageMask, nil
}

func (m *Machine) checkEntry(e tlb.Entry, addr uint32, acc Access) *PageFault {
	if !e.User {
		return &PageFault{Addr: addr, Code: m.faultCode(acc, true)}
	}
	if acc == AccWrite && !e.Writable {
		return &PageFault{Addr: addr, Code: m.faultCode(acc, true)}
	}
	if acc == AccFetch && e.NoExec && m.NXEnabled {
		return &PageFault{Addr: addr, Code: m.faultCode(acc, true)}
	}
	return nil
}

func (m *Machine) faultCode(acc Access, present bool) uint32 {
	code := PFUser
	if present {
		code |= PFPresent
	}
	switch acc {
	case AccWrite:
		code |= PFWrite
	case AccFetch:
		code |= PFFetch
	}
	return code
}

// EncodeState serializes the processor core: register file, CR2, the cycle
// counter and the architectural statistics. Physical memory, the TLBs and the
// pagetable are serialized by their owners; the compiled superblocks are
// deliberately absent (host-side only, rebuilt cold after restore — the
// differential oracle proves them architecturally invisible, and their
// counters are already the only Stats fields the oracle scrubs).
func (m *Machine) EncodeState(w *snapshot.Writer) {
	for _, r := range m.Ctx.R {
		w.U32(r)
	}
	w.U32(m.Ctx.EIP)
	w.Bool(m.Ctx.Flags.ZF)
	w.Bool(m.Ctx.Flags.SF)
	w.Bool(m.Ctx.Flags.OF)
	w.Bool(m.Ctx.Flags.CF)
	w.Bool(m.Ctx.Flags.TF)
	w.U32(m.CR2)
	w.U64(m.Cycles)
	w.U64(m.Stats.Instructions)
	w.U64(m.Stats.DataAccesses)
	w.U64(m.Stats.PageFaults)
	w.U64(m.Stats.Undefined)
	w.U64(m.Stats.DebugTraps)
	w.U64(m.Stats.Interrupts)
	w.U64(m.Stats.CtxSwitches)
	w.U64(m.Stats.SuperblockCompiled)
	w.U64(m.Stats.SuperblockEntered)
	w.U64(m.Stats.SuperblockSideExits)
	w.U64(m.Stats.SuperblockInvalidations)
}

// DecodeState restores state serialized by EncodeState.
func (m *Machine) DecodeState(r *snapshot.Reader) error {
	for i := range m.Ctx.R {
		m.Ctx.R[i] = r.U32()
	}
	m.Ctx.EIP = r.U32()
	m.Ctx.Flags.ZF = r.Bool()
	m.Ctx.Flags.SF = r.Bool()
	m.Ctx.Flags.OF = r.Bool()
	m.Ctx.Flags.CF = r.Bool()
	m.Ctx.Flags.TF = r.Bool()
	m.CR2 = r.U32()
	m.Cycles = r.U64()
	m.Stats.Instructions = r.U64()
	m.Stats.DataAccesses = r.U64()
	m.Stats.PageFaults = r.U64()
	m.Stats.Undefined = r.U64()
	m.Stats.DebugTraps = r.U64()
	m.Stats.Interrupts = r.U64()
	m.Stats.CtxSwitches = r.U64()
	m.Stats.SuperblockCompiled = r.U64()
	m.Stats.SuperblockEntered = r.U64()
	m.Stats.SuperblockSideExits = r.U64()
	m.Stats.SuperblockInvalidations = r.U64()
	return r.Err()
}

// RestorePagetable installs a pagetable without the SetPagetable flush. Only
// the snapshot restore path uses it: the TLB contents that existed alongside
// this pagetable are restored verbatim by the TLB decoder, so flushing here
// would destroy exactly the (possibly desynchronized) state being restored.
func (m *Machine) RestorePagetable(t *paging.Table) { m.pt = t }

// LoadITLB installs a translation directly into the instruction TLB — the
// software TLB-load port of architectures like SPARC (§4.7 of the paper).
// On such machines the split engine loads the TLBs directly instead of via
// the pagetable-walk and single-step tricks x86 requires.
func (m *Machine) LoadITLB(vpn uint32, e tlb.Entry) { m.ITLB.Insert(vpn, e) }

// LoadDTLB installs a translation directly into the data TLB (see LoadITLB).
func (m *Machine) LoadDTLB(vpn uint32, e tlb.Entry) { m.DTLB.Insert(vpn, e) }

// SupervisorTouch performs the kernel's "read a byte off the page" data-TLB
// load trick: a supervisor-mode read through the current pagetable that
// fills the DTLB with the PTE's current frame and permission bits.
// Supervisor reads ignore the User bit (no SMAP on this machine). It returns
// false if the page is not present.
func (m *Machine) SupervisorTouch(addr uint32) bool {
	vpn := paging.VPN(addr)
	m.Cycles += m.Cost.TLBWalk
	pte := m.pt.Get(vpn)
	if !pte.Present() {
		return false
	}
	m.pt.Set(vpn, pte.With(paging.Accessed))
	m.DTLB.Insert(vpn, tlb.Entry{
		Frame:    pte.Frame(),
		User:     pte.User(),
		Writable: pte.Writable(),
		NoExec:   pte.NoExec(),
	})
	_ = m.Phys.Byte(pte.Frame()<<mem.PageShift | addr&mem.PageMask)
	return true
}
