// Package kernel implements the mini operating system of the S86 simulator:
// process creation (the ELF-loader equivalent for SELF images), demand
// paging, copy-on-write fork, pipes, a round-robin scheduler whose context
// switches flush the TLBs, Unix-flavored syscalls, and signal-style process
// termination.
//
// Memory-protection policy is pluggable through the Protector interface:
// internal/core provides the split-memory engine (the paper's contribution),
// internal/nx provides the execute-disable-bit baseline, and the kernel's
// built-in default applies no execution protection at all.
package kernel

import (
	"fmt"
	"math/rand"
	"sort"

	"splitmem/internal/cpu"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
	"splitmem/internal/telemetry"
)

// Virtual-memory layout constants for guest processes.
const (
	StackTop   = 0xBFFF0000 // initial top of stack (grows down)
	StackLimit = 0xBF000000 // lowest address the stack may grow to
	MmapBase   = 0x40000000 // mmap allocations grow up from here
	HeapGap    = 0x00010000 // gap between the last section and the heap
)

// Signal identifies why a process was killed.
type Signal int

// Signals delivered by the kernel.
const (
	SIGNONE Signal = iota
	SIGSEGV        // invalid memory access
	SIGILL         // illegal instruction
	SIGFPE         // divide error
	SIGTRAP        // breakpoint
	SIGKILL        // killed by the kernel/response engine
)

// String returns the conventional signal name.
func (s Signal) String() string {
	switch s {
	case SIGNONE:
		return "0"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGILL:
		return "SIGILL"
	case SIGFPE:
		return "SIGFPE"
	case SIGTRAP:
		return "SIGTRAP"
	case SIGKILL:
		return "SIGKILL"
	}
	return fmt.Sprintf("SIG(%d)", int(s))
}

// EventKind classifies kernel event-log entries.
type EventKind int

// Kernel events.
const (
	EvProcessStart       EventKind = iota + 1
	EvProcessExit                  // Text: exit status; Addr: status
	EvSignal                       // process killed by signal (Addr: faulting address)
	EvInjectionDetected            // protection engine caught injected-code execution
	EvInjectionObserved            // observe mode let the attack continue
	EvForensicDump                 // forensics mode dumped shellcode (Data: bytes at EIP)
	EvShellSpawned                 // a process invoked execve (attack success marker)
	EvSebekLine                    // Sebek-style keystroke log line (Text)
	EvSyscall                      // verbose; only recorded when TraceSyscalls is set
	EvLibraryLoad                  // validated library load/split
	EvInvariantViolation           // paranoid auditor found an engine-state inconsistency (Text)
	EvMachineCheck                 // contained host-level fault (mem misuse, recovered panic) (Text)
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvProcessStart:
		return "start"
	case EvProcessExit:
		return "exit"
	case EvSignal:
		return "signal"
	case EvInjectionDetected:
		return "injection-detected"
	case EvInjectionObserved:
		return "injection-observed"
	case EvForensicDump:
		return "forensic-dump"
	case EvShellSpawned:
		return "shell-spawned"
	case EvSebekLine:
		return "sebek"
	case EvSyscall:
		return "syscall"
	case EvLibraryLoad:
		return "library-load"
	case EvInvariantViolation:
		return "invariant-violation"
	case EvMachineCheck:
		return "machine-check"
	}
	return "unknown"
}

// Event is one kernel event-log entry.
type Event struct {
	Kind   EventKind
	PID    int
	Proc   string // process name
	Cycles uint64 // machine cycle count at the time
	Addr   uint32 // event-specific address (EIP, fault address, status)
	Signal Signal
	Text   string
	Data   []byte
	// Trace carries the last-N retired guest instructions leading up to
	// the event as a disassembly listing. The observe and forensics
	// response modes attach it to injection detections when an execution
	// trace ring is configured (Config.TraceDepth in the public API).
	Trace string
}

// FaultVerdict is a Protector's ruling on a page fault.
type FaultVerdict int

// Fault verdicts.
const (
	// FaultNotMine lets the kernel's generic handling (demand paging, COW,
	// segfault) proceed.
	FaultNotMine FaultVerdict = iota
	// FaultHandled means the protector fixed things up; restart the
	// instruction.
	FaultHandled
	// FaultKill means the protector detected an attack and the process must
	// die (break response mode).
	FaultKill
)

// UDVerdict is a Protector's ruling on an undefined-instruction trap.
type UDVerdict int

// Undefined-instruction verdicts.
const (
	// UDNotMine: not an attack detection; deliver SIGILL as usual.
	UDNotMine UDVerdict = iota
	// UDResume: the protector re-routed execution (observe/forensics);
	// continue the process.
	UDResume
	// UDKill: detection confirmed, kill the process.
	UDKill
)

// Protector is the pluggable memory-protection policy. Implementations must
// be deterministic and must only touch guest state through the Kernel and
// Machine APIs so cycle accounting stays correct.
type Protector interface {
	// Name identifies the policy ("none", "nx", "split").
	Name() string
	// MapPage installs the translation for vpn backed by frame, whose
	// section/region permissions are perm (loader.Perm* bits). The frame
	// already holds the page's initial content.
	MapPage(k *Kernel, p *Process, vpn uint32, frame uint32, perm byte)
	// HandleFault rules on a page fault before generic kernel handling.
	HandleFault(k *Kernel, p *Process, addr uint32, code uint32) FaultVerdict
	// HandleDebug receives single-step traps; returns true if consumed.
	HandleDebug(k *Kernel, p *Process) bool
	// HandleUndefined rules on #UD traps (the observe/forensics hook).
	HandleUndefined(k *Kernel, p *Process) UDVerdict
	// DataFrame resolves the frame the kernel must use for data reads and
	// writes on behalf of the process (copyin/copyout); ok=false defers to
	// the PTE's frame.
	DataFrame(p *Process, vpn uint32) (uint32, bool)
	// ForkPage duplicates per-page protector state from parent to child for
	// a protector-managed page and returns the child's PTE; ok=false defers
	// to the kernel's COW logic.
	ForkPage(k *Kernel, parent, child *Process, vpn uint32, e paging.Entry) (paging.Entry, bool)
	// ReleasePage frees protector-owned resources for vpn at teardown;
	// returns true if it owned the page (kernel then skips freeing the PTE
	// frame itself).
	ReleasePage(k *Kernel, p *Process, vpn uint32, e paging.Entry) bool
	// ProtectPage applies an mprotect permission change to an
	// already-present page; returns true if handled. Split pages MUST keep
	// their existing twins: there is deliberately no path that promotes
	// data-twin content into the code twin, which is what defeats
	// mprotect-style NX-bypass attacks.
	ProtectPage(k *Kernel, p *Process, vpn uint32, e paging.Entry, perm byte) bool
}

// Preempter lets the chaos engine force timeslice expiry after any
// instruction, producing context-switch storms far denser than the
// configured quantum would ever allow.
type Preempter interface {
	ForcePreempt() bool
}

// Config configures a kernel instance.
type Config struct {
	Machine        *cpu.Machine
	Protector      Protector // nil selects the unprotected default
	Timeslice      uint64    // scheduler quantum in cycles (default 50_000)
	RandomizeStack bool      // slight stack placement randomization (Linux 2.6 style)
	RandSeed       int64     // seed for randomized placement (determinism)
	TraceSyscalls  bool      // record EvSyscall events
	EventHook      func(Event)
	MaxEvents      int       // ring-buffer capacity for the event log (default 4096)
	Chaos          Preempter // nil disables forced preemption
}

// Kernel is the simulated operating system.
type Kernel struct {
	m         *cpu.Machine
	prot      Protector
	procs     map[int]*Process
	runq      []int
	cur       *Process
	nextPID   int
	timeslice uint64
	rng       *rand.Rand // lazily seeded; access through rand()
	rngDraws  uint64     // Intn draws consumed; replayed on snapshot restore
	cfg       Config

	events    []Event
	dropped   int // entries dropped by the ring buffer
	seqBase   int // lifetime sequence number of events[0] (ring drops + clears)
	pipes     map[int]*pipe
	nextPipe  int
	syscalls  uint64
	faultsGen uint64 // generic (demand/COW) faults handled
	spurious  uint64 // benign refaults absorbed (stale TLB / double delivery)
}

// New creates a kernel bound to a machine and installs itself as the
// machine's trap handler.
func New(cfg Config) (*Kernel, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("kernel: config requires a machine")
	}
	if cfg.Timeslice == 0 {
		cfg.Timeslice = 50_000
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 4096
	}
	k := &Kernel{
		m:         cfg.Machine,
		prot:      cfg.Protector,
		procs:     map[int]*Process{},
		nextPID:   1,
		timeslice: cfg.Timeslice,
		cfg:       cfg,
		pipes:     map[int]*pipe{},
	}
	if k.prot == nil {
		k.prot = Unprotected{}
	}
	k.m.SetHandler(k)
	if cfg.Chaos != nil {
		// Hand the forced-preemption draw to the machine so the superblock
		// engine can consume it between in-block instructions with the same
		// per-instruction cadence the scheduler loop produces.
		k.m.Preempt = cfg.Chaos.ForcePreempt
	}
	// Contained physical-memory faults (allocator misuse, out-of-range frame
	// access) surface in the event log as machine checks.
	k.m.Phys.FaultHook = func(err error) {
		k.Emit(Event{Kind: EvMachineCheck, Text: "phys: " + err.Error()})
	}
	return k, nil
}

// rand returns the kernel's placement RNG, seeding it on first use. Seeding
// a math/rand source costs more than the rest of kernel construction put
// together, and most kernels (stack randomization off, zero draws replayed on
// restore) never draw from it at all.
func (k *Kernel) rand() *rand.Rand {
	if k.rng == nil {
		k.rng = rand.New(rand.NewSource(k.cfg.RandSeed))
	}
	return k.rng
}

// Machine returns the underlying machine.
func (k *Kernel) Machine() *cpu.Machine { return k.m }

// Phys returns physical memory.
func (k *Kernel) Phys() *mem.Physical { return k.m.Phys }

// Protector returns the active protection policy.
func (k *Kernel) Protector() Protector { return k.prot }

// Current returns the process now on the CPU (nil between runs).
func (k *Kernel) Current() *Process { return k.cur }

// Process looks up a process by pid.
func (k *Kernel) Process(pid int) (*Process, bool) {
	p, ok := k.procs[pid]
	return p, ok
}

// Emit appends an event to the log (ring-buffer capped) and invokes the
// configured hook.
func (k *Kernel) Emit(ev Event) {
	ev.Cycles = k.m.Cycles
	if ev.PID == 0 && k.cur != nil {
		ev.PID = k.cur.PID
		ev.Proc = k.cur.Name
	}
	if len(k.events) >= k.cfg.MaxEvents {
		k.events = k.events[1:]
		k.dropped++
		k.seqBase++
	}
	k.events = append(k.events, ev)
	if k.cfg.EventHook != nil {
		k.cfg.EventHook(ev)
	}
}

// Events returns the accumulated event log.
func (k *Kernel) Events() []Event { return k.events }

// EventSeq returns the total number of events emitted over the kernel's
// lifetime, including entries the ring buffer has already dropped or the
// host has cleared. It is the cursor value an incremental reader passes to
// EventsSince.
func (k *Kernel) EventSeq() int { return k.seqBase + len(k.events) }

// EventsSince returns the still-retained events whose lifetime sequence
// number (see EventSeq) is at least n, without copying: pollers and the
// NDJSON streamer consume the log incrementally instead of re-reading the
// whole slice on every poll. Events older than n that have since been
// dropped or cleared are silently skipped. The returned slice aliases the
// log and is valid until the next Emit.
func (k *Kernel) EventsSince(n int) []Event {
	if n < k.seqBase {
		n = k.seqBase
	}
	i := n - k.seqBase
	if i >= len(k.events) {
		return nil
	}
	return k.events[i:]
}

// Counters reports kernel activity totals: syscalls dispatched, generic
// (demand-paging and copy-on-write) faults handled, and events dropped by
// the ring buffer.
func (k *Kernel) Counters() (syscalls, genericFaults uint64, droppedEvents int) {
	return k.syscalls, k.faultsGen, k.dropped
}

// SpuriousFaults reports how many benign refaults the page-fault handler
// absorbed — faults whose PTE already permitted the access, the signature
// of a stale TLB entry or a double-delivered trap.
func (k *Kernel) SpuriousFaults() uint64 { return k.spurious }

// MachineCheck records a contained host-level fault (allocator misuse, a
// recovered panic) as an EvMachineCheck event. A nil err is ignored so
// call sites can wrap fallible calls without branching.
func (k *Kernel) MachineCheck(origin string, err error) {
	if err == nil {
		return
	}
	k.Emit(Event{Kind: EvMachineCheck, Text: origin + ": " + err.Error()})
}

// Processes returns every process (alive or dead) in ascending PID order —
// the deterministic walk the invariant auditor needs.
func (k *Kernel) Processes() []*Process {
	out := make([]*Process, 0, len(k.procs))
	for _, p := range k.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// EventsOf filters events by kind.
func (k *Kernel) EventsOf(kind EventKind) []Event {
	var out []Event
	for _, e := range k.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// ClearEvents drops the accumulated event log. Lifetime sequence numbers
// (EventSeq) keep counting across the clear, so incremental readers never
// observe the cursor moving backwards.
func (k *Kernel) ClearEvents() {
	k.seqBase += len(k.events)
	k.events = nil
}

// RegisterTelemetry registers the kernel's activity counters as sampled
// gauges. Sampling happens at export time; syscall and fault paths are
// untouched.
func (k *Kernel) RegisterTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("splitmem_kernel_syscalls_total", "syscalls dispatched",
		func() float64 { return float64(k.syscalls) })
	r.GaugeFunc("splitmem_kernel_generic_faults_total", "demand-paging and copy-on-write faults handled",
		func() float64 { return float64(k.faultsGen) })
	r.GaugeFunc("splitmem_kernel_spurious_faults_total", "benign refaults absorbed (stale TLB, double delivery)",
		func() float64 { return float64(k.spurious) })
	r.GaugeFunc("splitmem_kernel_events_dropped_total", "event-log entries dropped by the ring buffer",
		func() float64 { return float64(k.dropped) })
	r.GaugeFunc("splitmem_kernel_live_processes", "processes currently alive",
		func() float64 { return float64(k.liveProcesses()) })
}

// Unprotected is the default, no-op protection policy: every mapped page is
// directly user-accessible and (on NX hardware) executable.
type Unprotected struct{}

// Name implements Protector.
func (Unprotected) Name() string { return "none" }

// MapPage implements Protector: plain present+user mapping, writable per the
// section permission, no NX.
func (Unprotected) MapPage(k *Kernel, p *Process, vpn uint32, frame uint32, perm byte) {
	e := paging.Entry(0).WithFrame(frame).With(paging.Present | paging.User)
	if perm&permW != 0 {
		e = e.With(paging.Writable)
	}
	p.PT.Set(vpn, e)
}

// HandleFault implements Protector.
func (Unprotected) HandleFault(*Kernel, *Process, uint32, uint32) FaultVerdict {
	return FaultNotMine
}

// HandleDebug implements Protector.
func (Unprotected) HandleDebug(*Kernel, *Process) bool { return false }

// HandleUndefined implements Protector.
func (Unprotected) HandleUndefined(*Kernel, *Process) UDVerdict { return UDNotMine }

// DataFrame implements Protector.
func (Unprotected) DataFrame(*Process, uint32) (uint32, bool) { return 0, false }

// ForkPage implements Protector.
func (Unprotected) ForkPage(*Kernel, *Process, *Process, uint32, paging.Entry) (paging.Entry, bool) {
	return 0, false
}

// ReleasePage implements Protector.
func (Unprotected) ReleasePage(*Kernel, *Process, uint32, paging.Entry) bool { return false }

// ProtectPage implements Protector: toggle the writable bit only.
func (Unprotected) ProtectPage(k *Kernel, p *Process, vpn uint32, e paging.Entry, perm byte) bool {
	ne := e.Without(paging.Writable)
	if perm&permW != 0 {
		ne = ne.With(paging.Writable)
	}
	p.PT.Set(vpn, ne)
	return true
}
