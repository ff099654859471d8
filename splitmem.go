// Package splitmem is a full-system reproduction of "An Architectural
// Approach to Preventing Code Injection Attacks" (Riley, Jiang, Xu; DSN
// 2007 / IEEE TDSC 2010): a virtual Harvard ("split memory") architecture
// built by desynchronizing the split instruction/data TLBs of an x86-class
// processor, so injected code lands in data memory that the processor can
// never fetch.
//
// Because the technique is operating-system pagetable/TLB manipulation on
// real silicon, this library ships its own substrate: the S86 machine
// simulator (CPU, MMU with hardware-walked pagetables, split TLBs, faults,
// single-step), a mini Unix-like kernel, an assembler and binary format for
// guest programs, the split-memory protection engine with the paper's
// break/observe/forensics response modes, the execute-disable-bit baseline,
// the paper's attack suite, and the benchmark harness that regenerates
// every table and figure of the evaluation.
//
// Quick start:
//
//	m, _ := splitmem.New(splitmem.Config{Protection: splitmem.ProtSplit})
//	p, _ := m.LoadAsm(source, "victim")
//	res := m.Run(0)
//
// See examples/ for complete programs.
package splitmem

import (
	"context"
	"fmt"
	"io"

	"splitmem/internal/asm"
	"splitmem/internal/chaos"
	"splitmem/internal/core"
	"splitmem/internal/cpu"
	"splitmem/internal/isa"
	"splitmem/internal/kernel"
	"splitmem/internal/loader"
	"splitmem/internal/mem"
	"splitmem/internal/nx"
	"splitmem/internal/telemetry"
	"splitmem/internal/tlb"
	"splitmem/internal/trace"
)

// Re-exported types so that library users interact with one import path.
type (
	// Event is a kernel event-log entry (process lifecycle, injection
	// detections, forensic dumps, Sebek keystrokes).
	Event = kernel.Event
	// EventKind classifies events.
	EventKind = kernel.EventKind
	// Process is a guest process handle.
	Process = kernel.Process
	// RunResult reports why Run returned.
	RunResult = kernel.RunResult
	// ResponseMode selects the reaction to a detected injection.
	ResponseMode = core.ResponseMode
	// CostModel maps architectural events to simulated cycles.
	CostModel = cpu.CostModel
	// Program is a loaded SELF guest image.
	Program = loader.Program
	// Signal is a kernel kill reason.
	Signal = kernel.Signal
	// StopReason explains why Run stopped.
	StopReason = kernel.StopReason
	// SplitStats counts split-engine activity.
	SplitStats = core.Stats
	// ChaosConfig sets per-fault-class injection rates for the chaos engine.
	ChaosConfig = chaos.Config
	// ChaosStats counts injected faults by class.
	ChaosStats = chaos.Stats
	// TelemetryHub bundles the metrics registry and span buffer of an
	// instrumented machine (Config.Telemetry).
	TelemetryHub = telemetry.Hub
	// Span is one recorded fault-handling episode or instant.
	Span = telemetry.Span
)

// ChaosDefaults returns the default per-class chaos injection rates.
func ChaosDefaults() ChaosConfig { return chaos.Defaults() }

// Re-exported constants.
const (
	// Break terminates the exploited process (the default response, §4.5.1).
	Break = core.Break
	// Observe logs and lets the attack continue under monitoring (§4.5.2).
	Observe = core.Observe
	// Forensics dumps the injected shellcode and can substitute forensic
	// shellcode (§4.5.3).
	Forensics = core.Forensics
	// Recovery transfers control to the application's registered recovery
	// handler (the extension §4.5 sketches as future work).
	Recovery = core.Recovery

	// Event kinds.
	EvProcessStart       = kernel.EvProcessStart
	EvProcessExit        = kernel.EvProcessExit
	EvSignal             = kernel.EvSignal
	EvInjectionDetected  = kernel.EvInjectionDetected
	EvInjectionObserved  = kernel.EvInjectionObserved
	EvForensicDump       = kernel.EvForensicDump
	EvShellSpawned       = kernel.EvShellSpawned
	EvSebekLine          = kernel.EvSebekLine
	EvLibraryLoad        = kernel.EvLibraryLoad
	EvInvariantViolation = kernel.EvInvariantViolation
	EvMachineCheck       = kernel.EvMachineCheck

	// Signals.
	SIGSEGV = kernel.SIGSEGV
	SIGILL  = kernel.SIGILL
	SIGFPE  = kernel.SIGFPE

	// Run stop reasons.
	ReasonAllDone       = kernel.ReasonAllDone
	ReasonWaitingInput  = kernel.ReasonWaitingInput
	ReasonBudget        = kernel.ReasonBudget
	ReasonDeadlock      = kernel.ReasonDeadlock
	ReasonInternalError = kernel.ReasonInternalError
)

// Protection selects the memory-protection policy for a machine.
type Protection int

// Protection policies.
const (
	// ProtNone runs unprotected (legacy von Neumann behavior).
	ProtNone Protection = iota
	// ProtNX models hardware execute-disable (DEP / PaX PAGEEXEC).
	ProtNX
	// ProtSplit runs the split-memory engine stand-alone on legacy
	// hardware (no NX) — the paper's worst-case deployment.
	ProtSplit
	// ProtSplitNX combines split memory with execute-disable hardware:
	// only the configured subset of pages (mixed-only or a fraction) is
	// split; the rest is NX-protected (§4.2.1, Fig. 9).
	ProtSplitNX
)

// String names the protection policy.
func (p Protection) String() string {
	switch p {
	case ProtNone:
		return "none"
	case ProtNX:
		return "nx"
	case ProtSplit:
		return "split"
	case ProtSplitNX:
		return "split+nx"
	}
	return "unknown"
}

// Config assembles a simulated machine, kernel and protection policy.
type Config struct {
	Protection Protection
	Response   ResponseMode // split modes only

	// SplitFraction splits only this fraction of pages (ProtSplitNX);
	// 0 or 1 means all pages.
	SplitFraction float64
	// MixedOnly splits only write+execute pages (ProtSplitNX).
	MixedOnly bool
	// ForensicShellcode replaces detected payloads in Forensics mode.
	ForensicShellcode []byte
	// SoftTLB models a software-managed-TLB architecture (§4.7): the split
	// engine loads the TLBs directly instead of using the x86 walk and
	// single-step tricks.
	SoftTLB bool
	// LazyTwins defers code-twin allocation for data pages until a fetch
	// reaches them (§5.1's envisioned demand-paging optimization), roughly
	// halving the split system's memory overhead.
	LazyTwins bool

	// Chaos enables deterministic adversarial fault injection (spurious TLB
	// evictions and flushes, stale-entry retention, spurious debug traps,
	// double-delivered page faults, DRAM bit flips, forced preemption) at
	// the configured per-class rates. The zero value injects nothing.
	Chaos ChaosConfig
	// Paranoid enables the split engine's invariant auditor: after every
	// protector entry point the Harvard invariants are re-verified across
	// both TLBs and all pagetables; violations surface as
	// EvInvariantViolation events, never a panic. Expensive; meant for
	// tests and chaos runs.
	Paranoid bool

	// Machine knobs. Zero values select the paper's testbed defaults
	// (PIII-600 cost model, 32/64-entry ITLB/DTLB, 64 MiB RAM).
	CostModel CostModel
	ITLBSize  int
	DTLBSize  int
	PhysBytes int

	// NoDecodeCache disables the predecoded-instruction fast path and
	// forces the slow fetch/decode loop. The fast path is architecturally
	// invisible (the differential-execution oracle proves it retires the
	// identical stream), so this knob exists for that oracle and for
	// benchmarking the fast path itself, not for correctness.
	NoDecodeCache bool

	// NoSuperblocks disables the superblock threaded-code engine — the
	// tier above the predecode cache, which compiles hot straight-line
	// regions into arrays of pre-bound closures — forcing per-instruction
	// dispatch. Like NoDecodeCache this knob exists for the three-arm
	// differential oracle and the fastpath bench, not for correctness.
	NoSuperblocks bool

	// TraceDepth, when positive, records the last N executed instructions
	// in a ring buffer (see TraceTail). Slows simulation slightly. With a
	// split engine active, injection-detection events carry the ring's
	// contents as a disassembly listing (Event.Trace).
	TraceDepth int

	// Telemetry compiles the telemetry hub into the machine: a metrics
	// registry (fault-handling latency histograms, TLB/engine counters,
	// split-activity heatmaps) and a span buffer recording each
	// fault-handling episode. Off by default; when off, every instrument
	// call site short-circuits on a nil check and the hot paths are
	// unaffected (see BenchmarkTelemetryOnOff).
	Telemetry bool
	// TelemetrySpanCap bounds the span ring (default 8192 spans; the
	// oldest are overwritten once full).
	TelemetrySpanCap int

	// Kernel knobs.
	Timeslice      uint64
	RandomizeStack bool
	Seed           int64
	TraceSyscalls  bool
	EventHook      func(Event)
}

// Machine bundles the simulated hardware, the kernel, and the protection
// engine.
type Machine struct {
	cfg    Config
	mach   *cpu.Machine
	kern   *kernel.Kernel
	split  *core.Engine
	nxEng  *nx.Engine
	traces *trace.Ring
	inj    *chaos.Injector
	hub    *telemetry.Hub
}

// New builds a machine according to cfg. Configurations no machine can
// honor are rejected up front with an error wrapping ErrBadConfig (see
// Config.Validate); any later failure is a construction problem, not the
// caller's.
func New(cfg Config) (*Machine, error) { return newMachine(cfg, nil) }

// newMachine is New with an optional prebuilt physical memory, the seam the
// Image boot fast path uses to hand in a copy-on-write attachment
// (mem.BootPhysical) instead of paying for a cold allocator build.
func newMachine(cfg Config, phys *mem.Physical) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nxEnabled := cfg.Protection == ProtNX || cfg.Protection == ProtSplitNX
	mach, err := cpu.New(cpu.Config{
		PhysBytes:   cfg.PhysBytes,
		ITLBSize:    cfg.ITLBSize,
		DTLBSize:    cfg.DTLBSize,
		Cost:        cfg.CostModel,
		NXEnabled:   nxEnabled,
		DecodeCache: !cfg.NoDecodeCache,
		Superblocks: !cfg.NoSuperblocks,
		Phys:        phys,
	})
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, mach: mach}
	if cfg.Telemetry {
		m.hub = telemetry.NewHub(telemetry.Options{SpanCap: cfg.TelemetrySpanCap})
	}
	// The injector is created (and assigned) only when some fault class is
	// actually enabled: a typed-nil *chaos.Injector in the Chaos interface
	// field would defeat the machine's `m.Chaos != nil` fast path.
	if cfg.Chaos.Enabled() {
		m.inj = chaos.New(cfg.Chaos, mach.Phys)
		mach.Chaos = m.inj
	}
	if cfg.TraceDepth > 0 {
		m.traces = trace.NewRing(cfg.TraceDepth)
		mach.TraceHook = func(eip uint32, in isa.Instr) {
			m.traces.Add(trace.Entry{Cycles: mach.Cycles, EIP: eip, Instr: in})
		}
	}

	var prot kernel.Protector
	switch cfg.Protection {
	case ProtNone:
		prot = kernel.Unprotected{}
	case ProtNX:
		m.nxEng = nx.New()
		prot = m.nxEng
	case ProtSplit:
		m.split = core.New(core.Config{
			Response:          cfg.Response,
			ForensicShellcode: cfg.ForensicShellcode,
			Seed:              uint64(cfg.Seed),
			SoftTLB:           cfg.SoftTLB,
			LazyTwins:         cfg.LazyTwins,
			Paranoid:          cfg.Paranoid,
			StaleVPN:          m.staleVPN(),
			Hub:               m.hub,
			TraceRing:         m.traces,
		})
		prot = m.split
	case ProtSplitNX:
		m.split = core.New(core.Config{
			Response:          cfg.Response,
			Fraction:          cfg.SplitFraction,
			MixedOnly:         cfg.MixedOnly,
			UnsplitNX:         true,
			Seed:              uint64(cfg.Seed),
			ForensicShellcode: cfg.ForensicShellcode,
			SoftTLB:           cfg.SoftTLB,
			LazyTwins:         cfg.LazyTwins,
			Paranoid:          cfg.Paranoid,
			StaleVPN:          m.staleVPN(),
			Hub:               m.hub,
			TraceRing:         m.traces,
		})
		prot = m.split
	default:
		return nil, fmt.Errorf("splitmem: unknown protection %d", cfg.Protection)
	}

	kcfg := kernel.Config{
		Machine:        mach,
		Protector:      prot,
		Timeslice:      cfg.Timeslice,
		RandomizeStack: cfg.RandomizeStack,
		RandSeed:       cfg.Seed,
		TraceSyscalls:  cfg.TraceSyscalls,
		EventHook:      cfg.EventHook,
	}
	if m.hub != nil {
		// Chain an instant-span recorder in front of any user hook so every
		// kernel event lands on the timeline (detections, machine checks,
		// invariant violations, process lifecycle).
		user := kcfg.EventHook
		spans := m.hub.Spans()
		kcfg.EventHook = func(ev Event) {
			spans.Instant("ev:"+ev.Kind.String(), ev.PID, ev.Addr>>12, mach.Cycles)
			if user != nil {
				user(ev)
			}
		}
	}
	if m.inj != nil {
		kcfg.Chaos = m.inj
	}
	kern, err := kernel.New(kcfg)
	if err != nil {
		return nil, err
	}
	m.kern = kern
	if m.hub != nil {
		r := m.hub.Registry()
		mach.RegisterTelemetry(r) // CPU + both TLBs + physical memory
		kern.RegisterTelemetry(r)
		if m.inj != nil {
			m.inj.RegisterTelemetry(r)
		}
	}
	return m, nil
}

// staleVPN returns the auditor's chaos-attribution query, or nil when no
// injector is active.
func (m *Machine) staleVPN() func(uint32) bool {
	if m.inj == nil {
		return nil
	}
	return m.inj.StaleVPN
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Kernel exposes the underlying kernel for advanced use (event filtering,
// direct process control).
func (m *Machine) Kernel() *kernel.Kernel { return m.kern }

// CPU exposes the underlying machine (stats, TLBs).
func (m *Machine) CPU() *cpu.Machine { return m.mach }

// SplitEngine returns the split-memory engine, or nil when another policy
// is active.
func (m *Machine) SplitEngine() *core.Engine { return m.split }

// Protection returns the active policy.
func (m *Machine) Protection() Protection { return m.cfg.Protection }

// LoadProgram spawns a process from a SELF image.
func (m *Machine) LoadProgram(p *Program, name string) (*Process, error) {
	return m.kern.Spawn(p, kernel.ProcOptions{Name: name})
}

// LoadAsm assembles S86 source and spawns a process from it.
func (m *Machine) LoadAsm(src, name string) (*Process, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	return m.LoadProgram(prog, name)
}

// LoadBinary parses a serialized SELF image and spawns a process.
func (m *Machine) LoadBinary(image []byte, name string) (*Process, error) {
	prog, err := loader.Unmarshal(image)
	if err != nil {
		return nil, err
	}
	return m.LoadProgram(prog, name)
}

// Run drives the scheduler; maxCycles 0 means no budget. See
// kernel.Kernel.Run for the contract. A simulator bug that panics inside
// the kernel is contained: Run reports ReasonInternalError with the panic
// value, host stack, and (when TraceDepth is set) the guest trace tail.
// Run is RunContext with a background context; callers that need
// cancellation or deadlines use RunContext directly.
func (m *Machine) Run(maxCycles uint64) RunResult {
	return m.RunContext(context.Background(), maxCycles)
}

// Cycles returns total simulated cycles elapsed.
func (m *Machine) Cycles() uint64 { return m.mach.Cycles }

// Events returns the kernel event log.
func (m *Machine) Events() []Event { return m.kern.Events() }

// EventsOf filters the event log by kind.
func (m *Machine) EventsOf(kind EventKind) []Event { return m.kern.EventsOf(kind) }

// EventsJSONL renders the event log as JSON Lines for external collectors
// (honeypot pipelines ingesting observe-mode detections and Sebek
// keystrokes).
func (m *Machine) EventsJSONL() ([]byte, error) { return kernel.EventsJSONL(m.kern.Events()) }

// Stats aggregates machine, TLB, and protection-engine statistics.
type Stats struct {
	Cycles         uint64
	Instructions   uint64
	PageFaults     uint64
	DebugTraps     uint64
	CtxSwitches    uint64
	ITLBHits       uint64
	ITLBMisses     uint64
	DTLBHits       uint64
	DTLBMisses     uint64
	Syscalls       uint64
	KernelFaults   uint64     // demand-paging + copy-on-write faults
	SpuriousFaults uint64     // benign refaults absorbed (stale TLB, double delivery)
	MemFaults      uint64     // contained physical-memory machine checks
	Split          SplitStats // zero when no split engine is active
	Chaos          ChaosStats // zero when no chaos injection is configured

	// Fast-path health (predecode cache and superblock engine). Host-side
	// only: these are the sole counters allowed to differ between runs of
	// the same program under different engine configurations.
	DecodeHits          uint64
	DecodeMisses        uint64
	DecodeInvalidations uint64

	SuperblockCompiled      uint64
	SuperblockEntered       uint64
	SuperblockSideExits     uint64
	SuperblockInvalidations uint64

	// Frame-store sharing (warm pools / forks). Host-side only, like the
	// fast-path counters: a forked machine shares frames its cold-booted
	// twin owns outright, so these legitimately differ between the two and
	// the differential oracle scrubs them the same way.
	MemSharedFrames  uint64
	MemPrivateFrames uint64
	MemCowCopies     uint64
}

// Stats snapshots current counters.
func (m *Machine) Stats() Stats {
	s := Stats{
		Cycles:       m.mach.Cycles,
		Instructions: m.mach.Stats.Instructions,
		PageFaults:   m.mach.Stats.PageFaults,
		DebugTraps:   m.mach.Stats.DebugTraps,
		CtxSwitches:  m.mach.Stats.CtxSwitches,
	}
	s.DecodeHits = m.mach.Stats.DecodeHits
	s.DecodeMisses = m.mach.Stats.DecodeMisses
	s.DecodeInvalidations = m.mach.Stats.DecodeInvalidations
	s.SuperblockCompiled = m.mach.Stats.SuperblockCompiled
	s.SuperblockEntered = m.mach.Stats.SuperblockEntered
	s.SuperblockSideExits = m.mach.Stats.SuperblockSideExits
	s.SuperblockInvalidations = m.mach.Stats.SuperblockInvalidations
	s.ITLBHits, s.ITLBMisses, _, _ = m.mach.ITLB.Stats()
	s.DTLBHits, s.DTLBMisses, _, _ = m.mach.DTLB.Stats()
	s.Syscalls, s.KernelFaults, _ = m.kern.Counters()
	s.SpuriousFaults = m.kern.SpuriousFaults()
	s.MemFaults = m.mach.Phys.Faults()
	s.MemSharedFrames = uint64(m.mach.Phys.SharedFrames())
	s.MemPrivateFrames = uint64(m.mach.Phys.PrivateFrames())
	s.MemCowCopies = m.mach.Phys.CowCopies()
	if m.split != nil {
		s.Split = m.split.Stats()
	}
	if m.inj != nil {
		s.Chaos = m.inj.Stats()
	}
	return s
}

// Telemetry returns the machine's telemetry hub, or nil unless
// Config.Telemetry was set. All hub and instrument methods are nil-safe,
// so callers may use the result unconditionally.
func (m *Machine) Telemetry() *telemetry.Hub { return m.hub }

// procNames maps guest PIDs to process names for trace exporters.
func (m *Machine) procNames() map[int]string {
	names := map[int]string{}
	for _, p := range m.kern.Processes() {
		names[p.PID] = p.Name
	}
	return names
}

// WriteTrace writes the recorded spans as Chrome trace_event JSON —
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing, with
// one process row per guest process and one thread track per virtual page.
// Timestamps are simulated cycles rendered as microseconds. An error is
// returned when telemetry is disabled.
func (m *Machine) WriteTrace(w io.Writer) error {
	if m.hub == nil {
		return fmt.Errorf("splitmem: telemetry is disabled (set Config.Telemetry)")
	}
	return m.hub.Spans().WriteTraceEvents(w, m.procNames())
}

// WriteMetricsPrometheus writes every registered metric in the Prometheus
// text exposition format. An error is returned when telemetry is disabled.
func (m *Machine) WriteMetricsPrometheus(w io.Writer) error {
	if m.hub == nil {
		return fmt.Errorf("splitmem: telemetry is disabled (set Config.Telemetry)")
	}
	return m.hub.Registry().WritePrometheus(w)
}

// WriteMetricsJSONL writes every registered metric as JSON Lines. An error
// is returned when telemetry is disabled.
func (m *Machine) WriteMetricsJSONL(w io.Writer) error {
	if m.hub == nil {
		return fmt.Errorf("splitmem: telemetry is disabled (set Config.Telemetry)")
	}
	return m.hub.Registry().WriteMetricsJSONL(w)
}

// WriteSpansJSONL writes the recorded spans as JSON Lines. An error is
// returned when telemetry is disabled.
func (m *Machine) WriteSpansJSONL(w io.Writer) error {
	if m.hub == nil {
		return fmt.Errorf("splitmem: telemetry is disabled (set Config.Telemetry)")
	}
	return m.hub.Spans().WriteSpansJSONL(w)
}

// TraceTail returns the recorded execution trace as a disassembly listing
// (empty unless Config.TraceDepth was set).
func (m *Machine) TraceTail() string {
	if m.traces == nil {
		return ""
	}
	return m.traces.String()
}

// Assemble compiles S86 assembly to a SELF program (re-export of the
// assembler for library users).
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// ExitShellcode returns the paper's published exit(0) forensic shellcode.
func ExitShellcode() []byte { return core.ExitShellcode() }

// TLBStats returns hit/miss/eviction/flush counts of a TLB; helper for
// examples and tools.
func TLBStats(t *tlb.TLB) (hits, misses, evictions, flushes uint64) { return t.Stats() }
