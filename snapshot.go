package splitmem

// Machine-state serialization. A machine's complete architectural state has
// one wire format, the Image format (image.go): a metadata section encoded
// here, followed by the nonzero physical frames. Together they capture the
// CPU register file and counters, every physical frame (split code/data
// twins included) with the allocator's free-list order, refcounts and write
// generations, pagetables, both TLBs with their deliberately desynchronized
// contents and restriction state, the kernel (process table, run queue,
// pipes, event ring with lifetime cursors), the protection engine's state,
// the execution-trace ring, and the chaos injector's PRNG stream — such that
// a machine booted from the bytes (ReadImage, then Image.Boot) resumes the
// exact retired-instruction stream the uninterrupted machine would have
// produced. Encoding is a pure function of machine state: maps are
// serialized in sorted order, the TLBs positionally, and all-zero frames are
// skipped, so identical machines produce identical bytes however they came
// to be (cold-booted, forked, or booted from an image).
//
// Deliberately not captured:
//
//   - The superblock engine's compiled blocks: host-side acceleration
//     state, rebuilt on demand. A booted machine starts cold (superblock
//     regions re-prove hotness and recompile); only the host-only
//     Superblock* counters can differ from an uninterrupted run.
//   - Frame sharing: whether a frame is private or read through a shared
//     base is host-side bookkeeping, so the Mem* sharing counters can
//     differ too.
//   - Telemetry spans and metrics: host-side observability, not guest
//     state. A booted machine starts a fresh timeline.
//   - Config.EventHook: functions don't serialize; pass one to
//     Image.BootWithHook to re-attach.

import (
	"splitmem/internal/mem"
	"splitmem/internal/snapshot"
)

// encodeMeta serializes the machine's architectural state, frame contents
// aside, in the canonical section order: the Image metadata section. The
// allocator section follows the config directly because decodeMeta needs
// both to build the machine around its copy-on-write memory before it can
// decode the rest.
func (m *Machine) encodeMeta() []byte {
	w := snapshot.NewWriter()
	encodeConfig(w, &m.cfg)
	m.mach.Phys.EncodeMeta(w)
	m.mach.EncodeState(w)
	m.mach.ITLB.EncodeState(w)
	m.mach.DTLB.EncodeState(w)
	m.kern.EncodeState(w)
	if m.traces != nil {
		m.traces.EncodeState(w)
	}
	if m.inj != nil {
		m.inj.EncodeState(w)
	}
	return w.Bytes()
}

// Snapshot serializes the machine's complete architectural state in the
// Image wire format: the bytes are exactly those m.Image() followed by
// WriteTo would produce at this instant. Read them back with ReadImage and
// start a machine with Image.Boot. Call it only between Run/RunContext
// invocations (the scheduler parks the machine at a timeslice boundary;
// mid-Step state is never observable from outside).
//
// Unlike Image, Snapshot reads the live frames without sealing them: a
// periodic checkpoint must not turn the machine's every later store into a
// copy-on-write unshare.
func (m *Machine) Snapshot() ([]byte, error) {
	return writeImage(m.encodeMeta(), m.mach.Phys), nil
}

// decodeMeta builds a machine from an Image metadata section, attached to
// the image's shared frames copy-on-write. A non-nil pmeta is a cached
// decode of the section's allocator metadata (it always comes from a prior
// decode of the same bytes): that part of the section is skipped, which is
// what makes repeated boots from one Image cheap.
func decodeMeta(meta []byte, hook func(Event), base *mem.Base, pmeta *mem.Meta) (*Machine, error) {
	r := snapshot.NewReader(meta)
	cfg, err := decodeConfig(r)
	if err != nil {
		return nil, err
	}
	// Sanity-cap image-supplied resource demands before New allocates
	// anything: a hostile image that survives the checksum must not be able
	// to request an absurd machine.
	if cfg.PhysBytes > 1<<30 || cfg.ITLBSize > 1<<20 || cfg.DTLBSize > 1<<20 ||
		cfg.TraceDepth > 1<<24 || cfg.TelemetrySpanCap > 1<<24 {
		return nil, snapshot.Corruptf("image demands an implausible machine (phys %d, tlb %d/%d, trace %d, spans %d)",
			cfg.PhysBytes, cfg.ITLBSize, cfg.DTLBSize, cfg.TraceDepth, cfg.TelemetrySpanCap)
	}
	cfg.EventHook = hook
	if pmeta != nil {
		err = mem.SkipMeta(r)
	} else {
		pmeta, err = mem.DecodeMeta(r)
	}
	if err != nil {
		return nil, err
	}
	phys, err := mem.BootPhysical(base, pmeta)
	if err != nil {
		return nil, snapshot.Corruptf("%v", err)
	}
	// attached holds the Base reference until the decode is known good, so
	// a boot that fails partway never leaks it.
	attached := phys
	defer func() {
		if attached != nil {
			attached.Close()
		}
	}()
	m, err := newMachine(cfg, phys)
	if err != nil {
		// The checksum passed, so the bytes decode; a config no machine
		// accepts is still a corrupt image from the caller's point of view.
		return nil, snapshot.Corruptf("image config rejected: %v", err)
	}
	if err := m.mach.DecodeState(r); err != nil {
		return nil, err
	}
	if err := m.mach.ITLB.DecodeState(r); err != nil {
		return nil, err
	}
	if err := m.mach.DTLB.DecodeState(r); err != nil {
		return nil, err
	}
	if err := m.kern.DecodeState(r); err != nil {
		return nil, err
	}
	if m.traces != nil {
		if err := m.traces.DecodeState(r); err != nil {
			return nil, err
		}
	}
	if m.inj != nil {
		if err := m.inj.DecodeState(r); err != nil {
			return nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, snapshot.Corruptf("%d trailing bytes after final section", r.Remaining())
	}
	// Reinstall the interrupted process's address space. No flush: the TLB
	// contents (including deliberate desynchronization) were restored
	// verbatim, and flushing here would destroy exactly the state being
	// restored. When no process was on the CPU the pagetable stays nil and
	// the next switchTo installs one precisely as the uninterrupted run
	// would have.
	if cur := m.kern.Current(); cur != nil {
		m.mach.RestorePagetable(cur.PT)
	} else {
		m.mach.RestorePagetable(nil)
	}
	attached = nil
	return m, nil
}

// Decode error sentinels, re-exported so embedders can classify ReadImage,
// Boot and VerifyImage failures without importing the internal codec
// package.
var (
	ErrSnapshotTruncated = snapshot.ErrTruncated
	ErrSnapshotCorrupt   = snapshot.ErrCorrupt
	ErrSnapshotVersion   = snapshot.ErrVersion
)

// encodeConfig serializes every Config field except EventHook in a fixed
// order. The config rides inside the image so Boot can rebuild an
// identical machine without the caller re-supplying (and possibly
// mismatching) it.
func encodeConfig(w *snapshot.Writer, cfg *Config) {
	w.Int(int(cfg.Protection))
	w.Int(int(cfg.Response))
	w.F64(cfg.SplitFraction)
	w.Bool(cfg.MixedOnly)
	w.Bool(cfg.ForensicShellcode != nil)
	w.Bytes32(cfg.ForensicShellcode)
	w.Bool(cfg.SoftTLB)
	w.Bool(cfg.LazyTwins)
	w.U64(cfg.Chaos.Seed)
	w.F64(cfg.Chaos.ITLBEvict)
	w.F64(cfg.Chaos.DTLBEvict)
	w.F64(cfg.Chaos.TLBFlush)
	w.F64(cfg.Chaos.StaleTLB)
	w.F64(cfg.Chaos.SpuriousDebug)
	w.F64(cfg.Chaos.DoubleFault)
	w.F64(cfg.Chaos.BitFlip)
	w.F64(cfg.Chaos.Preempt)
	w.Bool(cfg.Paranoid)
	w.U64(cfg.CostModel.Instr)
	w.U64(cfg.CostModel.MemAccess)
	w.U64(cfg.CostModel.TLBWalk)
	w.U64(cfg.CostModel.Trap)
	w.U64(cfg.CostModel.PFBase)
	w.U64(cfg.CostModel.DebugTrap)
	w.U64(cfg.CostModel.Syscall)
	w.U64(cfg.CostModel.CtxSwitch)
	w.U64(cfg.CostModel.IOByte)
	w.U64(cfg.CostModel.DemandFill)
	w.U64(cfg.CostModel.COWCopy)
	w.Int(cfg.ITLBSize)
	w.Int(cfg.DTLBSize)
	w.Int(cfg.PhysBytes)
	w.Bool(cfg.NoSuperblocks)
	w.Int(cfg.TraceDepth)
	w.Bool(cfg.Telemetry)
	w.Int(cfg.TelemetrySpanCap)
	w.U64(cfg.Timeslice)
	w.Bool(cfg.RandomizeStack)
	w.I64(cfg.Seed)
	w.Bool(cfg.TraceSyscalls)
}

func decodeConfig(r *snapshot.Reader) (Config, error) {
	var cfg Config
	cfg.Protection = Protection(r.Int())
	cfg.Response = ResponseMode(r.Int())
	cfg.SplitFraction = r.F64()
	cfg.MixedOnly = r.Bool()
	hasShell := r.Bool()
	cfg.ForensicShellcode = r.Bytes32()
	if !hasShell {
		cfg.ForensicShellcode = nil
	}
	cfg.SoftTLB = r.Bool()
	cfg.LazyTwins = r.Bool()
	cfg.Chaos.Seed = r.U64()
	cfg.Chaos.ITLBEvict = r.F64()
	cfg.Chaos.DTLBEvict = r.F64()
	cfg.Chaos.TLBFlush = r.F64()
	cfg.Chaos.StaleTLB = r.F64()
	cfg.Chaos.SpuriousDebug = r.F64()
	cfg.Chaos.DoubleFault = r.F64()
	cfg.Chaos.BitFlip = r.F64()
	cfg.Chaos.Preempt = r.F64()
	cfg.Paranoid = r.Bool()
	cfg.CostModel.Instr = r.U64()
	cfg.CostModel.MemAccess = r.U64()
	cfg.CostModel.TLBWalk = r.U64()
	cfg.CostModel.Trap = r.U64()
	cfg.CostModel.PFBase = r.U64()
	cfg.CostModel.DebugTrap = r.U64()
	cfg.CostModel.Syscall = r.U64()
	cfg.CostModel.CtxSwitch = r.U64()
	cfg.CostModel.IOByte = r.U64()
	cfg.CostModel.DemandFill = r.U64()
	cfg.CostModel.COWCopy = r.U64()
	cfg.ITLBSize = r.Int()
	cfg.DTLBSize = r.Int()
	cfg.PhysBytes = r.Int()
	cfg.NoSuperblocks = r.Bool()
	cfg.TraceDepth = r.Int()
	cfg.Telemetry = r.Bool()
	cfg.TelemetrySpanCap = r.Int()
	cfg.Timeslice = r.U64()
	cfg.RandomizeStack = r.Bool()
	cfg.Seed = r.I64()
	cfg.TraceSyscalls = r.Bool()
	return cfg, r.Err()
}
