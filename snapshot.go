package splitmem

// Checkpoint/restore. Snapshot serializes the entire machine — CPU register
// file and counters, every physical frame (including split code/data twins),
// pagetables, both TLBs with their deliberately desynchronized contents and
// restriction state, the kernel (process table, run queue, pipes, event ring
// with lifetime cursors), the protection engine's state, the execution-trace
// ring, and the chaos injector's PRNG stream — such that Restore resumes the
// exact retired-instruction stream the uninterrupted machine would have
// produced. The format is versioned, checksummed (one CRC32 over the whole
// image), and a pure function of machine state: maps are serialized in
// sorted order and the TLBs positionally, so identical machines produce
// identical images.
//
// Deliberately not captured:
//
//   - The superblock engine's compiled blocks: host-side acceleration
//     state, rebuilt on demand. A restored machine starts cold (superblock
//     regions re-prove hotness and recompile); only the host-only
//     Superblock* counters can differ from an uninterrupted run.
//   - Telemetry spans and metrics: host-side observability, not guest
//     state. A restored machine starts a fresh timeline.
//   - Config.EventHook: functions don't serialize; pass one to
//     RestoreWithHook to re-attach.

import (
	"fmt"

	"splitmem/internal/mem"
	"splitmem/internal/snapshot"
)

// snapMagic brands a snapshot image; snapVersion is bumped on any format
// change (there is no cross-version decoding — a checkpoint is a short-lived
// crash-recovery artifact, not an archival format).
const (
	snapMagic   = "S86SNAP\x00"
	snapVersion = 2 // v2: NoSuperblocks in the config, Superblock* counters in cpu state
)

// encodeBody serializes the machine's architectural state into w in the
// canonical section order. With frames=true the physical frame contents ride
// along (the Snapshot format); with frames=false only the allocator metadata
// does (the Image meta section — frame contents live in the shared
// mem.Base instead).
func (m *Machine) encodeBody(w *snapshot.Writer, frames bool) {
	encodeConfig(w, &m.cfg)
	m.mach.EncodeState(w)
	if frames {
		m.mach.Phys.EncodeState(w)
	} else {
		m.mach.Phys.EncodeMeta(w)
	}
	m.mach.ITLB.EncodeState(w)
	m.mach.DTLB.EncodeState(w)
	m.kern.EncodeState(w)
	if m.traces != nil {
		m.traces.EncodeState(w)
	}
	if m.inj != nil {
		m.inj.EncodeState(w)
	}
}

// Snapshot serializes the machine's complete architectural state. Call it
// only between Run/RunContext invocations (the scheduler parks the machine
// at a timeslice boundary; mid-Step state is never observable from outside).
//
// Snapshot predates the typed Image API and remains the wire format for
// checkpoints; new code that wants to boot many machines from one parked
// state should prefer Machine.Image / Machine.Fork, which share physical
// frames copy-on-write instead of duplicating them.
func (m *Machine) Snapshot() ([]byte, error) {
	w := snapshot.NewWriter()
	w.Raw([]byte(snapMagic))
	w.U32(snapVersion)
	m.encodeBody(w, true)
	w.U32(snapshot.Checksum(w.Bytes()))
	return w.Bytes(), nil
}

// Restore builds a machine from a Snapshot image. Failures are classified:
// errors.Is(err, snapshot.ErrTruncated / ErrCorrupt / ErrVersion) (via the
// internal snapshot package's sentinels re-exported as SnapshotErr*).
func Restore(image []byte) (*Machine, error) { return RestoreWithHook(image, nil) }

// RestoreWithHook is Restore with an event hook re-attached to the restored
// machine (hooks are functions and cannot live in the image).
func RestoreWithHook(image []byte, hook func(Event)) (*Machine, error) {
	if len(image) < len(snapMagic)+8 {
		return nil, snapshot.ErrTruncated
	}
	if string(image[:len(snapMagic)]) != snapMagic {
		return nil, snapshot.Corruptf("bad magic")
	}
	body := image[:len(image)-4]
	want := snapshot.NewReader(image[len(image)-4:]).U32()
	if got := snapshot.Checksum(body); got != want {
		return nil, snapshot.Corruptf("checksum mismatch: image says %#x, content hashes to %#x", want, got)
	}
	r := snapshot.NewReader(body[len(snapMagic):])
	if v := r.U32(); v != snapVersion {
		return nil, fmt.Errorf("%w: image version %d, this build reads %d", snapshot.ErrVersion, v, snapVersion)
	}
	return decodeBody(r, hook, nil, nil)
}

// decodeBody rebuilds a machine from the canonical section sequence
// (everything after the magic/version header). With base == nil the frame
// contents are read inline (the Snapshot format); with a base the reader
// carries only allocator metadata and the machine attaches to the shared
// frames copy-on-write (the Image format). A non-nil pmeta is a cached decode
// of that allocator metadata (it always comes from a prior decode of the same
// bytes): the byte section is skipped and the allocator installed by copy,
// which is what makes repeated boots from one Image cheap.
func decodeBody(r *snapshot.Reader, hook func(Event), base *mem.Base, pmeta *mem.Meta) (*Machine, error) {
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
	// attached tracks a base-refcounted physical memory until the decode is
	// known good, so a boot that fails partway never leaks a Base reference.
	var attached *mem.Physical
	defer func() {
		if attached != nil {
			attached.Close()
		}
	}()
	var bootPhys *mem.Physical
	if base != nil && pmeta != nil {
		bp, err := mem.BootPhysical(base, pmeta)
		if err != nil {
			return nil, snapshot.Corruptf("%v", err)
		}
		bootPhys = bp
		attached = bp
	}
	m, err := newMachine(cfg, bootPhys)
	if err != nil {
		// The checksum passed, so the bytes decode; a config no machine
		// accepts is still a corrupt image from the caller's point of view.
		return nil, snapshot.Corruptf("image config rejected: %v", err)
	}
	if err := m.mach.DecodeState(r); err != nil {
		return nil, err
	}
	switch {
	case base == nil:
		if err := m.mach.Phys.DecodeState(r); err != nil {
			return nil, err
		}
	case pmeta != nil:
		// The machine was built around a prebuilt copy-on-write attachment
		// (bootPhys above); only keep the reader aligned with the canonical
		// section sequence.
		if err := mem.SkipMeta(r); err != nil {
			return nil, err
		}
	default:
		if err := m.mach.Phys.DecodeMeta(r); err != nil {
			return nil, err
		}
		if err := m.mach.Phys.Attach(base); err != nil {
			return nil, snapshot.Corruptf("%v", err)
		}
		attached = m.mach.Phys
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

// Snapshot error sentinels, re-exported so embedders can classify Restore
// failures without importing the internal codec package.
var (
	ErrSnapshotTruncated = snapshot.ErrTruncated
	ErrSnapshotCorrupt   = snapshot.ErrCorrupt
	ErrSnapshotVersion   = snapshot.ErrVersion
)

// SnapshotChecksum computes the integrity hash a valid image carries in its
// trailer (CRC-32/IEEE over everything before it) — exposed for tools and
// tests that inspect or patch images.
func SnapshotChecksum(body []byte) uint32 { return snapshot.Checksum(body) }

// VerifySnapshot checks an image's framing integrity — magic, minimum
// length, and the trailer CRC over the whole body — without decoding any
// state or allocating a machine. It is the cheap transfer-integrity gate for
// checkpoint images shipped between processes (the cluster gateway verifies
// every image it relays, and a replica re-verifies before resuming): a
// corrupt image must be caught here and refetched, never handed to Restore.
func VerifySnapshot(image []byte) error {
	if len(image) < len(snapMagic)+8 {
		return snapshot.ErrTruncated
	}
	if string(image[:len(snapMagic)]) != snapMagic {
		return snapshot.Corruptf("bad magic")
	}
	body := image[:len(image)-4]
	want := snapshot.NewReader(image[len(image)-4:]).U32()
	if got := snapshot.Checksum(body); got != want {
		return snapshot.Corruptf("checksum mismatch: image says %#x, content hashes to %#x", want, got)
	}
	return nil
}

// encodeConfig serializes every Config field except EventHook in a fixed
// order. The config rides inside the image so Restore can rebuild an
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
	// Placeholder for the removed decode-cache knob: the v2 layout keeps
	// the slot so images written before the removal (a running cluster's
	// journaled checkpoints, say) still restore.
	w.Bool(false)
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
	r.Bool() // the removed decode-cache knob; see encodeConfig
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
