// Package chaos implements a deterministic, seeded adversarial fault
// injector for the S86 machine — the "chaos engine".
//
// The split-memory defense rests on fragile state machinery: deliberately
// desynchronized ITLB/DTLB contents that the page-fault and debug handlers
// must keep consistent on every trap. Pewny et al. ("Breaking and Fixing
// Destructive Code Read Defenses") showed that exactly this class of
// TLB-incoherence scheme tends to fail under adversarial corner cases its
// authors never exercised. The injector manufactures those corner cases on
// purpose: spurious TLB evictions and flushes, stale entries that survive
// shootdowns, spurious debug traps, double-delivered page faults, DRAM
// bit flips, and context-switch storms — each class at an independently
// configurable rate, all drawn from one splitmix64 stream so runs are
// bit-for-bit reproducible per seed.
//
// The injector plugs into the machine as a cpu.ChaosAgent and into the
// scheduler as a kernel.Preempter; the invariant auditor (internal/core)
// uses StaleVPN to attribute TLB incoherence it heals to an injected
// hardware fault rather than to an engine bug.
package chaos

import (
	"sort"
	"sync"
	"time"

	"splitmem/internal/cpu"
	"splitmem/internal/mem"
	"splitmem/internal/snapshot"
	"splitmem/internal/telemetry"
)

// Config sets the per-fault-class injection rates. Every rate is a
// probability in [0, 1] evaluated at each opportunity for that class (per
// instruction, per invlpg, per flush entry, per page fault, or per
// scheduler check, as noted). The zero value injects nothing.
type Config struct {
	// Seed drives the injector's private splitmix64 stream; runs with equal
	// seeds and rates inject identical fault sequences.
	Seed uint64

	ITLBEvict     float64 // per instruction: evict one valid ITLB entry
	DTLBEvict     float64 // per instruction: evict one valid DTLB entry
	TLBFlush      float64 // per instruction: flush both TLBs entirely
	StaleTLB      float64 // per invlpg / per flush entry: the stale entry survives
	SpuriousDebug float64 // per instruction: raise a #DB nobody asked for
	DoubleFault   float64 // per resolved #PF: deliver the handler twice
	BitFlip       float64 // per instruction: flip one bit of an allocated frame
	Preempt       float64 // per scheduler check: force the timeslice to expire
}

// Enabled reports whether any fault class has a nonzero rate.
func (c Config) Enabled() bool {
	return c.ITLBEvict > 0 || c.DTLBEvict > 0 || c.TLBFlush > 0 ||
		c.StaleTLB > 0 || c.SpuriousDebug > 0 || c.DoubleFault > 0 ||
		c.BitFlip > 0 || c.Preempt > 0
}

// Defaults returns the default rate for every fault class — the rates the
// chaos test matrix enables one class at a time. They are tuned to fire
// many times over a typical attack scenario while leaving the guest enough
// forward progress to reach the exploit.
func Defaults() Config {
	return Config{
		ITLBEvict:     0.002,
		DTLBEvict:     0.002,
		TLBFlush:      0.0005,
		StaleTLB:      0.05,
		SpuriousDebug: 0.001,
		DoubleFault:   0.05,
		BitFlip:       0.00002,
		Preempt:       0.002,
	}
}

// Stats counts injected faults by class.
type Stats struct {
	ITLBEvictions  uint64
	DTLBEvictions  uint64
	TLBFlushes     uint64
	StaleRetained  uint64 // dropped invlpgs + entries retained across flushes
	SpuriousDebugs uint64
	DoubleFaults   uint64
	BitFlips       uint64
	Preempts       uint64
}

// Injector is the chaos engine. It implements cpu.ChaosAgent and
// kernel.Preempter.
type Injector struct {
	cfg   Config
	phys  *mem.Physical
	state uint64 // splitmix64 stream state
	stats Stats

	// stale records virtual page numbers whose TLB shootdown the injector
	// swallowed (dropped invlpg or flush retention). The invariant auditor
	// consults it to attribute incoherent entries it heals to hardware
	// faults instead of engine bugs. A later successful invlpg clears the
	// mark.
	stale map[uint32]bool
}

// New creates an injector over the machine's physical memory. The compile
// -time assertion that *Injector satisfies cpu.ChaosAgent lives here.
func New(cfg Config, phys *mem.Physical) *Injector {
	return &Injector{
		cfg:   cfg,
		phys:  phys,
		state: cfg.Seed ^ 0x9E3779B97F4A7C15, // never the all-zero stream
		stale: map[uint32]bool{},
	}
}

var _ cpu.ChaosAgent = (*Injector)(nil)

// Stats snapshots the per-class injection counters.
func (i *Injector) Stats() Stats { return i.stats }

// RegisterTelemetry registers the per-class injection counters as sampled
// gauges. Sampling happens at export time; injection paths are untouched.
func (i *Injector) RegisterTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	for _, m := range []struct {
		name, help string
		v          *uint64
	}{
		{"splitmem_chaos_itlb_evictions_total", "injected spurious ITLB evictions", &i.stats.ITLBEvictions},
		{"splitmem_chaos_dtlb_evictions_total", "injected spurious DTLB evictions", &i.stats.DTLBEvictions},
		{"splitmem_chaos_tlb_flushes_total", "injected full TLB flushes", &i.stats.TLBFlushes},
		{"splitmem_chaos_stale_retained_total", "TLB shootdowns swallowed (stale entries retained)", &i.stats.StaleRetained},
		{"splitmem_chaos_spurious_debugs_total", "injected spurious debug traps", &i.stats.SpuriousDebugs},
		{"splitmem_chaos_double_faults_total", "injected double-delivered page faults", &i.stats.DoubleFaults},
		{"splitmem_chaos_bit_flips_total", "injected DRAM bit flips", &i.stats.BitFlips},
		{"splitmem_chaos_preempts_total", "injected forced preemptions", &i.stats.Preempts},
	} {
		v := m.v
		r.GaugeFunc(m.name, m.help, func() float64 { return float64(*v) })
	}
}

// next advances the splitmix64 stream.
func (i *Injector) next() uint64 {
	i.state += 0x9E3779B97F4A7C15
	z := i.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll draws once from the stream and reports whether an event with the
// given probability fires.
func (i *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(i.next()>>11)/(1<<53) < rate
}

// PreStep implements cpu.ChaosAgent: per-instruction fault classes.
func (i *Injector) PreStep(m *cpu.Machine) {
	if i.roll(i.cfg.ITLBEvict) {
		if n := m.ITLB.Valid(); n > 0 {
			m.ITLB.EvictNth(int(i.next() % uint64(n)))
			i.stats.ITLBEvictions++
		}
	}
	if i.roll(i.cfg.DTLBEvict) {
		if n := m.DTLB.Valid(); n > 0 {
			m.DTLB.EvictNth(int(i.next() % uint64(n)))
			i.stats.DTLBEvictions++
		}
	}
	if i.roll(i.cfg.TLBFlush) {
		m.FlushTLBs() // may itself retain stale entries, compounding faults
		i.stats.TLBFlushes++
	}
	if i.roll(i.cfg.BitFlip) {
		// Pick a frame and bit; FlipBit refuses unallocated frames so the
		// upset always lands in memory that is actually in use.
		f := uint32(1 + i.next()%uint64(i.phys.NumFrames()-1))
		bit := uint32(i.next() % (mem.PageSize * 8))
		if i.phys.FlipBit(f, bit) {
			i.stats.BitFlips++
		}
	}
}

// DropInvlpg implements cpu.ChaosAgent: stale-entry retention on invlpg.
func (i *Injector) DropInvlpg(vpn uint32) bool {
	if i.roll(i.cfg.StaleTLB) {
		i.stale[vpn] = true
		i.stats.StaleRetained++
		return true
	}
	delete(i.stale, vpn) // the shootdown went through; the page is coherent
	return false
}

// RetainOnFlush implements cpu.ChaosAgent: stale-entry retention across a
// full TLB flush.
func (i *Injector) RetainOnFlush(vpn uint32) bool {
	if i.roll(i.cfg.StaleTLB) {
		i.stale[vpn] = true
		i.stats.StaleRetained++
		return true
	}
	return false
}

// SpuriousDebugTrap implements cpu.ChaosAgent.
func (i *Injector) SpuriousDebugTrap() bool {
	if i.roll(i.cfg.SpuriousDebug) {
		i.stats.SpuriousDebugs++
		return true
	}
	return false
}

// DoubleFault implements cpu.ChaosAgent.
func (i *Injector) DoubleFault() bool {
	if i.roll(i.cfg.DoubleFault) {
		i.stats.DoubleFaults++
		return true
	}
	return false
}

// ForcePreempt implements kernel.Preempter: context-switch storms via
// forced timeslice expiry.
func (i *Injector) ForcePreempt() bool {
	if i.roll(i.cfg.Preempt) {
		i.stats.Preempts++
		return true
	}
	return false
}

// StaleVPN reports whether an injected fault may have left a stale TLB
// entry for vpn — the invariant auditor's attribution query.
func (i *Injector) StaleVPN(vpn uint32) bool { return i.stale[vpn] }

// EncodeState serializes the injector's stream position, counters and stale
// marks, so a restored run draws the identical remaining fault sequence. The
// stale set is written in sorted vpn order: the encoding must be a pure
// function of injector state, never of Go map iteration order.
func (i *Injector) EncodeState(w *snapshot.Writer) {
	w.U64(i.state)
	w.U64(i.stats.ITLBEvictions)
	w.U64(i.stats.DTLBEvictions)
	w.U64(i.stats.TLBFlushes)
	w.U64(i.stats.StaleRetained)
	w.U64(i.stats.SpuriousDebugs)
	w.U64(i.stats.DoubleFaults)
	w.U64(i.stats.BitFlips)
	w.U64(i.stats.Preempts)
	vpns := make([]uint32, 0, len(i.stale))
	for vpn := range i.stale {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(a, b int) bool { return vpns[a] < vpns[b] })
	w.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		w.U32(vpn)
	}
}

// DecodeState restores state serialized by EncodeState.
func (i *Injector) DecodeState(r *snapshot.Reader) error {
	i.state = r.U64()
	i.stats.ITLBEvictions = r.U64()
	i.stats.DTLBEvictions = r.U64()
	i.stats.TLBFlushes = r.U64()
	i.stats.StaleRetained = r.U64()
	i.stats.SpuriousDebugs = r.U64()
	i.stats.DoubleFaults = r.U64()
	i.stats.BitFlips = r.U64()
	i.stats.Preempts = r.U64()
	clear(i.stale)
	n := r.U32()
	for j := uint32(0); j < n; j++ {
		i.stale[r.U32()] = true
	}
	return r.Err()
}

// HostConfig sets injection rates for host-level (non-architectural) fault
// classes: the failures of the machinery around the simulator rather than of
// the simulated hardware. These draw from their own splitmix64 stream so
// enabling them never perturbs the architectural fault sequence of an
// Injector sharing the same seed.
type HostConfig struct {
	Seed        uint64
	WorkerKill  float64 // per checkpoint slice: panic the worker mid-job
	JournalTear float64 // per journal append: truncate the record partway (torn write)
}

// Enabled reports whether any host fault class has a nonzero rate.
func (c HostConfig) Enabled() bool { return c.WorkerKill > 0 || c.JournalTear > 0 }

// HostDefaults returns the default host-fault rates used by the recovery
// chaos cells: frequent enough to fire several times per job, survivable
// within a default retry budget.
func HostDefaults() HostConfig {
	return HostConfig{WorkerKill: 0.2, JournalTear: 0.25}
}

// HostStats counts injected host faults by class.
type HostStats struct {
	WorkerKills  uint64
	JournalTears uint64
}

// HostInjector injects host-level faults (worker kills, journal torn
// writes). Separate from Injector on purpose: its consumers live above the
// machine (the serve supervisor and journal), and its stream must not be
// entangled with the architectural one.
type HostInjector struct {
	cfg   HostConfig
	state uint64
	stats HostStats
}

// NewHost creates a host-fault injector.
func NewHost(cfg HostConfig) *HostInjector {
	return &HostInjector{cfg: cfg, state: cfg.Seed ^ 0xD1B54A32D192ED03}
}

// Stats snapshots the per-class host fault counters.
func (h *HostInjector) Stats() HostStats { return h.stats }

func (h *HostInjector) next() uint64 {
	h.state += 0x9E3779B97F4A7C15
	z := h.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (h *HostInjector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(h.next()>>11)/(1<<53) < rate
}

// KillWorker reports whether the worker should panic now (asked once per
// checkpoint slice). A nil injector never fires.
func (h *HostInjector) KillWorker() bool {
	if h == nil || !h.roll(h.cfg.WorkerKill) {
		return false
	}
	h.stats.WorkerKills++
	return true
}

// TearJournal reports whether the journal append in progress should be torn
// (asked once per append). A nil injector never fires.
func (h *HostInjector) TearJournal() bool {
	if h == nil || !h.roll(h.cfg.JournalTear) {
		return false
	}
	h.stats.JournalTears++
	return true
}

// ClusterConfig sets injection rates for cluster-level fault classes: the
// failures of the tier above any single replica — whole-replica crashes,
// probe loss (network partition from the gateway's point of view), and
// checkpoint images corrupted in transit during live migration. Like the
// host classes these draw from a private splitmix64 stream, so a cluster
// chaos cell never perturbs the architectural or host fault sequences.
type ClusterConfig struct {
	Seed              uint64
	ReplicaKill       float64 // per opportunity (e.g. per accepted job): hard-kill a replica
	ProbeDrop         float64 // per health probe: the probe times out / is partitioned away
	CheckpointCorrupt float64 // per checkpoint transfer: flip one bit of the shipped image
}

// Enabled reports whether any cluster fault class has a nonzero rate.
func (c ClusterConfig) Enabled() bool {
	return c.ReplicaKill > 0 || c.ProbeDrop > 0 || c.CheckpointCorrupt > 0
}

// ClusterDefaults returns the default cluster-fault rates used by the
// cluster chaos cells.
func ClusterDefaults() ClusterConfig {
	return ClusterConfig{ReplicaKill: 0.02, ProbeDrop: 0.1, CheckpointCorrupt: 0.25}
}

// ClusterStats counts injected cluster faults by class.
type ClusterStats struct {
	ReplicaKills          uint64
	ProbeDrops            uint64
	CheckpointCorruptions uint64
}

// ClusterInjector injects cluster-level faults. Unlike the other injectors
// it is mutex-guarded: the gateway's prober, migrator, and request handlers
// all consult it concurrently, and the cluster test lane runs under -race.
type ClusterInjector struct {
	mu    sync.Mutex
	cfg   ClusterConfig
	state uint64
	stats ClusterStats
}

// NewCluster creates a cluster-fault injector.
func NewCluster(cfg ClusterConfig) *ClusterInjector {
	return &ClusterInjector{cfg: cfg, state: cfg.Seed ^ 0xA0761D6478BD642F}
}

// Stats snapshots the per-class cluster fault counters.
func (ci *ClusterInjector) Stats() ClusterStats {
	if ci == nil {
		return ClusterStats{}
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	return ci.stats
}

// next advances the stream. Callers hold mu.
func (ci *ClusterInjector) next() uint64 {
	ci.state += 0x9E3779B97F4A7C15
	z := ci.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll draws once. Callers hold mu.
func (ci *ClusterInjector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(ci.next()>>11)/(1<<53) < rate
}

// KillReplica reports whether a replica should be hard-killed at this
// opportunity. A nil injector never fires.
func (ci *ClusterInjector) KillReplica() bool {
	if ci == nil {
		return false
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if !ci.roll(ci.cfg.ReplicaKill) {
		return false
	}
	ci.stats.ReplicaKills++
	return true
}

// DropProbe reports whether this health probe should be swallowed —
// indistinguishable, to the prober, from a timeout or partition. A nil
// injector never fires.
func (ci *ClusterInjector) DropProbe() bool {
	if ci == nil {
		return false
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if !ci.roll(ci.cfg.ProbeDrop) {
		return false
	}
	ci.stats.ProbeDrops++
	return true
}

// Jitter is a seeded source of retry-delay jitter, shared by every
// backoff site in the tree (gateway shed-retry, worker restart backoff,
// loadtest Retry503). Synchronized retries are a fault amplifier: when one
// replica sheds, every client that hit it sleeps the same deterministic
// backoff and stampedes back in lockstep. Scale breaks the lockstep with
// "equal jitter": a base delay d maps to a uniform draw from [d/2, d), so
// the mean stays at 3d/4 while no two seeded sources agree on the phase.
// Mutex-guarded: retry loops on different goroutines share one source. A
// nil Jitter scales nothing (Scale returns d unchanged).
type Jitter struct {
	mu    sync.Mutex
	state uint64
}

// NewJitter creates a jitter source. The seed is XOR'd with a constant
// distinct from every other injector stream so a zero seed still draws a
// non-degenerate sequence.
func NewJitter(seed uint64) *Jitter {
	return &Jitter{state: seed ^ 0x6C62272E07BB0142}
}

// Scale maps a base delay to a uniform draw from [d/2, d). Non-positive
// delays and nil sources pass through unchanged.
func (j *Jitter) Scale(d time.Duration) time.Duration {
	if j == nil || d <= time.Nanosecond {
		return d
	}
	j.mu.Lock()
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	u := z ^ (z >> 31)
	j.mu.Unlock()
	half := d / 2
	return half + time.Duration(u%uint64(d-half))
}

// CorruptCheckpoint flips one stream-drawn bit of a checkpoint image in
// transit and reports whether it did. The flip position is drawn even for
// empty images (to keep the stream aligned across runs that differ only in
// checkpoint presence) but nothing is modified then. The machine image's
// trailer CRC, checked by splitmem.VerifyImage, must catch every corruption
// this injects — that is the property the cluster chaos cell pins. A nil
// injector never corrupts.
func (ci *ClusterInjector) CorruptCheckpoint(img []byte) bool {
	if ci == nil {
		return false
	}
	ci.mu.Lock()
	defer ci.mu.Unlock()
	if !ci.roll(ci.cfg.CheckpointCorrupt) {
		return false
	}
	pos := ci.next()
	if len(img) == 0 {
		return false
	}
	img[pos%uint64(len(img))] ^= 1 << (pos % 8)
	ci.stats.CheckpointCorruptions++
	return true
}
