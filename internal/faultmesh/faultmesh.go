// Package faultmesh is the serving stack's host-fault plane: one seeded,
// goroutine-safe source of every fault the machinery around the simulator
// can suffer. Guest faults (internal/chaos) attack the simulated hardware
// and are part of the snapshotted machine state; the plane attacks the
// processes, wires and disks the service runs on, and is never
// snapshotted. Its fault classes:
//
//   - process: a worker killed mid-slice (KillWorker) and a journal append
//     torn partway (TearJournal);
//   - gateway: a checkpoint image corrupted in transit during live
//     migration (CorruptCheckpoint);
//   - transport: the gateway's replica-facing http.RoundTripper with
//     latency spikes, connection resets before delivery and mid-response,
//     symmetric and asymmetric partitions, slow-loris trickling, response
//     truncation, and header and body corruption (Transport, Client);
//   - disk: ENOSPC bursts, short writes, fsync failures and read
//     corruption under the serve journal (BeforeWrite, BeforeSync, OnRead).
//
// One plane may be shared by a gateway and every replica behind it;
// Quiesce and Resume stop and restart every class at once, and Stats is
// the one report.
//
// Determinism contract: every decision is drawn from a splitmix64 stream
// seeded by Config.Seed XOR a per-class salt (transport: per link, salted
// again by the link's host). The nth decision of a class — on a given link,
// for transport — is the same for the same seed and config regardless of
// wall-clock timing or interleaving with other classes, so a failing
// chaos campaign is reproducible from its logged seed. Jitter and the
// campaign conductor draw from the same stream type.
package faultmesh

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config sets the per-class injection rates. Every rate is a probability
// in [0, 1] evaluated once per opportunity for that class, as noted. The
// zero value injects nothing.
type Config struct {
	// Seed drives every class's stream; equal seeds and configs inject
	// identical fault schedules.
	Seed uint64

	// Process faults.
	WorkerKill  float64 // per checkpoint slice: panic the worker mid-job
	JournalTear float64 // per journal append: truncate the record partway (torn write)

	// Gateway fault.
	CheckpointCorrupt float64 // per checkpoint transfer: flip one bit of the shipped image

	// Transport faults, per request on a gateway→replica link (partition
	// windows, once armed, consume requests without further draws).
	Latency    float64       // delay delivery by a draw from [LatencyMin, LatencyMax]
	LatencyMin time.Duration // default 1ms
	LatencyMax time.Duration // default 20ms

	Reset    float64 // reset the connection before delivery
	ResetMid float64 // deliver headers, then reset mid-body

	// Partition opens a partition window on the link: the next
	// PartitionLen requests (default 6) are swallowed. Asymmetric is the
	// probability that a given window is one-way: requests reach the
	// replica (and take effect there) but every response is lost — the
	// classic acknowledged-but-unconfirmed hazard.
	Partition    float64
	PartitionLen int
	Asymmetric   float64

	SlowLoris      float64       // trickle the first SlowLorisBytes of the response one byte at a time
	SlowLorisDelay time.Duration // per-byte delay, default 1ms
	SlowLorisBytes int           // default 64

	Truncate float64 // end the response body early (clean EOF mid-stream)

	CorruptHeader float64 // mangle a response header value
	Corrupt       float64 // flip one bit of the response body
	// CorruptPaths restricts body corruption to requests whose URL path
	// contains one of these substrings (empty = all paths). Campaigns that
	// assert oracle-identical outputs point this at the checkpoint-fetch
	// paths, where the snapshot CRC gate catches every flip.
	CorruptPaths []string

	// Disk faults, per opportunity (per write, per fsync, per replayed
	// record). ENOSPC is the per-write probability of a full-disk event;
	// each event fails ENOSPCBurst consecutive writes (default 4): real full
	// disks do not heal between appends, and the burst is what pushes the
	// journal past its degradation threshold.
	ENOSPC      float64
	ENOSPCBurst int
	ShortWrite  float64 // only half the bytes reach the file
	SyncFail    float64 // the fsync fails
	ReadCorrupt float64 // flip one bit of a replayed record's payload
}

func (c Config) withDefaults() Config {
	if c.LatencyMin <= 0 {
		c.LatencyMin = time.Millisecond
	}
	if c.LatencyMax < c.LatencyMin {
		c.LatencyMax = 20 * time.Millisecond
		if c.LatencyMax < c.LatencyMin {
			c.LatencyMax = c.LatencyMin
		}
	}
	if c.PartitionLen <= 0 {
		c.PartitionLen = 6
	}
	if c.SlowLorisDelay <= 0 {
		c.SlowLorisDelay = time.Millisecond
	}
	if c.SlowLorisBytes <= 0 {
		c.SlowLorisBytes = 64
	}
	if c.ENOSPCBurst <= 0 {
		c.ENOSPCBurst = 4
	}
	return c
}

// Enabled reports whether any fault class has a nonzero rate.
func (c Config) Enabled() bool {
	return c.WorkerKill > 0 || c.JournalTear > 0 || c.CheckpointCorrupt > 0 ||
		c.Latency > 0 || c.Reset > 0 || c.ResetMid > 0 || c.Partition > 0 ||
		c.SlowLoris > 0 || c.Truncate > 0 || c.CorruptHeader > 0 || c.Corrupt > 0 ||
		c.ENOSPC > 0 || c.ShortWrite > 0 || c.SyncFail > 0 || c.ReadCorrupt > 0
}

// Stats counts injected faults by class.
type Stats struct {
	Process struct {
		WorkerKills  uint64
		JournalTears uint64
	} `json:"process_faults"`
	Gateway struct {
		CheckpointCorruptions uint64
	} `json:"gateway_faults"`
	Mesh struct {
		Latencies         uint64
		Resets            uint64
		MidResets         uint64
		PartitionWindows  uint64
		PartitionDrops    uint64
		SlowLoris         uint64
		Truncations       uint64
		HeaderCorruptions uint64
		BodyCorruptions   uint64
	} `json:"mesh_faults"`
	Disk struct {
		ENOSPCs         uint64
		ShortWrites     uint64
		SyncFails       uint64
		ReadCorruptions uint64
	} `json:"disk_faults"`
}

// Stream salts: each class XORs the seed with its own constant, so a zero
// seed still draws a non-degenerate sequence and enabling one class never
// shifts another's schedule.
const (
	saltProcess   = 0xD1B54A32D192ED03
	saltGateway   = 0xA0761D6478BD642F
	saltLink      = 0x2545F4914F6CDD1D // also XOR'd with the FNV-1a hash of the link's host
	saltDisk      = 0xE7037ED1A0B428DB
	saltJitter    = 0x6C62272E07BB0142
	saltConductor = 0x853C49E6748FEA9B
)

// stream is a splitmix64 generator: the one random source behind every
// fault class, Jitter and the campaign conductor. It is not synchronized;
// its owner serializes draws.
type stream struct{ state uint64 }

func newStream(seed, salt uint64) stream { return stream{state: seed ^ salt} }

func (s *stream) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll reports whether an event with the given probability fires. A
// non-positive rate never fires and draws nothing.
func (s *stream) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(s.next()>>11)/(1<<53) < rate
}

// flipBit flips the bit of b that pos selects.
func flipBit(b []byte, pos uint64) {
	b[pos%uint64(len(b))] ^= 1 << (pos % 8)
}

// Plane is the host-fault injector. Every method is safe on a nil Plane
// (which never injects) and from any number of goroutines.
type Plane struct {
	cfg   Config
	quiet atomic.Bool

	mu        sync.Mutex // guards everything below
	process   stream
	gateway   stream
	disk      stream
	conductor stream
	burstLeft int              // writes left in the current ENOSPC burst
	links     map[string]*link // transport stream per destination host
	stats     Stats
}

// New creates a plane. A zero config injects nothing.
func New(cfg Config) *Plane {
	return &Plane{
		cfg:       cfg.withDefaults(),
		process:   newStream(cfg.Seed, saltProcess),
		gateway:   newStream(cfg.Seed, saltGateway),
		disk:      newStream(cfg.Seed, saltDisk),
		conductor: newStream(cfg.Seed, saltConductor),
		links:     map[string]*link{},
	}
}

// Quiesce stops all injection (in-flight faulted bodies finish as planned).
// Campaigns call it before checking recovery invariants: the cluster must
// heal once the hostile weather stops.
func (p *Plane) Quiesce() {
	if p != nil {
		p.quiet.Store(true)
	}
}

// Resume re-enables injection after a Quiesce. Stream positions are kept:
// the schedule continues where it left off.
func (p *Plane) Resume() {
	if p != nil {
		p.quiet.Store(false)
	}
}

// active reports whether a class with this rate may fire now. Callers
// have checked p for nil.
func (p *Plane) active(rate float64) bool {
	return rate > 0 && !p.quiet.Load()
}

// Stats snapshots the per-class injection counters.
func (p *Plane) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// add bumps one counter.
func (p *Plane) add(n *uint64) {
	p.mu.Lock()
	*n++
	p.mu.Unlock()
}

// fire draws once from s and counts a hit in n.
func (p *Plane) fire(s *stream, rate float64, n *uint64) bool {
	if !p.active(rate) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !s.roll(rate) {
		return false
	}
	*n++
	return true
}

// KillWorker reports whether the worker should panic now (asked once per
// checkpoint slice).
func (p *Plane) KillWorker() bool {
	return p != nil && p.fire(&p.process, p.cfg.WorkerKill, &p.stats.Process.WorkerKills)
}

// TearJournal reports whether the journal append in progress should be
// torn (asked once per append).
func (p *Plane) TearJournal() bool {
	return p != nil && p.fire(&p.process, p.cfg.JournalTear, &p.stats.Process.JournalTears)
}

// CorruptCheckpoint flips one stream-drawn bit of a checkpoint image in
// transit and reports whether it did. The flip position is drawn even for
// empty images (to keep the stream aligned across runs that differ only in
// checkpoint presence) but nothing is modified then. The machine image's
// trailer CRC, checked by splitmem.VerifyImage, must catch every corruption
// this injects.
func (p *Plane) CorruptCheckpoint(img []byte) bool {
	if p == nil || !p.active(p.cfg.CheckpointCorrupt) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.gateway.roll(p.cfg.CheckpointCorrupt) {
		return false
	}
	pos := p.gateway.next()
	if len(img) == 0 {
		return false
	}
	flipBit(img, pos)
	p.stats.Gateway.CheckpointCorruptions++
	return true
}

// Draw returns the next value of the conductor stream: the draws a
// harness uses to schedule the process faults it performs itself (the
// campaign's drain, kill and restart rounds). A nil plane draws zero.
func (p *Plane) Draw() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conductor.next()
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
	mu sync.Mutex
	s  stream
}

// NewJitter creates a jitter source.
func NewJitter(seed uint64) *Jitter {
	return &Jitter{s: newStream(seed, saltJitter)}
}

// Scale maps a base delay to a uniform draw from [d/2, d). Non-positive
// delays and nil sources pass through unchanged.
func (j *Jitter) Scale(d time.Duration) time.Duration {
	if j == nil || d <= time.Nanosecond {
		return d
	}
	j.mu.Lock()
	u := j.s.next()
	j.mu.Unlock()
	half := d / 2
	return half + time.Duration(u%uint64(d-half))
}
