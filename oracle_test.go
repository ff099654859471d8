package splitmem_test

// The differential-execution oracle: the machine's host-side fast path, the
// superblock threaded-code engine, must be architecturally invisible. Every
// workload, every attack form of the extended Wilander grid, and every
// real-world scenario is executed by TWO engine arms (superblocks, pure
// interpreter), and the arms must agree on EVERYTHING the architecture
// defines: the full retired-instruction stream (EIP + decoded fields, hashed
// online), simulated cycles, kernel event log bytes, exit status, and every
// statistic except the Superblock* counters themselves (the only
// host-side-only numbers in Stats).
//
// The simulator is deterministic, so any divergence is a real coherence bug
// in a fast path, never noise.

import (
	"bytes"
	"fmt"
	"testing"

	"splitmem"
	"splitmem/internal/attacks"
	"splitmem/internal/guest"
	"splitmem/internal/isa"
	"splitmem/internal/workloads"
)

// scrubHost zeroes the host-side counters — superblock engine and
// frame-store sharing — the only Stats fields allowed to differ between arms
// (a forked arm shares frames its cold-booted twin owns outright; neither
// difference is architecturally observable).
func scrubHost(s splitmem.Stats) splitmem.Stats {
	s.SuperblockCompiled, s.SuperblockEntered = 0, 0
	s.SuperblockSideExits, s.SuperblockInvalidations = 0, 0
	s.MemSharedFrames, s.MemPrivateFrames, s.MemCowCopies = 0, 0, 0
	return s
}

// engineArm names one execution-engine configuration of the oracle.
type engineArm struct {
	name string
	mut  func(*splitmem.Config)
}

// engineArms: the two arms, fastest first.
var engineArms = []engineArm{
	{"superblock", func(*splitmem.Config) {}},
	{"interp", func(c *splitmem.Config) { c.NoSuperblocks = true }},
}

// checkArmVacuity proves each arm really ran on its intended engine: the
// superblock arm must have entered compiled blocks, and the interpreter arm
// must not have.
func checkArmVacuity(t *testing.T, arm string, s splitmem.Stats) {
	t.Helper()
	switch arm {
	case "superblock":
		if s.SuperblockEntered == 0 {
			t.Error("superblock arm never entered a compiled block — oracle is vacuous")
		}
	case "interp":
		if s.SuperblockEntered != 0 {
			t.Errorf("interpreter arm entered %d superblocks — oracle is vacuous", s.SuperblockEntered)
		}
	}
}

// traceHash folds one retired instruction into an FNV-1a style running
// hash; the final value fingerprints the entire execution stream.
func traceHash(h uint64, eip uint32, in isa.Instr) uint64 {
	const prime = 1099511628211
	for _, w := range []uint64{
		uint64(eip), uint64(in.Op), uint64(in.R1), uint64(in.R2),
		uint64(in.Imm), uint64(in.Size),
	} {
		h = (h ^ w) * prime
	}
	return h
}

// workloadDigest is everything architecturally observable about one run.
type workloadDigest struct {
	trace   uint64
	retired uint64
	cycles  uint64
	reason  splitmem.StopReason
	exited  bool
	status  int
	stats   splitmem.Stats
	events  []byte
	raw     splitmem.Stats // unscrubbed; not compared, proves arm vacuity
}

func runWorkload(t *testing.T, prog workloads.Program, cfg splitmem.Config) workloadDigest {
	t.Helper()
	m, err := splitmem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := workloadDigest{trace: 14695981039346656037}
	m.CPU().TraceHook = func(eip uint32, in isa.Instr) {
		d.trace = traceHash(d.trace, eip, in)
	}
	p, err := m.LoadAsm(prog.Src, prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Input != "" {
		p.StdinWrite([]byte(prog.Input))
		p.StdinClose()
	}
	res := m.Run(40_000_000_000)
	d.reason = res.Reason
	d.exited, d.status = p.Exited()
	s := m.Stats()
	d.raw = s
	d.stats = scrubHost(s)
	d.retired = s.Instructions
	d.cycles = s.Cycles
	d.events, err = m.EventsJSONL()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func compareDigests(t *testing.T, name string, fast, slow workloadDigest) {
	t.Helper()
	if fast.trace != slow.trace || fast.retired != slow.retired {
		t.Errorf("%s: retired streams diverge: fast %d instrs (hash %#x), slow %d (hash %#x)",
			name, fast.retired, fast.trace, slow.retired, slow.trace)
	}
	if fast.cycles != slow.cycles {
		t.Errorf("%s: simulated cycles diverge: %d vs %d", name, fast.cycles, slow.cycles)
	}
	if fast.reason != slow.reason || fast.exited != slow.exited || fast.status != slow.status {
		t.Errorf("%s: outcomes diverge: fast(%v,%v,%d) slow(%v,%v,%d)",
			name, fast.reason, fast.exited, fast.status, slow.reason, slow.exited, slow.status)
	}
	if fast.stats != slow.stats {
		t.Errorf("%s: stats diverge:\nfast %+v\nslow %+v", name, fast.stats, slow.stats)
	}
	if !bytes.Equal(fast.events, slow.events) {
		t.Errorf("%s: event logs diverge:\nfast:\n%s\nslow:\n%s", name, fast.events, slow.events)
	}
}

// TestOracleWorkloads: every cataloged workload under every protection
// policy, on both engine arms.
func TestOracleWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	prots := []splitmem.Protection{
		splitmem.ProtNone, splitmem.ProtNX, splitmem.ProtSplit, splitmem.ProtSplitNX,
	}
	for _, prog := range workloads.Catalog() {
		for _, prot := range prots {
			prog, prot := prog, prot
			t.Run(fmt.Sprintf("%s/%v", prog.Name, prot), func(t *testing.T) {
				digests := make([]workloadDigest, len(engineArms))
				for i, arm := range engineArms {
					cfg := splitmem.Config{Protection: prot}
					arm.mut(&cfg)
					digests[i] = runWorkload(t, prog, cfg)
					checkArmVacuity(t, arm.name, digests[i].raw)
				}
				for i := 1; i < len(engineArms); i++ {
					pair := engineArms[i-1].name + "-vs-" + engineArms[i].name
					compareDigests(t, prog.Name+"/"+pair, digests[i-1], digests[i])
				}
			})
		}
	}
}

// pseudoCycle derives a deterministic pseudo-random snapshot point in
// [1, span] from a name, so "snapshot at a random cycle" is reproducible.
func pseudoCycle(name string, span uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	if span == 0 {
		return 1
	}
	return 1 + h%span
}

// runWorkloadResumed is runWorkload interrupted by a checkpoint: the machine
// runs for roughly snapAt cycles, is serialized with Snapshot, discarded,
// rebuilt with Restore, and resumed to completion. Along the way it also
// proves the image is a fixed point: snapshotting the restored machine must
// reproduce the original image byte for byte.
func runWorkloadResumed(t *testing.T, prog workloads.Program, cfg splitmem.Config, snapAt uint64) workloadDigest {
	t.Helper()
	m, err := splitmem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := workloadDigest{trace: 14695981039346656037}
	hook := func(eip uint32, in isa.Instr) {
		d.trace = traceHash(d.trace, eip, in)
	}
	m.CPU().TraceHook = hook
	p, err := m.LoadAsm(prog.Src, prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.PID
	if prog.Input != "" {
		p.StdinWrite([]byte(prog.Input))
		p.StdinClose()
	}
	res := m.Run(snapAt)
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := splitmem.Restore(img)
	if err != nil {
		t.Fatalf("restore at cycle %d: %v", snapAt, err)
	}
	img2, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, img2) {
		t.Errorf("%s: snapshot of the restored machine differs from the original image (%d vs %d bytes)",
			prog.Name, len(img2), len(img))
	}
	m = m2
	m.CPU().TraceHook = hook
	if res.Reason == splitmem.ReasonBudget || res.Reason == splitmem.ReasonWaitingInput {
		res = m.Run(40_000_000_000)
	}
	p2, ok := m.Kernel().Process(pid)
	if !ok {
		t.Fatalf("%s: pid %d lost across restore", prog.Name, pid)
	}
	d.reason = res.Reason
	d.exited, d.status = p2.Exited()
	s := m.Stats()
	d.stats = scrubHost(s)
	d.retired = s.Instructions
	d.cycles = s.Cycles
	d.events, err = m.EventsJSONL()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runWorkloadForked is runWorkload interrupted by a fork: the machine runs
// for roughly forkAt cycles and Fork()s, and then BOTH machines — parent and
// child, sharing every physical frame copy-on-write from that instant — run
// to completion independently. The helper proves, in order:
//
//  1. the child is bit-identical to the parent at the fork point (their
//     Snapshot images are byte-equal), and taking the fork did not perturb
//     the parent (its snapshot before and after the fork is byte-equal);
//  2. parent and child retire identical instruction streams, cycles, stats
//     and event-log bytes despite hammering the same shared frames;
//
// and returns the child's digest so callers can hold it against an
// uninterrupted cold-booted run — forked == cold-booted, the warm-pool
// determinism gate.
func runWorkloadForked(t *testing.T, prog workloads.Program, cfg splitmem.Config, forkAt uint64) workloadDigest {
	t.Helper()
	m, err := splitmem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := workloadDigest{trace: 14695981039346656037}
	m.CPU().TraceHook = func(eip uint32, in isa.Instr) {
		prefix.trace = traceHash(prefix.trace, eip, in)
	}
	p, err := m.LoadAsm(prog.Src, prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	pid := p.PID
	if prog.Input != "" {
		p.StdinWrite([]byte(prog.Input))
		p.StdinClose()
	}
	res := m.Run(forkAt)

	before, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	child, err := m.Fork()
	if err != nil {
		t.Fatalf("fork at cycle %d: %v", forkAt, err)
	}
	after, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("%s: taking a fork perturbed the parent (snapshot %d vs %d bytes)",
			prog.Name, len(before), len(after))
	}
	childSnap, err := child.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, childSnap) {
		t.Errorf("%s: forked machine is not bit-identical to its parent at the fork point (%d vs %d bytes)",
			prog.Name, len(childSnap), len(before))
	}

	finish := func(fm *splitmem.Machine, r splitmem.RunResult) workloadDigest {
		d := prefix // copy: both runs extend the same retired-stream prefix
		fm.CPU().TraceHook = func(eip uint32, in isa.Instr) {
			d.trace = traceHash(d.trace, eip, in)
		}
		if r.Reason == splitmem.ReasonBudget || r.Reason == splitmem.ReasonWaitingInput {
			r = fm.Run(40_000_000_000)
		}
		fp, ok := fm.Kernel().Process(pid)
		if !ok {
			t.Fatalf("%s: pid %d lost across fork", prog.Name, pid)
		}
		d.reason = r.Reason
		d.exited, d.status = fp.Exited()
		s := fm.Stats()
		d.raw = s
		d.stats = scrubHost(s)
		d.retired = s.Instructions
		d.cycles = s.Cycles
		d.events, err = fm.EventsJSONL()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	childD := finish(child, res)
	parentD := finish(m, res)
	compareDigests(t, prog.Name+"/parent-vs-child", parentD, childD)
	child.Close()
	m.Close()
	return childD
}

// TestOracleForkWorkloads: every workload under every protection policy,
// cold-booted vs forked-at-a-pseudo-random-cycle. The forked machine (and
// its parent, running on after the fork over the same shared frames) must
// retire the identical instruction stream and end with identical cycles,
// stats and event-log bytes — the fork is architecturally invisible.
func TestOracleForkWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	prots := []splitmem.Protection{
		splitmem.ProtNone, splitmem.ProtNX, splitmem.ProtSplit, splitmem.ProtSplitNX,
	}
	for _, prog := range workloads.Catalog() {
		for _, prot := range prots {
			prog, prot := prog, prot
			t.Run(fmt.Sprintf("%s/%v", prog.Name, prot), func(t *testing.T) {
				cfg := splitmem.Config{Protection: prot, RandomizeStack: true, Seed: 7}
				base := runWorkload(t, prog, cfg)
				forkAt := pseudoCycle("fork"+prog.Name+prot.String(), base.cycles)
				forked := runWorkloadForked(t, prog, cfg, forkAt)
				compareDigests(t, fmt.Sprintf("%s@fork%d", prog.Name, forkAt), base, forked)
			})
		}
	}
}

// TestOracleForkWilander: all 32 attack forms of the extended Wilander grid,
// forked mid-attack vs uninterrupted, under both split deployments.
// Detection must land on the same cycle with byte-identical events whether
// the attacked machine was cold-booted or forked from a warm parent.
func TestOracleForkWilander(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	for _, prot := range []splitmem.Protection{splitmem.ProtSplit, splitmem.ProtSplitNX} {
		prot := prot
		t.Run(prot.String(), func(t *testing.T) {
			for _, tech := range attacks.AllTechniques() {
				for _, seg := range attacks.Segments() {
					src, stdin, err := attacks.OneShot(tech, seg)
					if err != nil {
						continue // form not applicable
					}
					name := fmt.Sprintf("%v/%v", tech, seg)
					t.Run(name, func(t *testing.T) {
						prog := workloads.Program{Name: "wilander", Src: guest.WithCRT(src), Input: string(stdin)}
						cfg := splitmem.Config{Protection: prot}
						base := runWorkload(t, prog, cfg)
						forkAt := pseudoCycle("fork"+name+prot.String(), base.cycles)
						forked := runWorkloadForked(t, prog, cfg, forkAt)
						compareDigests(t, name, base, forked)
					})
				}
			}
		})
	}
}

// TestOracleSnapshotWorkloads: every workload under every protection policy,
// uninterrupted vs snapshot-at-a-pseudo-random-cycle + restore. The resumed
// run must retire the identical instruction stream and end with identical
// cycles, stats and event-log bytes — the checkpoint is architecturally
// invisible.
func TestOracleSnapshotWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	prots := []splitmem.Protection{
		splitmem.ProtNone, splitmem.ProtNX, splitmem.ProtSplit, splitmem.ProtSplitNX,
	}
	for _, prog := range workloads.Catalog() {
		for _, prot := range prots {
			prog, prot := prog, prot
			t.Run(fmt.Sprintf("%s/%v", prog.Name, prot), func(t *testing.T) {
				cfg := splitmem.Config{Protection: prot, RandomizeStack: true, Seed: 7}
				base := runWorkload(t, prog, cfg)
				snapAt := pseudoCycle(prog.Name+prot.String(), base.cycles)
				resumed := runWorkloadResumed(t, prog, cfg, snapAt)
				compareDigests(t, fmt.Sprintf("%s@%d", prog.Name, snapAt), base, resumed)
			})
		}
	}
}

// TestOracleSnapshotWilander: all 32 attack forms of the extended Wilander
// grid as one-shot programs, snapshot mid-attack + restore vs uninterrupted,
// under both split deployments. Detection must land on the same cycle with
// byte-identical events either way.
func TestOracleSnapshotWilander(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	for _, prot := range []splitmem.Protection{splitmem.ProtSplit, splitmem.ProtSplitNX} {
		prot := prot
		t.Run(prot.String(), func(t *testing.T) {
			for _, tech := range attacks.AllTechniques() {
				for _, seg := range attacks.Segments() {
					src, stdin, err := attacks.OneShot(tech, seg)
					if err != nil {
						continue // form not applicable
					}
					name := fmt.Sprintf("%v/%v", tech, seg)
					t.Run(name, func(t *testing.T) {
						prog := workloads.Program{Name: "wilander", Src: guest.WithCRT(src), Input: string(stdin)}
						cfg := splitmem.Config{Protection: prot}
						base := runWorkload(t, prog, cfg)
						snapAt := pseudoCycle(name+prot.String(), base.cycles)
						resumed := runWorkloadResumed(t, prog, cfg, snapAt)
						compareDigests(t, name, base, resumed)
					})
				}
			}
		})
	}
}

// compareAttack checks the full-fidelity record of two attack runs.
func compareAttack(t *testing.T, name string, fast, slow attacks.Result) {
	t.Helper()
	if fast.ShellSpawned != slow.ShellSpawned || fast.Detected != slow.Detected ||
		fast.Killed != slow.Killed || fast.Signal != slow.Signal ||
		fast.Exited != slow.Exited || fast.Status != slow.Status ||
		fast.FaultAddr != slow.FaultAddr {
		t.Errorf("%s: outcomes diverge:\nfast %+v\nslow %+v", name, fast, slow)
	}
	if scrubHost(fast.Stats) != scrubHost(slow.Stats) {
		t.Errorf("%s: stats diverge:\nfast %+v\nslow %+v",
			name, scrubHost(fast.Stats), scrubHost(slow.Stats))
	}
	if !bytes.Equal(fast.EventsJSONL, slow.EventsJSONL) {
		t.Errorf("%s: event logs diverge:\nfast:\n%s\nslow:\n%s",
			name, fast.EventsJSONL, slow.EventsJSONL)
	}
	if fast.Output != slow.Output {
		t.Errorf("%s: outputs diverge: %q vs %q", name, fast.Output, slow.Output)
	}
}

// TestOracleWilanderGrid: all techniques x all injection segments (the
// paper's Table 1 benchmark, extended), both engine arms, under both
// split deployments. The detection event — kind, EIP, dumped shellcode
// bytes — must be byte-for-byte identical: detection happens at the unique
// fetch of the first injected instruction, and no fast path may move it.
func TestOracleWilanderGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	for _, prot := range []splitmem.Protection{splitmem.ProtSplit, splitmem.ProtSplitNX} {
		prot := prot
		t.Run(prot.String(), func(t *testing.T) {
			grids := make([][]attacks.CellResult, len(engineArms))
			for i, arm := range engineArms {
				cfg := splitmem.Config{Protection: prot}
				arm.mut(&cfg)
				cells, err := attacks.RunExtendedWilander(cfg)
				if err != nil {
					t.Fatal(err)
				}
				grids[i] = cells
				// Vacuity over the aggregate grid: individual one-shot forms
				// may retire too few instructions to cross the hotness
				// threshold, but the grid as a whole must exercise each arm's
				// intended engine.
				var agg splitmem.Stats
				for _, c := range cells {
					if !c.NA {
						agg.SuperblockEntered += c.Result.Stats.SuperblockEntered
					}
				}
				checkArmVacuity(t, arm.name, agg)
			}
			for ai := 1; ai < len(engineArms); ai++ {
				a, b := grids[ai-1], grids[ai]
				pair := engineArms[ai-1].name + "-vs-" + engineArms[ai].name
				if len(a) != len(b) {
					t.Fatalf("%s: cell counts diverge: %d vs %d", pair, len(a), len(b))
				}
				for i := range a {
					f, s := a[i], b[i]
					if f.Tech != s.Tech || f.Seg != s.Seg || f.NA != s.NA {
						t.Fatalf("%s: grid order diverged at %d", pair, i)
					}
					if f.NA {
						continue
					}
					name := fmt.Sprintf("%s/%v/%v", pair, f.Tech, f.Seg)
					compareAttack(t, name, f.Result, s.Result)
				}
			}
		})
	}
}

// TestOracleScenarios: the real-world exploit scenarios (Table 2), both
// engine arms, across the response modes.
func TestOracleScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("oracle sweep is broad")
	}
	responses := []splitmem.ResponseMode{splitmem.Break, splitmem.Observe, splitmem.Forensics}
	for _, sc := range attacks.Scenarios() {
		for _, resp := range responses {
			sc, resp := sc, resp
			t.Run(fmt.Sprintf("%s/%v", sc.Key, resp), func(t *testing.T) {
				results := make([]attacks.Result, len(engineArms))
				for i, arm := range engineArms {
					cfg := splitmem.Config{Protection: splitmem.ProtSplit, Response: resp}
					if resp == splitmem.Forensics {
						cfg.ForensicShellcode = splitmem.ExitShellcode()
					}
					arm.mut(&cfg)
					r, err := attacks.RunScenario(sc.Key, cfg)
					if err != nil {
						t.Fatal(err)
					}
					results[i] = r
					checkArmVacuity(t, arm.name, r.Stats)
				}
				for i := 1; i < len(engineArms); i++ {
					pair := engineArms[i-1].name + "-vs-" + engineArms[i].name
					compareAttack(t, sc.Key+"/"+pair, results[i-1], results[i])
				}
			})
		}
	}
}
