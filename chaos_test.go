package splitmem_test

// The chaos matrix: every fault class the chaos engine can inject, one at a
// time at its default rate, against a real exploit scenario under both split
// deployments and the three main response modes, with the paranoid auditor
// watching. The claims under test:
//
//   - the host never panics and every run stops for an orderly reason;
//   - the paranoid auditor finds zero unexplained invariant violations —
//     injected TLB incoherence is healed and attributed, engine state stays
//     consistent through evictions, flushes, double faults, bit flips and
//     context-switch storms;
//   - the exploit still never succeeds under split protection (observe mode
//     excepted: it deliberately lets attacks through, though chaos may stop
//     them earlier);
//   - the host fast path, the superblock engine, stays architecturally
//     invisible even while chaos rewrites frames, flushes TLBs and
//     double-delivers faults: every cell runs on both engine arms and they
//     must produce identical event logs and statistics.

import (
	"fmt"
	"testing"

	"splitmem"
	"splitmem/internal/attacks"
	"splitmem/internal/workloads"
)

// faultClasses enables one chaos fault class at a time, at default rate.
func faultClasses() map[string]splitmem.ChaosConfig {
	def := splitmem.ChaosDefaults()
	return map[string]splitmem.ChaosConfig{
		"itlb-evict":     {ITLBEvict: def.ITLBEvict},
		"dtlb-evict":     {DTLBEvict: def.DTLBEvict},
		"tlb-flush":      {TLBFlush: def.TLBFlush},
		"stale-tlb":      {StaleTLB: def.StaleTLB},
		"spurious-debug": {SpuriousDebug: def.SpuriousDebug},
		"double-fault":   {DoubleFault: def.DoubleFault},
		"bit-flip":       {BitFlip: def.BitFlip},
		"preempt":        {Preempt: def.Preempt},
	}
}

func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is broad")
	}
	prots := []splitmem.Protection{splitmem.ProtSplit, splitmem.ProtSplitNX}
	responses := []splitmem.ResponseMode{splitmem.Break, splitmem.Observe, splitmem.Forensics}
	for class, chaosCfg := range faultClasses() {
		for _, prot := range prots {
			for _, resp := range responses {
				name := fmt.Sprintf("%s/%v/%v", class, prot, resp)
				t.Run(name, func(t *testing.T) {
					cfg := splitmem.Config{
						Protection: prot,
						Response:   resp,
						Paranoid:   true,
						Chaos:      chaosCfg,
					}
					cfg.Chaos.Seed = 0xC4A05 // deterministic across the matrix
					if resp == splitmem.Forensics {
						cfg.ForensicShellcode = splitmem.ExitShellcode()
					}
					r, err := attacks.RunScenario("miniwuftp", cfg)
					if err != nil {
						t.Fatal(err)
					}
					if r.InvariantViolations != 0 {
						t.Fatalf("%d invariant violations under %s chaos:\n%s",
							r.InvariantViolations, class, r.EventsJSONL)
					}
					if resp != splitmem.Observe && r.Succeeded() {
						t.Fatalf("exploit succeeded under %v despite split protection: %+v", resp, r)
					}
					// Differential arm: the same cell on the pure interpreter
					// must be indistinguishable (the default run above is the
					// superblock arm).
					interp := engineArms[1]
					armCfg := cfg
					interp.mut(&armCfg)
					next, err := attacks.RunScenario("miniwuftp", armCfg)
					if err != nil {
						t.Fatal(err)
					}
					compareAttack(t, name+"/superblock-vs-"+interp.name, r, next)
				})
			}
		}
	}
}

// TestChaosSnapshotMatrix: checkpoint/restore in the middle of a chaotic
// run, one fault class at a time. The injector's PRNG stream, its stale-vpn
// table and every already-injected fault (evicted entries, retained stale
// translations, flipped bits) ride in the image, so the resumed run must
// draw the identical fault sequence and end indistinguishable from the
// uninterrupted one.
func TestChaosSnapshotMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is broad")
	}
	prog, ok := workloads.Lookup("gzip")
	if !ok {
		t.Fatal("gzip workload missing from catalog")
	}
	for class, chaosCfg := range faultClasses() {
		class, chaosCfg := class, chaosCfg
		t.Run(class, func(t *testing.T) {
			cfg := splitmem.Config{
				Protection: splitmem.ProtSplit,
				Paranoid:   true,
				Chaos:      chaosCfg,
			}
			cfg.Chaos.Seed = 0xC4A05
			base := runWorkload(t, prog, cfg)
			snapAt := pseudoCycle(class, base.cycles)
			resumed := runWorkloadResumed(t, prog, cfg, snapAt)
			compareDigests(t, class, base, resumed)
		})
	}
}

// TestChaosForkMatrix: fork in the middle of a chaotic run, one fault class
// at a time. The forked machine inherits the injector's PRNG stream and every
// already-injected fault through the shared copy-on-write frames (flipped
// bits included), so parent and child must draw identical fault sequences
// independently and both must end indistinguishable from the uninterrupted
// cold-booted run.
func TestChaosForkMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is broad")
	}
	prog, ok := workloads.Lookup("gzip")
	if !ok {
		t.Fatal("gzip workload missing from catalog")
	}
	for class, chaosCfg := range faultClasses() {
		class, chaosCfg := class, chaosCfg
		t.Run(class, func(t *testing.T) {
			cfg := splitmem.Config{
				Protection: splitmem.ProtSplit,
				Paranoid:   true,
				Chaos:      chaosCfg,
			}
			cfg.Chaos.Seed = 0xC4A05
			base := runWorkload(t, prog, cfg)
			forkAt := pseudoCycle("fork"+class, base.cycles)
			forked := runWorkloadForked(t, prog, cfg, forkAt)
			compareDigests(t, class, base, forked)
		})
	}
}

// TestChaosStatsAccounting runs a long scenario with every class enabled and
// checks the injector actually fired and that its activity is visible in the
// aggregated Stats.
func TestChaosStatsAccounting(t *testing.T) {
	r, err := attacks.RunScenario("miniwuftp", splitmem.Config{
		Protection: splitmem.ProtSplit,
		Response:   splitmem.Break,
		Paranoid:   true,
		Chaos:      splitmem.ChaosDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Stats.Chaos
	total := c.ITLBEvictions + c.DTLBEvictions + c.TLBFlushes + c.StaleRetained +
		c.SpuriousDebugs + c.DoubleFaults + c.Preempts
	if total == 0 {
		t.Fatalf("chaos injector never fired: %+v", c)
	}
	if r.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations with all chaos classes on", r.InvariantViolations)
	}
	if r.Succeeded() {
		t.Fatalf("exploit succeeded under split protection: %+v", r)
	}
}
