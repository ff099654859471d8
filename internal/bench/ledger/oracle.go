package main

import (
	"context"
	"fmt"
	"time"

	"splitmem"
	"splitmem/internal/cpu"
)

// outcome is one run of a program to completion: what every job of that
// program must reproduce, plus what the per-layer metrics read from it.
type outcome struct {
	reason     string
	stats      splitmem.Stats
	hostNS     int64
	detections int
	shell      bool
	exited     bool
	status     int
	ckptBytes  []int   // checkpoint image sizes, in the order a replica writes them
	ckptNS     []int64 // Machine.Snapshot wall time of each
}

// oracle holds a program's set-up runs: split is the protection the
// workload runs, none its unprotected twin (benign programs only).
type oracle struct {
	split, none outcome
}

// jobBudget is the simulated-cycle budget of one job: the service's default,
// far above every program in the menus.
const jobBudget = 200_000_000

// runOutcome runs a freshly loaded machine to completion in slices of
// `slice` cycles, snapshotting whenever `ckpt` cycles have passed since the
// last snapshot (0 = never) — the loop a replica worker runs, so the image
// sizes match the checkpoints it writes.
func runOutcome(m *splitmem.Machine, p *splitmem.Process, slice, ckpt uint64) (outcome, error) {
	var out outcome
	var used, last uint64
	var final splitmem.RunResult
	t0 := time.Now()
	for {
		final = m.RunContext(context.Background(), min(slice, jobBudget-used))
		used += final.Cycles
		if final.Reason != splitmem.ReasonBudget || used >= jobBudget {
			break
		}
		if ckpt > 0 && used-last >= ckpt {
			s0 := time.Now()
			img, err := m.Snapshot()
			if err != nil {
				return out, fmt.Errorf("snapshot at cycle %d: %w", used, err)
			}
			out.ckptNS = append(out.ckptNS, time.Since(s0).Nanoseconds())
			out.ckptBytes = append(out.ckptBytes, len(img))
			last = used
		}
	}
	out.hostNS = time.Since(t0).Nanoseconds()
	out.reason = final.Reason.String()
	out.stats = m.Stats()
	out.detections = len(m.EventsOf(splitmem.EvInjectionDetected))
	out.shell = p.ShellSpawned()
	out.exited, out.status = p.Exited()
	return out, nil
}

// checkOutcome compares a job's result with its program's oracle.
func checkOutcome(prog program, want outcome, reason string, st splitmem.Stats, detections int, shell bool) error {
	switch {
	case reason != want.reason:
		return fmt.Errorf("%s: stopped with %q, oracle %q", prog.name, reason, want.reason)
	case st.Cycles != want.stats.Cycles || st.Instructions != want.stats.Instructions:
		return fmt.Errorf("%s: %d cycles / %d instructions, oracle %d / %d",
			prog.name, st.Cycles, st.Instructions, want.stats.Cycles, want.stats.Instructions)
	case detections != want.detections || shell != want.shell:
		return fmt.Errorf("%s: %d detections, shell %v; oracle %d, %v",
			prog.name, detections, shell, want.detections, want.shell)
	}
	return nil
}

// checkOracle holds the oracle itself to the workload's claims: benign
// programs exit 0, attacks are detected and never spawn a shell.
func checkOracle(prog program, o outcome) error {
	if o.reason != splitmem.ReasonAllDone.String() {
		return fmt.Errorf("%s: oracle stopped with %s", prog.name, o.reason)
	}
	if prog.attack {
		if o.detections < 1 || o.shell {
			return fmt.Errorf("%s: oracle run not foiled: %d detections, shell %v", prog.name, o.detections, o.shell)
		}
		return nil
	}
	if !o.exited || o.status != 0 {
		return fmt.Errorf("%s: oracle run did not exit cleanly (exited %v, status %d)", prog.name, o.exited, o.status)
	}
	return nil
}

// attribution splits the split-memory overhead — protected minus
// unprotected cycles — into the Table 3 cost-model terms. Each term is a
// counter difference times its cost; the residual is whatever the counters
// do not explain. All values are integer cycles and sum to Overhead
// exactly. The residual is signed: re-executed faulting instructions add to
// it, and on fork-heavy programs it goes negative, because the split engine
// copies a forked page's twins eagerly at no simulated cost while the
// unprotected twin pays a copy-on-write break per page.
type attribution struct {
	Overhead, PF, Debug, Walk, CtxSw, Residual int64
}

// walks counts hardware pagetable walks: every TLB miss, plus the
// supervisor touch each split TLB load performs.
func walks(s splitmem.Stats) int64 {
	return int64(s.ITLBMisses + s.DTLBMisses + s.Split.DataTLBLoads + s.Split.CodeTLBLoads)
}

func attribute(split, none splitmem.Stats) attribution {
	c := cpu.PentiumIII600()
	d := func(a, b uint64) int64 { return int64(a) - int64(b) }
	a := attribution{
		Overhead: d(split.Cycles, none.Cycles),
		PF:       d(split.PageFaults, none.PageFaults) * int64(c.Trap+c.PFBase),
		Debug:    d(split.DebugTraps, none.DebugTraps) * int64(c.DebugTrap),
		Walk:     (walks(split) - walks(none)) * int64(c.TLBWalk),
		CtxSw:    d(split.CtxSwitches, none.CtxSwitches) * int64(c.CtxSwitch),
	}
	a.Residual = a.Overhead - a.PF - a.Debug - a.Walk - a.CtxSw
	return a
}

// simMetrics are the exact, seed-independent metrics of a menu, computed
// from its oracle runs with each program weighted by its share of a block.
// Attacks count only toward detections; the rest covers benign programs.
func simMetrics(mn menu, ors []oracle) (map[string]float64, error) {
	w := mn.weights()
	var splitCyc, noneCyc, instr float64
	var sum struct {
		sbEntered, sbExits, decHits, decMiss                   float64
		itlbHits, itlbMiss, dtlbHits, dtlbMiss, iLoads, dLoads float64
		ctxsw, syscalls                                        float64
	}
	var att attribution
	var attackW, detections float64
	for i, p := range mn.progs {
		s := ors[i].split.stats
		if p.attack {
			attackW += w[i]
			detections += w[i] * float64(ors[i].split.detections)
			continue
		}
		splitCyc += w[i] * float64(s.Cycles)
		noneCyc += w[i] * float64(ors[i].none.stats.Cycles)
		instr += w[i] * float64(s.Instructions)
		sum.sbEntered += w[i] * float64(s.SuperblockEntered)
		sum.sbExits += w[i] * float64(s.SuperblockSideExits)
		sum.decHits += w[i] * float64(s.DecodeHits)
		sum.decMiss += w[i] * float64(s.DecodeMisses)
		sum.itlbHits += w[i] * float64(s.ITLBHits)
		sum.itlbMiss += w[i] * float64(s.ITLBMisses)
		sum.dtlbHits += w[i] * float64(s.DTLBHits)
		sum.dtlbMiss += w[i] * float64(s.DTLBMisses)
		sum.iLoads += w[i] * float64(s.Split.CodeTLBLoads)
		sum.dLoads += w[i] * float64(s.Split.DataTLBLoads)
		sum.ctxsw += w[i] * float64(s.CtxSwitches)
		sum.syscalls += w[i] * float64(s.Syscalls)
		// The attribution stays in integer cycles: one run of each program,
		// repeated as many times per block as the program appears.
		a := attribute(s, ors[i].none.stats)
		n := int64(w[i])
		if float64(n) != w[i] {
			return nil, fmt.Errorf("%s: benign programs need a whole number of slots per block", p.name)
		}
		att.Overhead += n * a.Overhead
		att.PF += n * a.PF
		att.Debug += n * a.Debug
		att.Walk += n * a.Walk
		att.CtxSw += n * a.CtxSw
		att.Residual += n * a.Residual
	}
	if splitCyc == 0 || instr == 0 {
		return nil, fmt.Errorf("menu has no benign program")
	}
	kilo := instr / 1000
	share := func(v int64) float64 {
		if att.Overhead <= 0 {
			return 0
		}
		return float64(v) / float64(att.Overhead)
	}
	out := map[string]float64{
		"sim_norm_perf":                noneCyc / splitCyc,
		"sim_cpi":                      splitCyc / instr,
		"cpu.sb_entered_per_kinstr":    sum.sbEntered / kilo,
		"cpu.sb_side_exit_ratio":       ratio(sum.sbExits, sum.sbEntered),
		"cpu.decode_hit_rate":          ratio(sum.decHits, sum.decHits+sum.decMiss),
		"tlb.itlb_hit_rate":            ratio(sum.itlbHits, sum.itlbHits+sum.itlbMiss),
		"tlb.dtlb_hit_rate":            ratio(sum.dtlbHits, sum.dtlbHits+sum.dtlbMiss),
		"tlb.itlb_misses_per_kinstr":   sum.itlbMiss / kilo,
		"tlb.dtlb_misses_per_kinstr":   sum.dtlbMiss / kilo,
		"core.itlb_loads_per_kinstr":   sum.iLoads / kilo,
		"core.dtlb_loads_per_kinstr":   sum.dLoads / kilo,
		"core.detections_per_attack":   ratio(detections, attackW),
		"kernel.ctxsw_per_kinstr":      sum.ctxsw / kilo,
		"kernel.syscalls_per_kinstr":   sum.syscalls / kilo,
		"kernel.pf_cycles_share":       share(att.PF),
		"core.dbg_cycles_share":        share(att.Debug),
		"paging.walk_cycles_share":     share(att.Walk),
		"kernel.ctxsw_cycles_share":    share(att.CtxSw),
		"sim.unexplained_cycles_share": share(att.Residual),
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshotMetrics averages the oracle checkpoints over the menu mix.
func snapshotMetrics(mn menu, ors []oracle) (encodeMS, bytes float64) {
	w := mn.weights()
	var n, ns, b float64
	for i := range mn.progs {
		for k, sz := range ors[i].split.ckptBytes {
			n += w[i]
			b += w[i] * float64(sz)
			ns += w[i] * float64(ors[i].split.ckptNS[k])
		}
	}
	return ratio(ns, n) / 1e6, ratio(b, n)
}
