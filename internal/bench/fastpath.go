package bench

import (
	"fmt"
	"time"

	"splitmem"
	"splitmem/internal/workloads"
)

// fastPathWorkloads are the cataloged programs the ablation measures: the
// compute-bound kernels where fetch/decode dominates, plus a syscall-heavy
// program where it does not.
var fastPathWorkloads = []string{"nbench", "gzip", "syscall"}

// fastPathEngines are the two execution engines, slowest first: the pure
// interpreter and the superblock threaded-code engine.
var fastPathEngines = []string{"interp", "superblock"}

// fastPathReps is how many times each configuration runs; the minimum host
// time is reported, which is the standard way to strip scheduler noise from
// a throughput measurement.
const fastPathReps = 3

// FastPathRun is one measured configuration of the ablation.
type FastPathRun struct {
	Workload     string
	Engine       string  // "interp" or "superblock"
	Cycles       uint64  // simulated cycles (must not depend on Engine)
	Instructions uint64  // retired instructions (must not depend on Engine)
	Work         float64 // workload work units
	HostNS       int64   // best-of-reps host nanoseconds
	SBEntered    uint64  // superblock entries (superblock engine only)
}

// SimThroughput is the deterministic figure of merit: work per simulated
// megacycle. It is independent of the host machine AND of the engine (the
// superblock engine is architecturally invisible), so it is the value the
// CI regression guard pins.
func (r FastPathRun) SimThroughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return r.Work / (float64(r.Cycles) / 1e6)
}

// HostMIPS is retired guest instructions per host second, in millions.
func (r FastPathRun) HostMIPS() float64 {
	if r.HostNS == 0 {
		return 0
	}
	return float64(r.Instructions) * 1e3 / float64(r.HostNS)
}

// engineConfig maps an engine onto the public config switches.
func engineConfig(engine string, cfg *splitmem.Config) error {
	switch engine {
	case "interp":
		cfg.NoSuperblocks = true
	case "superblock":
	default:
		return fmt.Errorf("fastpath: unknown engine %q", engine)
	}
	return nil
}

// measureFastPath runs one workload on one engine fastPathReps times
// and keeps the fastest host time.
func measureFastPath(name, engine string) (FastPathRun, error) {
	prog, ok := workloads.Lookup(name)
	if !ok {
		return FastPathRun{}, fmt.Errorf("fastpath: unknown workload %q", name)
	}
	run := FastPathRun{Workload: name, Engine: engine}
	for rep := 0; rep < fastPathReps; rep++ {
		cfg := splitmem.Config{Protection: splitmem.ProtSplit}
		if err := engineConfig(engine, &cfg); err != nil {
			return run, err
		}
		m, err := splitmem.New(cfg)
		if err != nil {
			return run, err
		}
		p, err := m.LoadAsm(prog.Src, "fp-"+name)
		if err != nil {
			return run, err
		}
		if prog.Input != "" {
			p.StdinWrite([]byte(prog.Input))
			p.StdinClose()
		}
		t0 := time.Now()
		res := m.Run(40_000_000_000)
		host := time.Since(t0).Nanoseconds()
		if res.Reason != splitmem.ReasonAllDone {
			return run, fmt.Errorf("fastpath %s/%s: stopped: %v", name, engine, res.Reason)
		}
		s := m.Stats()
		if rep == 0 {
			run.Cycles, run.Instructions, run.Work = s.Cycles, s.Instructions, prog.Work
			run.SBEntered = s.SuperblockEntered
			run.HostNS = host
		} else {
			if s.Cycles != run.Cycles || s.Instructions != run.Instructions {
				return run, fmt.Errorf("fastpath %s/%s: nondeterministic run (cycles %d vs %d)",
					name, engine, s.Cycles, run.Cycles)
			}
			if host < run.HostNS {
				run.HostNS = host
			}
		}
	}
	return run, nil
}

// FastPath measures the engine ablation: every workload runs under the
// split engine on both engines — interpreter and superblock engine. The
// simulated side (cycles, instructions) must be bit-identical across the
// pair — that invariant is enforced here, not just documented — while the
// host side reports the speedup the superblock engine buys.
func FastPath() (*Table, []FastPathRun, error) {
	t := &Table{
		Title:  "Fast path: engine ablation (split engine)",
		Header: []string{"workload", "Mcycles", "work/Mcycle", "interp MIPS", "superblock MIPS", "sb/interp"},
		Notes: []string{
			"simulated cycles and retired instructions are bit-identical across both engines (enforced)",
			"MIPS = retired guest instructions per host second / 1e6; best of " +
				fmt.Sprint(fastPathReps) + " runs",
		},
	}
	var runs []FastPathRun
	for _, name := range fastPathWorkloads {
		var pair [2]FastPathRun
		for i, engine := range fastPathEngines {
			r, err := measureFastPath(name, engine)
			if err != nil {
				return nil, nil, err
			}
			if i > 0 && (r.Cycles != pair[0].Cycles || r.Instructions != pair[0].Instructions) {
				return nil, nil, fmt.Errorf(
					"fastpath %s: engine %s changed the architecture: cycles %d vs %d, instrs %d vs %d",
					name, engine, r.Cycles, pair[0].Cycles, r.Instructions, pair[0].Instructions)
			}
			pair[i] = r
		}
		interp, sb := pair[0], pair[1]
		if sb.SBEntered == 0 {
			return nil, nil, fmt.Errorf("fastpath %s: superblock engine never entered a block", name)
		}
		runs = append(runs, pair[:]...)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.1f", float64(sb.Cycles)/1e6),
			fmt.Sprintf("%.2f", sb.SimThroughput()),
			fmt.Sprintf("%.1f", interp.HostMIPS()),
			fmt.Sprintf("%.1f", sb.HostMIPS()),
			fmt.Sprintf("%.2fx", sb.HostMIPS()/interp.HostMIPS()),
		})
	}
	return t, runs, nil
}

// FastPathSimFigure renders the deterministic side of the ablation —
// simulated work per megacycle, per workload — as the figure the CI perf
// guard pins against the committed BENCH_results.json: the values are
// host-independent, so any drift is a real simulator regression, never
// noise. The host speedup is the second, same-host-relative series.
func FastPathSimFigure(runs []FastPathRun) *Figure {
	sim := Series{Name: "sim work/Mcycle"}
	sbVsInterp := Series{Name: "host speedup (superblock/interp)"}
	byEngine := map[string]map[string]FastPathRun{}
	for _, r := range runs {
		if byEngine[r.Engine] == nil {
			byEngine[r.Engine] = map[string]FastPathRun{}
		}
		byEngine[r.Engine][r.Workload] = r
	}
	for _, name := range fastPathWorkloads {
		sb, ok := byEngine["superblock"][name]
		if !ok {
			continue
		}
		sim.Labels = append(sim.Labels, name)
		sim.Values = append(sim.Values, sb.SimThroughput())
		if interp, ok := byEngine["interp"][name]; ok && interp.HostMIPS() > 0 {
			sbVsInterp.Labels = append(sbVsInterp.Labels, name)
			sbVsInterp.Values = append(sbVsInterp.Values, sb.HostMIPS()/interp.HostMIPS())
		}
	}
	return &Figure{
		Title:  "Fast path: deterministic throughput + host speedups",
		YLabel: "work/Mcycle; speedup ratio",
		Series: []Series{sim, sbVsInterp},
		Notes: []string{
			"the sim series is deterministic and guarded by TestFastPathNoRegression (>10% drop fails CI)",
		},
	}
}
