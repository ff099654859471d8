// Package fleet runs a fleet of independent S86 machines concurrently.
//
// Each simulated machine is strictly single-threaded (the simulator's
// contract), so the fleet parallelizes ACROSS machines, never within one: a
// worker pool pops machine indices, builds a fresh machine per index from a
// shared configuration template with a deterministically derived per-machine
// seed, runs the job to completion, and folds the machine's telemetry into
// one aggregate hub through the registry's lock-protected merge path.
//
// Determinism: machine i of an N-machine fleet produces bit-identical
// results regardless of worker count, scheduling order, or whether any
// other machine runs at all — the only cross-machine communication is the
// commutative fold of finished results. The fleet tests pin this down
// under -race.
package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"splitmem"
	"splitmem/internal/attacks"
	"splitmem/internal/telemetry"
	"splitmem/internal/workloads"
)

// Job runs one machine of the fleet. It receives the machine's index and
// the per-machine configuration (template + derived seed) and returns what
// the machine produced. Jobs must be self-contained: no shared mutable
// state, all randomness from cfg.Seed.
type Job func(id int, cfg splitmem.Config) (Result, error)

// Result is one machine's outcome.
type Result struct {
	Run   splitmem.RunResult // why the machine's Run returned
	Stats splitmem.Stats     // final counters
	Work  float64            // work units completed (workload jobs)
	Hub   *telemetry.Hub     // the machine's telemetry, nil when disabled
	Note  string             // human-readable job summary
}

// MachineResult pairs a Result with its fleet bookkeeping.
type MachineResult struct {
	ID   int
	Seed int64 // the derived splitmem.Config.Seed
	Result
	Err  error
	Host time.Duration // host wall time this machine took
}

// Totals sums the fleet-relevant counters across machines.
type Totals struct {
	Cycles       uint64
	Instructions uint64
	PageFaults   uint64
	CtxSwitches  uint64
	Syscalls     uint64
	Detections   uint64
	Work         float64
}

// Aggregate is the merged report of a fleet run.
type Aggregate struct {
	Machines []MachineResult // indexed by machine ID
	Totals   Totals
	Reasons  map[splitmem.StopReason]int // stop-reason histogram
	Errors   int                         // machines whose job returned an error
	Hub      *telemetry.Hub              // merged metrics, nil unless template telemetry
	Wall     time.Duration               // host wall time for the whole fleet
}

// Config describes a fleet run.
type Config struct {
	N       int             // number of machines (required, > 0)
	Workers int             // concurrent workers; default min(N, 4)
	Seed    uint64          // master seed; per-machine seeds are derived from it
	Machine splitmem.Config // template; Seed is overwritten per machine
	Job     Job             // required
}

// DeriveSeed maps (master, machine id) to the machine's seed with a
// splitmix64 finalizer: well-distributed, deterministic, and independent of
// every other machine's seed.
func DeriveSeed(master uint64, id int) int64 {
	x := master + (uint64(id)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Run executes the fleet and returns the aggregate. A job error fails only
// its machine (recorded in Machines[i].Err and Errors), never the fleet;
// the only error Run itself returns is a bad Config.
func Run(cfg Config) (*Aggregate, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("fleet: N must be positive, got %d", cfg.N)
	}
	if cfg.Job == nil {
		return nil, fmt.Errorf("fleet: no Job configured")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 4
	}
	if workers > cfg.N {
		workers = cfg.N
	}

	agg := &Aggregate{
		Machines: make([]MachineResult, cfg.N),
		Reasons:  map[splitmem.StopReason]int{},
	}
	if cfg.Machine.Telemetry {
		agg.Hub = telemetry.NewHub(telemetry.Options{SpanCap: 1})
	}

	start := time.Now()
	// The batch run is a persistent Pool used once: a backlog of N admits
	// the whole fleet up front, and Close drains it.
	pool, err := NewPool(workers, cfg.N)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for id := 0; id < cfg.N; id++ {
		id := id
		wg.Add(1)
		pool.TrySubmit(func(context.Context) {
			defer wg.Done()
			mcfg := cfg.Machine
			mcfg.Seed = DeriveSeed(cfg.Seed, id)
			t0 := time.Now()
			res, err := cfg.Job(id, mcfg)
			// Each worker writes only its own index; the merge below is
			// the single lock-protected cross-machine operation.
			agg.Machines[id] = MachineResult{
				ID: id, Seed: mcfg.Seed, Result: res, Err: err,
				Host: time.Since(t0),
			}
			agg.Hub.Merge(res.Hub)
		})
	}
	wg.Wait()
	pool.Close()
	agg.Wall = time.Since(start)

	for i := range agg.Machines {
		mr := &agg.Machines[i]
		if mr.Err != nil {
			agg.Errors++
			continue
		}
		agg.Reasons[mr.Run.Reason]++
		s := mr.Stats
		agg.Totals.Cycles += s.Cycles
		agg.Totals.Instructions += s.Instructions
		agg.Totals.PageFaults += s.PageFaults
		agg.Totals.CtxSwitches += s.CtxSwitches
		agg.Totals.Syscalls += s.Syscalls
		agg.Totals.Detections += s.Split.Detections
		agg.Totals.Work += mr.Work
	}
	return agg, nil
}

// Report renders the aggregate as a human-readable summary.
func (a *Aggregate) Report() string {
	t := a.Totals
	out := fmt.Sprintf("fleet: %d machines in %v (%d failed)\n",
		len(a.Machines), a.Wall.Round(time.Millisecond), a.Errors)
	reasons := make([]splitmem.StopReason, 0, len(a.Reasons))
	for r := range a.Reasons {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
	for _, r := range reasons {
		out += fmt.Sprintf("  stop %-14v %d\n", r, a.Reasons[r])
	}
	out += fmt.Sprintf("  cycles       %d\n", t.Cycles)
	out += fmt.Sprintf("  instructions %d\n", t.Instructions)
	out += fmt.Sprintf("  syscalls     %d\n", t.Syscalls)
	out += fmt.Sprintf("  page faults  %d\n", t.PageFaults)
	if t.Detections > 0 {
		out += fmt.Sprintf("  detections   %d\n", t.Detections)
	}
	if t.Work > 0 {
		out += fmt.Sprintf("  work         %.0f (%.1f/Mcycle)\n", t.Work,
			t.Work/(float64(t.Cycles)/1e6))
	}
	return out
}

// WorkloadJob returns a job that runs the cataloged workload program on a
// machine the job owns, so the fleet sees its stats and telemetry.
func WorkloadJob(name string) (Job, error) {
	prog, ok := workloads.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("fleet: unknown workload %q", name)
	}
	return func(id int, cfg splitmem.Config) (Result, error) {
		m, err := splitmem.New(cfg)
		if err != nil {
			return Result{}, err
		}
		p, err := m.LoadAsm(prog.Src, fmt.Sprintf("%s-%d", prog.Name, id))
		if err != nil {
			return Result{}, err
		}
		if prog.Input != "" {
			p.StdinWrite([]byte(prog.Input))
			p.StdinClose()
		}
		run := m.Run(40_000_000_000)
		res := Result{Run: run, Stats: m.Stats(), Hub: m.Telemetry()}
		if run.Reason != splitmem.ReasonAllDone {
			return res, fmt.Errorf("%s-%d: run stopped: %v", prog.Name, id, run.Reason)
		}
		if exited, status := p.Exited(); !exited || status != 0 {
			return res, fmt.Errorf("%s-%d: exited=%v status=%d", prog.Name, id, exited, status)
		}
		res.Work = prog.Work
		res.Note = fmt.Sprintf("%s: %.0f work in %d cycles", prog.Name, prog.Work, m.Cycles())
		return res, nil
	}, nil
}

// AttackGridJob returns a job that runs the full extended Wilander grid
// (all techniques x all injection segments) under the machine configuration
// and reports how many attack forms were foiled. Work is the foiled count,
// so an aggregate over N machines proves N independent grids agreed.
func AttackGridJob() Job {
	return func(id int, cfg splitmem.Config) (Result, error) {
		cells, err := attacks.RunExtendedWilander(cfg)
		if err != nil {
			return Result{}, err
		}
		var foiled, applicable int
		var res Result
		for _, c := range cells {
			if c.NA {
				continue
			}
			applicable++
			if c.Result.Foiled() {
				foiled++
			}
			s := c.Result.Stats
			res.Stats.Cycles += s.Cycles
			res.Stats.Instructions += s.Instructions
			res.Stats.PageFaults += s.PageFaults
			res.Stats.Syscalls += s.Syscalls
			res.Stats.Split.Detections += s.Split.Detections
		}
		res.Run = splitmem.RunResult{Reason: splitmem.ReasonAllDone}
		res.Work = float64(foiled)
		res.Note = fmt.Sprintf("attack grid: %d/%d foiled", foiled, applicable)
		return res, nil
	}
}
