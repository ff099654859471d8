package main

import (
	"fmt"
	"time"

	"splitmem"
	"splitmem/internal/telemetry/hostspan"
)

// traceSlice is the fixed-cycle slice a traced in-process job runs in, one
// cpu.run-slice span each.
const traceSlice = 1_000_000

// machineBench drives compute-fork and trap-storm: one driver in this
// process forks each job from its program's template Image and runs it to
// completion under split memory, a closed loop.
type machineBench struct {
	mn     menu
	ors    []oracle
	images []*splitmem.Image
	seed   int64
	rec    *hostspan.Recorder // nil when untraced
}

var splitConfig = splitmem.Config{Protection: splitmem.ProtSplit}

func buildComputeFork(seed int64, traced bool, _ string) (instance, error) {
	mn, err := computeMenu()
	if err != nil {
		return nil, err
	}
	return newMachineBench(mn, seed, traced)
}

func buildTrapStorm(seed int64, traced bool, _ string) (instance, error) {
	return newMachineBench(trapStormMenu(), seed, traced)
}

func newMachineBench(mn menu, seed int64, traced bool) (*machineBench, error) {
	b := &machineBench{mn: mn, seed: seed}
	if traced {
		b.rec = hostspan.NewRecorder("bench", benchSpanCap)
	}
	for _, p := range mn.progs {
		prog, err := splitmem.Assemble(p.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		var o oracle
		if o.split, err = coldRun(splitConfig, prog, p); err != nil {
			return nil, err
		}
		if err := checkOracle(p, o.split); err != nil {
			return nil, err
		}
		if o.none, err = coldRun(splitmem.Config{Protection: splitmem.ProtNone}, prog, p); err != nil {
			return nil, err
		}
		tm, err := splitmem.New(splitConfig)
		if err != nil {
			return nil, err
		}
		if _, err := tm.LoadProgram(prog, p.name); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		img, err := tm.Image()
		tm.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: template image: %w", p.name, err)
		}
		b.ors = append(b.ors, o)
		b.images = append(b.images, img)
	}
	// Warm-up: one forked job of every program, checked like any other.
	for i := range mn.progs {
		if _, err := b.job(i, ""); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

// coldRun boots a fresh machine, loads the program and runs it to the end.
func coldRun(cfg splitmem.Config, prog *splitmem.Program, p program) (outcome, error) {
	m, err := splitmem.New(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer m.Close()
	proc, err := m.LoadProgram(prog, p.name)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.name, err)
	}
	proc.StdinWrite(p.stdin)
	proc.StdinClose()
	return runOutcome(m, proc, jobBudget, 0)
}

// job forks one job of program i, runs it to completion (in traced slices
// when tracing) and checks it against the oracle. A returned error means the
// job could not be started; a wrong result is a *violation.
func (b *machineBench) job(i int, trace string) (splitmem.Stats, error) {
	p := b.mn.progs[i]
	boot := b.rec.Begin(trace, "splitmem.boot")
	m, err := b.images[i].Boot()
	b.rec.End(boot)
	if err != nil {
		return splitmem.Stats{}, fmt.Errorf("%s: boot: %w", p.name, err)
	}
	defer m.Close()
	proc, ok := m.Kernel().Process(1)
	if !ok {
		return splitmem.Stats{}, fmt.Errorf("%s: forked machine has no root process", p.name)
	}
	proc.StdinWrite(p.stdin)
	proc.StdinClose()
	slice := uint64(jobBudget)
	if b.rec != nil {
		slice = traceSlice
	}
	var used uint64
	var res splitmem.RunResult
	for used < jobBudget {
		sp := b.rec.Begin(trace, "cpu.run-slice")
		res = m.Run(min(slice, jobBudget-used))
		b.rec.End(sp)
		used += res.Cycles
		if res.Reason != splitmem.ReasonBudget {
			break
		}
	}
	st := m.Stats()
	err = checkOutcome(p, b.ors[i].split, res.Reason.String(), st,
		len(m.EventsOf(splitmem.EvInjectionDetected)), proc.ShellSpawned())
	if err != nil {
		return st, &violation{err.Error()}
	}
	return st, nil
}

func (b *machineBench) run(d time.Duration) *phase {
	seq := newSequence(b.mn, b.seed)
	ph := &phase{start: time.Now()}
	deadline := ph.start.Add(d)
	for time.Now().Before(deadline) {
		i := seq.next()
		r := jobRecord{prog: i}
		if b.rec != nil {
			r.trace = hostspan.NewTraceID()
		}
		root := b.rec.Begin(r.trace, "bench.job", "program", b.mn.progs[i].name)
		r.due = time.Now()
		r.sent = r.due
		st, err := b.job(i, r.trace)
		r.done = time.Now()
		b.rec.End(root)
		r.record(st, err)
		ph.jobs = append(ph.jobs, r)
	}
	return ph
}

func (b *machineBench) exact() (map[string]float64, error) { return simMetrics(b.mn, b.ors) }

func (b *machineBench) layers(ph *phase) (map[string]float64, []hostspan.Span, error) {
	if b.rec.Dropped() > 0 {
		return nil, nil, fmt.Errorf("bench span ring dropped %d spans", b.rec.Dropped())
	}
	spans := b.rec.Spans()
	var sliceNS int64
	for _, s := range spans {
		if s.Name == "cpu.run-slice" && s.Trace != "" { // warm-up jobs carry no trace
			sliceNS += s.Dur().Nanoseconds()
		}
	}
	out := jobMemMetrics(ph)
	out["cpu.run_ns_per_instr"] = ratio(float64(sliceNS), float64(ph.instructions()))
	boot, cold, err := startupMicro(splitConfig, b.mn.progs[0].src, b.mn.progs[0].name)
	if err != nil {
		return nil, nil, err
	}
	out["splitmem.boot_us"], out["splitmem.cold_start_us"] = boot, cold
	out["snapshot.encode_ms"], out["snapshot.bytes"] = snapshotMetrics(b.mn, b.ors)
	return out, spans, nil
}

func (b *machineBench) close() {}
