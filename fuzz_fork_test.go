package splitmem_test

// FuzzForkCoW: differential fuzzing of the copy-on-write frame layer. Each
// fuzz input derives a self-modifying hot-loop program (the superblock fuzz
// generator — its imm-byte patches hammer write generations, the worst case
// for shared frames), optionally under chaos (bit flips mutate frames the
// siblings share; TLB churn bumps decode epochs). The program runs cold to
// completion, then again to a pseudo-random fork point where TWO siblings are
// forked off the same sealed base. Both siblings and the parent then run to
// completion over the same shared frames, and all four digests — cold, parent,
// sibling A, sibling B — must be identical: same retired stream, cycles,
// scrubbed stats and event-log bytes. Any divergence is CoW cross-talk (one
// sibling observing another's writes) or a missed unshare.

import (
	"bytes"
	"fmt"
	"testing"

	"splitmem"
	"splitmem/internal/isa"
	"splitmem/internal/workloads"
)

// forkSiblingDigests runs prog to forkAt, forks two siblings off the parent,
// verifies both are bit-identical to the parent at the fork point, then runs
// parent and both siblings to completion and returns their digests (parent,
// a, b) for comparison against each other and a cold-booted reference.
func forkSiblingDigests(t *testing.T, prog workloads.Program, cfg splitmem.Config, forkAt uint64) (parent, a, b workloadDigest) {
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

	ref, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sibA, err := m.Fork()
	if err != nil {
		t.Fatalf("first fork at cycle %d: %v", forkAt, err)
	}
	sibB, err := m.Fork()
	if err != nil {
		t.Fatalf("second fork at cycle %d: %v", forkAt, err)
	}
	for i, s := range []*splitmem.Machine{sibA, sibB} {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, snap) {
			t.Errorf("sibling %d not bit-identical to parent at fork point (%d vs %d bytes)",
				i, len(snap), len(ref))
		}
	}

	finish := func(fm *splitmem.Machine, r splitmem.RunResult) workloadDigest {
		d := prefix // copy: every run extends the same retired-stream prefix
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
		var err error
		d.events, err = fm.EventsJSONL()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a = finish(sibA, res)
	b = finish(sibB, res)
	parent = finish(m, res)
	sibA.Close()
	sibB.Close()
	m.Close()
	return parent, a, b
}

func FuzzForkCoW(f *testing.F) {
	f.Add([]byte{})                           // minimal program, site patch
	f.Add([]byte{7, 3, 4, 1, 2, 9, 0x40})     // mixed ops, body patch
	f.Add([]byte("forkcow"))                  // chaos arm (odd last byte)
	f.Add([]byte{0, 11, 6, 5, 4, 3, 2, 1, 3}) // chaos arm, body patch

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := workloads.Program{Name: "forkfuzz", Src: sbFuzzProgram(data)}
		var chaos splitmem.ChaosConfig
		if len(data) > 0 && data[len(data)-1]%2 == 1 {
			chaos = splitmem.ChaosConfig{
				Seed:      0xF0 ^ uint64(data[0])<<8 ^ uint64(len(data)),
				TLBFlush:  0.002,
				ITLBEvict: 0.01,
				BitFlip:   0.0005,
			}
		}
		cfg := splitmem.Config{Protection: splitmem.ProtSplit, Paranoid: true, Chaos: chaos}
		cold := runWorkload(t, prog, cfg)
		forkAt := pseudoCycle(fmt.Sprintf("forkcow%x", data), cold.cycles)
		parent, a, b := forkSiblingDigests(t, prog, cfg, forkAt)
		compareDigests(t, "forkcow/sibling-a-vs-b", a, b)
		compareDigests(t, "forkcow/parent-vs-sibling", parent, a)
		compareDigests(t, "forkcow/cold-vs-fork", cold, a)
	})
}
