package splitmem_test

// CI guards for the host fast path (the superblock engine).
//
// TestFastPathNoRegression pins the deterministic side: work per simulated
// megacycle for each fast-path workload, compared against the committed
// BENCH_results.json ("fastpath-sim" figure). The simulator is deterministic
// and the metric is host-independent, so a >10% drop is a real throughput
// regression in the simulated architecture, never measurement noise.
//
// TestSuperblockSpeedupGuard checks the host side — the speedup the
// superblock engine actually buys over the interpreter — and is env-gated
// because host timing is noisy on shared runners:
//
//	SPLITMEM_FASTPATH_GUARD=1 go test -run 'SuperblockSpeedupGuard' -v .

import (
	"encoding/json"
	"os"
	"testing"

	"splitmem"
	"splitmem/internal/bench"
	"splitmem/internal/workloads"
)

// superblockSpeedupFloor is the minimum acceptable host speedup from the
// superblock engine over the interpreter on the compute-bound workloads
// (6.5-8.9x on nbench and 4.5-5.1x on gzip over three runs on a 2-core
// Xeon with Go 1.24). The floor is the product of the two per-tier floors
// it replaces: superblock over predecode 2.0x, predecode over interpreter
// 1.3x.
const superblockSpeedupFloor = 2.6

// simThroughput runs one cataloged workload under the split engine and
// returns its deterministic work per simulated megacycle.
func simThroughput(t *testing.T, name string) float64 {
	t.Helper()
	prog, ok := workloads.Lookup(name)
	if !ok {
		t.Fatalf("unknown workload %q in golden figure", name)
	}
	m, err := splitmem.New(splitmem.Config{Protection: splitmem.ProtSplit})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadAsm(prog.Src, name)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Input != "" {
		p.StdinWrite([]byte(prog.Input))
		p.StdinClose()
	}
	if res := m.Run(40_000_000_000); res.Reason != splitmem.ReasonAllDone {
		t.Fatalf("%s stopped: %v", name, res.Reason)
	}
	cycles := m.Stats().Cycles
	if cycles == 0 {
		t.Fatalf("%s retired no cycles", name)
	}
	return prog.Work / (float64(cycles) / 1e6)
}

func TestFastPathNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs guest workloads")
	}
	raw, err := os.ReadFile("BENCH_results.json")
	if err != nil {
		t.Fatalf("committed benchmark baseline missing (%v); regenerate with: "+
			"go run ./cmd/splitmem-bench -all -json BENCH_results.json", err)
	}
	var res bench.Results
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != bench.ResultsSchema {
		t.Fatalf("baseline schema %q, want %q", res.Schema, bench.ResultsSchema)
	}
	var golden *bench.SeriesResult
	for i := range res.Figures {
		if res.Figures[i].ID != "fastpath-sim" {
			continue
		}
		for j := range res.Figures[i].Series {
			if s := &res.Figures[i].Series[j]; s.Name == "sim work/Mcycle" {
				golden = s
			}
		}
	}
	if golden == nil || len(golden.Labels) == 0 {
		t.Fatal(`baseline has no "fastpath-sim" sim series; regenerate BENCH_results.json`)
	}
	for i, name := range golden.Labels {
		want := golden.Values[i]
		got := simThroughput(t, name)
		switch {
		case got < 0.9*want:
			t.Errorf("%s: compute throughput regressed >10%%: %.3f work/Mcycle, baseline %.3f",
				name, got, want)
		case got > 1.1*want:
			t.Errorf("%s: throughput improved >10%% (%.3f vs %.3f) — re-pin the baseline "+
				"with: go run ./cmd/splitmem-bench -all -json BENCH_results.json", name, got, want)
		default:
			t.Logf("%s: %.3f work/Mcycle (baseline %.3f)", name, got, want)
		}
	}
}

// fastPathRunsByEngine runs the full ablation once and indexes the result.
func fastPathRunsByEngine(t *testing.T) map[string]map[string]bench.FastPathRun {
	t.Helper()
	_, runs, err := bench.FastPath()
	if err != nil {
		t.Fatal(err)
	}
	byEngine := map[string]map[string]bench.FastPathRun{}
	for _, r := range runs {
		if byEngine[r.Engine] == nil {
			byEngine[r.Engine] = map[string]bench.FastPathRun{}
		}
		byEngine[r.Engine][r.Workload] = r
	}
	return byEngine
}

// guardSpeedup checks fast-vs-slow host speedups against a floor on the
// compute-bound workloads (syscall is trap-bound and informational only).
func guardSpeedup(t *testing.T, byEngine map[string]map[string]bench.FastPathRun, fast, slow string, floor float64) {
	t.Helper()
	for name, f := range byEngine[fast] {
		s, ok := byEngine[slow][name]
		if !ok || s.HostMIPS() == 0 {
			t.Fatalf("%s: no %s arm", name, slow)
		}
		speedup := f.HostMIPS() / s.HostMIPS()
		if name == "syscall" {
			t.Logf("%s: %s/%s %.2fx (informational)", name, fast, slow, speedup)
			continue
		}
		if speedup < floor {
			t.Errorf("%s: %s buys only %.2fx over %s, floor %.2fx (%.1f vs %.1f MIPS)",
				name, fast, speedup, slow, floor, f.HostMIPS(), s.HostMIPS())
		} else {
			t.Logf("%s: %s/%s %.2fx speedup", name, fast, slow, speedup)
		}
	}
}

func TestSuperblockSpeedupGuard(t *testing.T) {
	if os.Getenv("SPLITMEM_FASTPATH_GUARD") == "" {
		t.Skip("host-timing guard; set SPLITMEM_FASTPATH_GUARD=1 to run")
	}
	byEngine := fastPathRunsByEngine(t)
	guardSpeedup(t, byEngine, "superblock", "interp", superblockSpeedupFloor)
	for name, sb := range byEngine["superblock"] {
		if name != "syscall" && sb.SBEntered == 0 {
			t.Errorf("%s: superblock engine never entered a block — guard is vacuous", name)
		}
	}
}
