package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"splitmem/internal/telemetry/hostspan"
)

// TestMain lets the test binary serve as the set-up child that measure
// starts for setup_s.
func TestMain(m *testing.M) {
	if code, child := setupChild(); child {
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload for about a second untraced with
// seed 1 and traced with seed 2, and requires a correct result with every
// metric. The two runs set up separately, under different seeds, so their
// simulated metrics must still be bit-identical, and the overhead
// attribution's shares must sum to exactly one.
//
// Under the race detector, which slows the simulator about tenfold and
// would take this test past six minutes, only the service workloads run:
// they hold the ledger's concurrency (driver goroutines, HTTP clients,
// trace fetches), while the in-process ones run a single driver.
func TestWorkloadsSmoke(t *testing.T) {
	inProcess := map[string]bool{"compute-fork": true, "trap-storm": true}
	for _, w := range workloadList {
		if raceEnabled && inProcess[w.name] {
			continue
		}
		var exact map[string]float64
		for _, traced := range []bool{false, true} {
			var res *result
			var err error
			if traced {
				res, err = measureTraced(w, 2, time.Second, t.TempDir())
			} else {
				res, err = measure(w, 1, time.Second, 1, t.TempDir())
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed > 0 || res.Attempted < 1 {
				t.Fatalf("%s (traced %v): correct %v, failed %d of %d: %v",
					w.name, traced, res.Correct, res.Failed, res.Attempted, res.Violations)
			}
			if exact == nil {
				exact = res.Exact
			} else if !reflect.DeepEqual(exact, res.Exact) {
				t.Errorf("%s: simulated metrics differ between set-ups:\n%v\n%v", w.name, exact, res.Exact)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			line, err := res.line(defs)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var out struct {
				Metrics map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s: metric %s missing or without unit %q: %+v", w.name, d.name, d.unit, m)
				}
				// A slow host (or the race detector) can miss every latency
				// limit in a one-second run, so slo_met_ratio may read 0 here.
				if !traced && *m.Value == 0 && d.name != "slo_met_ratio" {
					t.Errorf("%s: end-to-end metric %s reads 0", w.name, d.name)
				}
			}
			if !traced {
				for _, d := range unboundedMetrics {
					if v, ok := res.Metrics[d.name]; !ok || v <= 0 {
						t.Errorf("%s: unbounded metric %s missing or not positive: %v", w.name, d.name, v)
					}
				}
			}
		}
		var sum float64
		for _, k := range []string{"kernel.pf_cycles_share", "core.dbg_cycles_share", "paging.walk_cycles_share",
			"kernel.ctxsw_cycles_share", "sim.unexplained_cycles_share"} {
			sum += exact[k]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: attribution shares sum to %v", w.name, sum)
		}
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json to the names and units the
// ledger prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the ledger %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %+v, ledger %s: %s", i, w, workloadList[i].name, workloadList[i].why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the ledger %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, ledger %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayerMetrics)
}

// TestAttributionIsExact: on real oracle runs the integer terms add up to
// the overhead cycle for cycle.
func TestAttributionIsExact(t *testing.T) {
	inst, err := buildTrapStorm(1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b := inst.(*machineBench)
	for i, o := range b.ors {
		a := attribute(o.split.stats, o.none.stats)
		if a.PF+a.Debug+a.Walk+a.CtxSw+a.Residual != a.Overhead || a.Overhead <= 0 || a.PF <= 0 {
			t.Errorf("%s: %+v", b.mn.progs[i].name, a)
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same job order and
// arrival schedule, a different seed a different one, and every block
// keeps the menu's proportions.
func TestSeedDeterminesInputs(t *testing.T) {
	mn := trapStormMenu()
	order := func(seed int64) []int {
		s := newSequence(mn, seed)
		out := make([]int, 50)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(order(1), order(1)) {
		t.Error("same seed, different job order")
	}
	if reflect.DeepEqual(order(1), order(2)) {
		t.Error("different seeds, same job order")
	}
	seq := order(3)
	for b := 0; b < len(seq); b += len(mn.block) {
		seen := map[int]bool{}
		for _, p := range seq[b : b+len(mn.block)] {
			seen[p] = true
		}
		if len(seen) != len(mn.block) {
			t.Errorf("block at %d does not hold every program once: %v", b, seq[b:b+len(mn.block)])
		}
	}
	a1, a2 := arrivals(1, 100, time.Second), arrivals(2, 100, time.Second)
	if !reflect.DeepEqual(a1, arrivals(1, 100, time.Second)) {
		t.Error("same seed, different arrivals")
	}
	if reflect.DeepEqual(a1, a2) || len(a1) != 100 {
		t.Errorf("arrivals: %d due times, seeds 1 and 2 equal: %v", len(a1), reflect.DeepEqual(a1, a2))
	}
}

// TestSelfTimes: each nanosecond goes to the innermost span, uncovered time
// is unattributed, and the buckets sum to the latency.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := jobRecord{due: at(0), sent: at(2), done: at(100)}
	spans := []hostspan.Span{
		{Name: "rep.admit", Start: at(10), End: at(10), Instant: true},
		{Name: "rep.enqueue-wait", Start: at(10), End: at(20)},
		{Name: "rep.run", Start: at(21), End: at(90)},
		{Name: "rep.run-slice", Start: at(25), End: at(60)},
		{Name: "rep.checkpoint", Start: at(60), End: at(70)},
		{Name: "rep.result", Start: at(91), End: at(91), Instant: true},
	}
	got := selfTimes(r, spans)
	ms := int64(time.Millisecond)
	want := map[string]int64{
		"loadgen.wait": 2 * ms, "serve.admit": 8 * ms, "rep.enqueue-wait": 10 * ms,
		"rep.run": 24 * ms, "rep.run-slice": 35 * ms, "rep.checkpoint": 10 * ms,
		"serve.result": 9 * ms, "": 2 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times\n got %v\nwant %v", got, want)
	}
}
