// Command splitmem-bench regenerates the performance evaluation of the
// paper (Table 3 and Figures 6-9).
//
// Usage:
//
//	splitmem-bench [-table3] [-fig6] [-fig7] [-fig8] [-fig9] [-fastpath]
//	               [-forkpool] [-all] [-json BENCH_results.json]
//
// -fastpath runs the two-engine ablation: nbench, gzip and syscall under
// split memory on the interpreter and the superblock engine. The simulated
// side must be bit-identical across the two; the host side reports each
// engine's MIPS and the superblock speedup.
// -forkpool measures warm-pool economics: machine start latency cold-booted
// vs snapshot-forked (with the fork == cold determinism gate enforced) and
// the physical frames each fork shares with its template copy-on-write.
// SPLITMEM_FORKPOOL_GUARD=1 go test -run TestForkPoolSpeedupGuard pins the
// speedup floor in CI.
//
// The host-timed service figures live in the benchmark ledger
// (internal/bench/ledger: the serve-open and cluster-checkpoint workloads
// and the telemetry.trace_overhead_ratio metric); the cluster tracing
// overhead guard is TestTracingOverheadGuard in internal/cluster.
//
// -json additionally writes every table and figure the run produced as one
// machine-readable JSON document (schema "splitmem-bench/v1", documented in
// EXPERIMENTS.md) for CI artifacts and plotting scripts.
package main

import (
	"flag"
	"fmt"
	"os"

	"splitmem/internal/bench"
)

func main() {
	var (
		table3   = flag.Bool("table3", false, "print the configuration table")
		fig6     = flag.Bool("fig6", false, "run the normalized application benchmarks")
		fig7     = flag.Bool("fig7", false, "run the context-switch stress tests")
		fig8     = flag.Bool("fig8", false, "run the Apache page-size sweep")
		fig9     = flag.Bool("fig9", false, "run the fractional-splitting sweep")
		fastpath = flag.Bool("fastpath", false, "run the two-engine ablation (interpreter, superblock)")
		forkpool = flag.Bool("forkpool", false, "run the warm-pool cold-boot-vs-fork bench")
		all      = flag.Bool("all", false, "run everything")
		jsonPath = flag.String("json", "", "also write results as JSON to this file")
	)
	flag.Parse()
	if !(*table3 || *fig6 || *fig7 || *fig8 || *fig9 || *fastpath || *forkpool) {
		*all = true
	}
	results := bench.NewResults()
	if *all || *table3 {
		t := bench.Table3()
		fmt.Println(t.Render())
		results.AddTable("table3", t)
	}
	figs := []struct {
		on  bool
		fn  func() (*bench.Figure, error)
		tag string
	}{
		{*all || *fig6, bench.Fig6, "fig6"},
		{*all || *fig7, bench.Fig7, "fig7"},
		{*all || *fig8, bench.Fig8, "fig8"},
		{*all || *fig9, bench.Fig9, "fig9"},
	}
	for _, f := range figs {
		if !f.on {
			continue
		}
		fig, err := f.fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.tag, err)
			os.Exit(1)
		}
		fmt.Println(fig.Render())
		results.AddFigure(f.tag, fig)
	}
	if *all || *fastpath {
		t, runs, err := bench.FastPath()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fastpath: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		results.AddTable("fastpath", t)
		results.AddFigure("fastpath-sim", bench.FastPathSimFigure(runs))
	}
	if *all || *forkpool {
		t, runs, err := bench.ForkPool()
		if err != nil {
			fmt.Fprintf(os.Stderr, "forkpool: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
		results.AddTable("forkpool", t)
		results.AddFigure("forkpool", bench.ForkPoolFigure(runs))
	}
	if *jsonPath != "" {
		out, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := results.WriteJSON(out); err != nil {
			out.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := out.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
