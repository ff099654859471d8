// Command splitmem-top runs an S86 guest program with telemetry enabled and
// renders a top(1)-style dashboard of the split engine's activity while the
// simulation advances: machine counters, TLB hit rates, fault-handling
// latency histograms, the hottest split pages and processes, and the most
// recent fault-handling spans.
//
// The simulator is synchronous, so "live" means the run is sliced into
// -interval cycle chunks with the dashboard redrawn between chunks.
//
// Usage:
//
//	splitmem-top [-prot split|split+nx] [-response break|observe|forensics]
//	             [-crt] [-interval cycles] [-top n] [-no-clear] program.s
//
// Cluster mode renders a splitmem-gateway's view instead of a local run:
// replica states from /healthz and per-replica service counters from the
// federated /metrics, refreshed until interrupted:
//
//	splitmem-top -cluster http://gateway:8085 [-refresh 1s] [-no-clear]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"splitmem"
	"splitmem/internal/guest"
	"splitmem/internal/telemetry"
)

func main() {
	var (
		prot     = flag.String("prot", "split", "protection: none, nx, split, split+nx")
		response = flag.String("response", "break", "response mode: break, observe, forensics")
		withCRT  = flag.Bool("crt", false, "append the guest C runtime to the program")
		interval = flag.Uint64("interval", 500_000, "simulated cycles per dashboard refresh")
		topN     = flag.Int("top", 8, "rows in the hottest-pages/processes tables")
		noClear  = flag.Bool("no-clear", false, "do not clear the screen between refreshes (append frames)")
		spanCap  = flag.Int("span-cap", 0, "span ring capacity (0 = default)")
		clusterG = flag.String("cluster", "", "gateway base URL: render the cluster dashboard instead of a local run")
		refresh  = flag.Duration("refresh", time.Second, "cluster mode: poll period")
	)
	flag.Parse()
	if *clusterG != "" {
		if err := runCluster(*clusterG, *refresh, *noClear); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: splitmem-top [flags] program.s|program.self")
		os.Exit(2)
	}

	cfg := splitmem.Config{Telemetry: true, TelemetrySpanCap: *spanCap}
	switch *prot {
	case "none":
		cfg.Protection = splitmem.ProtNone
	case "nx":
		cfg.Protection = splitmem.ProtNX
	case "split":
		cfg.Protection = splitmem.ProtSplit
	case "split+nx":
		cfg.Protection = splitmem.ProtSplitNX
	default:
		fmt.Fprintf(os.Stderr, "unknown protection %q\n", *prot)
		os.Exit(2)
	}
	switch *response {
	case "break":
		cfg.Response = splitmem.Break
	case "observe":
		cfg.Response = splitmem.Observe
	case "forensics":
		cfg.Response = splitmem.Forensics
		cfg.ForensicShellcode = splitmem.ExitShellcode()
	default:
		fmt.Fprintf(os.Stderr, "unknown response %q\n", *response)
		os.Exit(2)
	}

	path := flag.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, err := splitmem.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var p *splitmem.Process
	if strings.HasSuffix(path, ".self") {
		p, err = m.LoadBinary(raw, path)
	} else {
		src := string(raw)
		if *withCRT {
			src = guest.WithCRT(src)
		}
		p, err = m.LoadAsm(src, path)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p.StdinClose()

	var res splitmem.RunResult
	for frame := 1; ; frame++ {
		res = m.Run(*interval)
		if !*noClear {
			fmt.Print("\x1b[2J\x1b[H")
		}
		render(m, frame, *topN)
		if res.Reason != splitmem.ReasonBudget {
			break
		}
	}

	fmt.Printf("\nrun stopped: %v\n", res.Reason)
	if out := p.StdoutDrain(); len(out) > 0 {
		fmt.Printf("--- guest stdout ---\n%s", out)
	}
	if killed, sig := p.Killed(); killed {
		fmt.Printf("process killed: %v at %#08x\n", sig, p.FaultAddr())
	}
}

// render draws one dashboard frame from the machine's telemetry hub.
func render(m *splitmem.Machine, frame, topN int) {
	s := m.Stats()
	hub := m.Telemetry()
	reg := hub.Registry()

	fmt.Printf("splitmem-top — frame %d  prot=%v\n", frame, m.Protection())
	fmt.Printf("cycles %d  instrs %d  pagefaults %d  debugtraps %d  ctxsw %d  syscalls %d\n",
		s.Cycles, s.Instructions, s.PageFaults, s.DebugTraps, s.CtxSwitches, s.Syscalls)
	fmt.Printf("itlb %s   dtlb %s\n",
		rate(s.ITLBHits, s.ITLBMisses), rate(s.DTLBHits, s.DTLBMisses))
	fmt.Printf("split: pages=%d loads code/data=%d/%d detections=%d\n",
		s.Split.SplitPages, s.Split.CodeTLBLoads, s.Split.DataTLBLoads, s.Split.Detections)
	fmt.Printf("superblocks: compiled=%d entered=%d side-exits=%d invalidations=%d\n",
		s.SuperblockCompiled, s.SuperblockEntered, s.SuperblockSideExits, s.SuperblockInvalidations)
	fmt.Printf("mem: frames shared/private=%d/%d cow-copies=%d\n\n",
		s.MemSharedFrames, s.MemPrivateFrames, s.MemCowCopies)

	fmt.Println("LATENCY (simulated cycles)        count      mean       min       max")
	for _, h := range []struct{ label, name string }{
		{"#PF handler", "splitmem_cpu_pf_handler_cycles"},
		{"#DB handler", "splitmem_cpu_db_handler_cycles"},
		{"itlb load episode", "splitmem_split_itlb_load_cycles"},
		{"dtlb load episode", "splitmem_split_dtlb_load_cycles"},
		{"TF single-step round trip", "splitmem_split_tf_roundtrip_cycles"},
	} {
		histRow(reg, h.label, h.name)
	}

	fmt.Printf("\nHOT PAGES%-24s loads    HOT PROCESSES      loads\n", "")
	pages := topItems(reg, "splitmem_split_page_loads_total", topN)
	procs := topItems(reg, "splitmem_split_proc_loads_total", topN)
	for i := 0; i < len(pages) || i < len(procs); i++ {
		var left, right string
		if i < len(pages) {
			left = fmt.Sprintf("%-32s %6d", pages[i].Label, pages[i].Count)
		} else {
			left = fmt.Sprintf("%-39s", "")
		}
		if i < len(procs) {
			right = fmt.Sprintf("pid %-14s %6d", procs[i].Label, procs[i].Count)
		}
		fmt.Printf("%s    %s\n", left, right)
	}

	spans := hub.Spans().Tail(topN)
	fmt.Printf("\nRECENT SPANS (%d recorded, %d dropped)\n", hub.Spans().Len(), hub.Spans().Dropped())
	for _, sp := range spans {
		kind := "span"
		if sp.Instant {
			kind = "inst"
		}
		fmt.Printf("  [%12d] %-4s %-22s pid=%d page=0x%08x dur=%d\n",
			sp.Start, kind, sp.Name, sp.PID, sp.VPN<<12, sp.Dur())
	}
}

// histRow prints one histogram summary line, or a dash when empty.
func histRow(reg *telemetry.Registry, label, name string) {
	h := reg.LookupHistogram(name)
	if h == nil || h.Count() == 0 {
		fmt.Printf("%-30s        -\n", label)
		return
	}
	fmt.Printf("%-30s %10d %9.1f %9d %9d\n", label, h.Count(), h.Mean(), h.Min(), h.Max())
}

// topItems returns the top-n labels of a CounterVec (nil-safe).
func topItems(reg *telemetry.Registry, name string, n int) []telemetry.LabelCount {
	v := reg.LookupCounterVec(name)
	if v == nil {
		return nil
	}
	return v.Top(n)
}

// rate formats hit/miss counters as "hits/misses (pct%)".
func rate(hits, misses uint64) string {
	total := hits + misses
	if total == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%d/%d (%.1f%% hit)", hits, misses, 100*float64(hits)/float64(total))
}
