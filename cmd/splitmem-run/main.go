// Command splitmem-run executes an S86 guest program (assembly source or
// SELF binary) on the simulated machine under a chosen protection policy
// and response mode, wiring the host's stdin/stdout to the guest.
//
// Usage:
//
//	splitmem-run [-prot none|nx|split|split+nx] [-response break|observe|forensics]
//	             [-crt] [-stats] [-events] [-trace-out run.json] [-metrics-out run.prom]
//	             program.s
//
// -trace-out writes the telemetry spans as Chrome trace_event JSON, loadable
// in Perfetto (https://ui.perfetto.dev); -metrics-out writes the metrics
// registry in the Prometheus text format (or JSON Lines when the path ends
// in .jsonl). Either flag enables telemetry for the run.
//
// With -budget N -checkpoint f, a run that stops on its cycle budget writes
// the machine's Image to f; -resume f (no program argument) boots that Image
// and continues, producing the output the uninterrupted run would have.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"splitmem"
	"splitmem/internal/guest"
)

func main() {
	var (
		prot     = flag.String("prot", "split", "protection: none, nx, split, split+nx")
		response = flag.String("response", "break", "response mode: break, observe, forensics")
		withCRT  = flag.Bool("crt", false, "append the guest C runtime to the program")
		stats    = flag.Bool("stats", false, "print machine statistics on exit")
		events   = flag.Bool("events", false, "print the kernel event log on exit")
		jsonOut  = flag.Bool("json", false, "print the event log as JSON lines on exit")
		traceN   = flag.Int("trace", 0, "record and print the last N executed instructions")
		budget   = flag.Uint64("budget", 0, "cycle budget (0 = unlimited)")
		traceOut = flag.String("trace-out", "", "write telemetry spans as Chrome trace_event JSON (Perfetto) to this file")
		metrOut  = flag.String("metrics-out", "", "write telemetry metrics (Prometheus text, or JSONL if the path ends in .jsonl) to this file")
		ckptOut  = flag.String("checkpoint", "", "write a machine image to this file if the run stops on its cycle budget")
		resume   = flag.String("resume", "", "resume from a machine image instead of loading a program (no program argument)")
	)
	flag.Parse()
	if *resume != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: splitmem-run -resume image.img [flags] (no program argument: the image carries the machine)")
			os.Exit(2)
		}
		runResumed(*resume, *ckptOut, *budget, *stats, *events, *jsonOut)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: splitmem-run [flags] program.s|program.self")
		os.Exit(2)
	}

	cfg := splitmem.Config{}
	cfg.TraceDepth = *traceN
	cfg.Telemetry = *traceOut != "" || *metrOut != ""
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

	// Feed host stdin (if any) to the guest.
	if in, err := io.ReadAll(os.Stdin); err == nil && len(in) > 0 {
		p.StdinWrite(in)
	}
	p.StdinClose()

	res := m.Run(*budget)
	os.Stdout.Write(p.StdoutDrain())
	maybeCheckpoint(m, res, *ckptOut)

	if *events {
		for _, ev := range m.Events() {
			fmt.Fprintf(os.Stderr, "[%12d] %-18s pid=%d %s\n", ev.Cycles, ev.Kind, ev.PID, ev.Text)
		}
	}
	if *jsonOut {
		if b, err := m.EventsJSONL(); err == nil {
			os.Stderr.Write(b)
		}
	}
	if *traceN > 0 {
		fmt.Fprintf(os.Stderr, "--- execution trace (last %d instructions) ---\n%s", *traceN, m.TraceTail())
	}
	if *traceOut != "" {
		if err := writeFileWith(*traceOut, m.WriteTrace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *metrOut != "" {
		write := m.WriteMetricsPrometheus
		if strings.HasSuffix(*metrOut, ".jsonl") {
			write = m.WriteMetricsJSONL
		}
		if err := writeFileWith(*metrOut, write); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *stats {
		s := m.Stats()
		fmt.Fprintf(os.Stderr, "cycles=%d instrs=%d pagefaults=%d debugtraps=%d ctxsw=%d\n",
			s.Cycles, s.Instructions, s.PageFaults, s.DebugTraps, s.CtxSwitches)
		fmt.Fprintf(os.Stderr, "itlb hits/misses=%d/%d dtlb=%d/%d\n",
			s.ITLBHits, s.ITLBMisses, s.DTLBHits, s.DTLBMisses)
		if m.Protection() == splitmem.ProtSplit || m.Protection() == splitmem.ProtSplitNX {
			fmt.Fprintf(os.Stderr, "split: pages=%d dataTLBloads=%d codeTLBloads=%d detections=%d\n",
				s.Split.TotalSplits, s.Split.DataTLBLoads, s.Split.CodeTLBLoads, s.Split.Detections)
		}
	}

	finish(res, p)
}

// maybeCheckpoint writes the machine's Image to path when the run parked on
// its cycle budget — the resumable case. A finished (or broken) run has
// nothing worth resuming, so no image is written.
func maybeCheckpoint(m *splitmem.Machine, res splitmem.RunResult, path string) {
	if path == "" || res.Reason != splitmem.ReasonBudget {
		return
	}
	img, err := m.Image()
	if err == nil {
		err = writeFileWith(path, func(w io.Writer) error { _, err := img.WriteTo(w); return err })
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkpoint:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "checkpoint: image written to %s (resume with -resume)\n", path)
}

// runResumed boots a machine from an Image file and continues the run. The
// image carries the whole machine — config, program, pending input — so no
// program argument or protection flags apply.
func runResumed(path, ckptOut string, budget uint64, stats, events, jsonOut bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	img, err := splitmem.ReadImage(f)
	f.Close()
	var m *splitmem.Machine
	if err == nil {
		m, err = img.Boot()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "resume:", err)
		os.Exit(1)
	}
	p, ok := m.Kernel().Process(1)
	if !ok {
		fmt.Fprintln(os.Stderr, "resume: image has no root process")
		os.Exit(1)
	}
	res := m.Run(budget)
	os.Stdout.Write(p.StdoutDrain())
	maybeCheckpoint(m, res, ckptOut)
	if events {
		for _, ev := range m.Events() {
			fmt.Fprintf(os.Stderr, "[%12d] %-18s pid=%d %s\n", ev.Cycles, ev.Kind, ev.PID, ev.Text)
		}
	}
	if jsonOut {
		if b, err := m.EventsJSONL(); err == nil {
			os.Stderr.Write(b)
		}
	}
	if stats {
		s := m.Stats()
		fmt.Fprintf(os.Stderr, "cycles=%d instrs=%d pagefaults=%d debugtraps=%d ctxsw=%d\n",
			s.Cycles, s.Instructions, s.PageFaults, s.DebugTraps, s.CtxSwitches)
	}
	finish(res, p)
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish translates the run result into the process exit status.
func finish(res splitmem.RunResult, p *splitmem.Process) {
	switch {
	case res.Reason != splitmem.ReasonAllDone:
		fmt.Fprintf(os.Stderr, "run stopped: %v\n", res.Reason)
		os.Exit(3)
	default:
		if killed, sig := p.Killed(); killed {
			fmt.Fprintf(os.Stderr, "process killed: %v at %#08x\n", sig, p.FaultAddr())
			os.Exit(128 + int(sig))
		}
		_, status := p.Exited()
		os.Exit(status)
	}
}
