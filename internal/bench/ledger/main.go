package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"splitmem/internal/telemetry/hostspan"
)

func main() {
	if code, child := setupChild(); child {
		os.Exit(code)
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed of the job order, attack forms and open-loop arrival times")
	seconds := fs.Int("seconds", 20, "measured seconds (a traced run splits them between its two phases)")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full report, with the host block, to this file")
	traceOut := fs.String("trace-out", "", "Chrome trace_event file of a traced run (default .bench_build/ledger-trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "ledger: want -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if *name == "all" {
		return runAll(fs)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloadList {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "ledger: unknown workload %q (want all or one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	dir, err := runDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	traced := *trace == 1
	d := time.Duration(*seconds) * time.Second
	var res *result
	if traced {
		res, err = measureTraced(w, *seed, d, dir)
	} else {
		res, err = measure(w, *seed, d, setupSamples, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	defs, extra := endToEndMetrics, unboundedMetrics
	if traced {
		defs, extra = perLayerMetrics, nil
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "ledger-trace-"+w.name+".json")
		}
		if err := writeTrace(path, res.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(res.Spans), path)
	}
	fmt.Fprint(os.Stderr, res.summary(w.name, defs, extra))
	if *jsonOut != "" {
		if err := writeReport(*jsonOut, w.name, *seed, *seconds, traced, res, defs, extra); err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
	}
	line, err := res.line(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, one at a time, so no
// workload's set-up, heap or peak RSS leaks into another's numbers.
func runAll(fs *flag.FlagSet) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		return 1
	}
	code := 0
	for _, w := range workloadList {
		var args []string
		fs.Visit(func(f *flag.Flag) {
			v := f.Value.String()
			switch f.Name {
			case "workload":
				v = w.name
			case "json", "trace-out":
				v = strings.TrimSuffix(v, ".json") + "-" + w.name + ".json"
			}
			args = append(args, "-"+f.Name, v)
		})
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values lists defs with their measured values; a layer the workload does
// not exercise reads 0.
func (res *result) values(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := res.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	return out, nil
}

// line is the result line the benchmark prints last.
func (res *result) line(defs []metricDef) ([]byte, error) {
	vals, err := res.values(defs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, vals})
}

// summary is the human-readable report, printed to standard error: the
// bounded metrics defs, then the unbounded ones extra.
func (res *result) summary(workload string, defs, extra []metricDef) string {
	var b strings.Builder
	h := hostInfo()
	fmt.Fprintf(&b, "workload %s on %s (nproc %d, GOMAXPROCS %d, %s)\n", workload, h.CPU, h.NProc, h.GOMAXPROCS, h.Go)
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-32s %14.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	if len(extra) > 0 {
		fmt.Fprintf(&b, "  without a bound (spread between runs above 10%% on a shared host):\n")
	}
	for _, d := range extra {
		fmt.Fprintf(&b, "  %-32s %14.4f %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	if res.Tail.Samples > 0 {
		fmt.Fprintf(&b, "  job_tail_ms is p%g over %d jobs\n", 100*res.Tail.Percentile, res.Tail.Samples)
	}
	fmt.Fprintf(&b, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}

// host describes the machine a report was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// writeReport writes the full report of one run.
func writeReport(path, workload string, seed int64, seconds int, traced bool, res *result, defs, extra []metricDef) error {
	vals, err := res.values(defs)
	if err != nil {
		return err
	}
	unbounded, err := res.values(extra)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"host": hostInfo(), "tail": res.Tail, "violations": res.Violations,
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed,
		"metrics": vals, "unbounded": unbounded,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace writes spans as one Chrome trace_event file.
func writeTrace(path string, spans []hostspan.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hostspan.WriteTraceEvents(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
