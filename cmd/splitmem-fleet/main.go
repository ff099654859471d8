// Command splitmem-fleet runs a fleet of independent S86 machines in
// parallel and reports the merged result: aggregate run outcomes, summed
// counters, and (with -metrics) the merged telemetry
// registry in Prometheus text format.
//
// Usage:
//
//	splitmem-fleet [-n N] [-workers W] [-seed S]
//	               [-job nbench|gzip|syscall|pipe-throughput|fswrite|attack-grid]
//	               [-prot none|nx|split|split+nx] [-response break|observe|forensics]
//	               [-telemetry] [-metrics FILE] [-v]
//
// Each machine gets a deterministically derived seed, so the fleet's result
// is reproducible for any worker count.
package main

import (
	"flag"
	"fmt"
	"os"

	"splitmem"
	"splitmem/internal/fleet"
)

func main() {
	var (
		n         = flag.Int("n", 4, "number of machines")
		workers   = flag.Int("workers", 4, "concurrent workers")
		seed      = flag.Uint64("seed", 0, "master seed for per-machine seed derivation")
		jobName   = flag.String("job", "nbench", "job: a cataloged workload, or attack-grid")
		prot      = flag.String("prot", "split", "protection: none|nx|split|split+nx")
		response  = flag.String("response", "break", "split response: break|observe|forensics")
		telemetry = flag.Bool("telemetry", false, "enable per-machine telemetry and merge it")
		metrics   = flag.String("metrics", "", "write merged metrics (Prometheus text) to FILE")
		verbose   = flag.Bool("v", false, "print one line per machine")
	)
	flag.Parse()

	mcfg := splitmem.Config{Telemetry: *telemetry || *metrics != ""}
	switch *prot {
	case "none":
		mcfg.Protection = splitmem.ProtNone
	case "nx":
		mcfg.Protection = splitmem.ProtNX
	case "split":
		mcfg.Protection = splitmem.ProtSplit
	case "split+nx":
		mcfg.Protection = splitmem.ProtSplitNX
	default:
		fmt.Fprintf(os.Stderr, "unknown -prot %q\n", *prot)
		os.Exit(2)
	}
	switch *response {
	case "break":
		mcfg.Response = splitmem.Break
	case "observe":
		mcfg.Response = splitmem.Observe
	case "forensics":
		mcfg.Response = splitmem.Forensics
	default:
		fmt.Fprintf(os.Stderr, "unknown -response %q\n", *response)
		os.Exit(2)
	}

	var job fleet.Job
	if *jobName == "attack-grid" {
		job = fleet.AttackGridJob()
	} else {
		var err error
		job, err = fleet.WorkloadJob(*jobName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	agg, err := fleet.Run(fleet.Config{
		N: *n, Workers: *workers, Seed: *seed, Machine: mcfg, Job: job,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *verbose {
		for _, m := range agg.Machines {
			if m.Err != nil {
				fmt.Printf("machine %2d seed=%-20d ERROR %v\n", m.ID, m.Seed, m.Err)
				continue
			}
			fmt.Printf("machine %2d seed=%-20d %v host=%v %s\n",
				m.ID, m.Seed, m.Run.Reason, m.Host.Round(1e6), m.Note)
		}
	}
	fmt.Print(agg.Report())
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := agg.Hub.Registry().WritePrometheus(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}
	if agg.Errors > 0 {
		os.Exit(1)
	}
}
