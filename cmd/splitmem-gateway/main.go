// Command splitmem-gateway fronts a sharded cluster of splitmem-serve
// replicas: one stable /v1/jobs endpoint with consistent-hash routing,
// health-probe failover, typed retry of shed submissions, and live
// migration of in-flight jobs (CRC-gated checkpoint export and resume)
// when a replica drains or dies.
//
// Usage:
//
//	splitmem-gateway -replicas http://h1:8086,http://h2:8086,http://h3:8086
//	                 [-addr :8085] [-probe-interval 250ms] [-fail-threshold 3]
//	                 [-retry-budget 8] [-flightrecorder-dir dir]
//	                 [-pprof-addr 127.0.0.1:6060] [-no-tracing] [-selftest]
//
// Endpoints:
//
//	POST /v1/jobs            run a job on some replica, respond with the result
//	POST /v1/jobs?stream=1   NDJSON stream: accepted line, event lines, one
//	                         terminal result line — a single unbroken stream
//	                         even if the job migrates between replicas mid-run
//	GET  /healthz            gateway identity, build + uptime, per-replica state
//	                         table (up/degraded/draining/down, instance IDs,
//	                         restart counts, span counters), and job counters
//	GET  /metrics            federated Prometheus text: gateway instruments
//	                         plus every replica's exposition under a stable
//	                         replica="rN" label
//	GET  /v1/traces/{id}     merged distributed trace for one job across the
//	                         gateway and every replica it touched; add
//	                         ?format=chrome for a chrome://tracing timeline
//
// Every job carries an X-Splitmem-Trace ID (minted at the gateway if the
// client didn't send one) and records wall-clock lifecycle spans at each
// hop. -flightrecorder-dir arms the failure flight recorder: replica
// deaths, worker panics, CRC-gated checkpoint corruption, and jobs that
// exhaust the retry budget each dump a self-contained JSON post-mortem
// there. -pprof-addr serves net/http/pprof on a second listener; bind it
// to localhost (for example 127.0.0.1:6060) unless you mean to expose it.
//
// The contract: every acknowledged job reaches exactly one terminal result,
// through replica drains, crashes, and rolling restarts. SIGINT/SIGTERM
// stops the listener gracefully; in-flight relays finish first.
//
// -selftest boots three in-process replicas behind an in-process gateway,
// checks /healthz build info, forces a live migration and verifies its
// merged trace spans both replicas, runs the concurrent load harness while
// one replica is killed and restarted mid-load, checks the federated
// /metrics, and requires the kill to leave a flight-recorder dump. With
// -trace-out the migration's merged Chrome trace is written there.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "net/http/pprof"

	"splitmem/internal/cluster"
	"splitmem/internal/faultmesh/campaign"
	"splitmem/internal/serve"
	"splitmem/internal/serve/loadtest"
)

// runChaosCampaign boots the in-process hostile cluster (fault-injecting
// transport between gateway and replicas, fault-injecting disks under the
// journals, a conductor killing and draining replicas mid-load), drives the
// seeded load, and prints the invariant table. The JSON report — the CI
// artifact — is written even when the campaign fails, so a red run ships
// its own forensics.
func runChaosCampaign(seed uint64, clients int, reportPath string) error {
	rep, err := campaign.Run(campaign.Config{Seed: seed, Clients: clients})
	if rep != nil && reportPath != "" {
		f, ferr := os.Create(reportPath)
		if ferr != nil {
			return ferr
		}
		if werr := rep.WriteJSON(f); werr != nil {
			f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Fprintf(os.Stderr, "chaos-campaign: report written to %s\n", reportPath)
	}
	if err != nil {
		return err
	}
	if rep.Load != nil {
		fmt.Println(rep.Load)
	}
	fmt.Printf("chaos-campaign: faults %+v\n", rep.Stats)
	for _, inv := range rep.Invariants {
		mark := "ok"
		if !inv.Passed {
			mark = "FAILED: " + inv.Detail
		}
		fmt.Printf("chaos-campaign: invariant %-24s %s\n", inv.Name, mark)
	}
	if !rep.Passed {
		return fmt.Errorf("invariants violated (reproduce with -campaign-seed %d)", rep.Seed)
	}
	return nil
}

func main() {
	var (
		addr          = flag.String("addr", ":8085", "listen address")
		replicas      = flag.String("replicas", "", "comma-separated replica base URLs (required unless -selftest)")
		probeInterval = flag.Duration("probe-interval", 250*time.Millisecond, "health-probe period")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive probe failures before a replica is down")
		retryBudget   = flag.Int("retry-budget", 8, "submission/resume attempts per job")
		flightDir     = flag.String("flightrecorder-dir", "", "directory for failure post-mortem dumps (\"\" = off)")
		flightSpans   = flag.Int("flightrecorder-spans", 0, "host spans captured per flight-recorder dump (0 = 256)")
		flightMax     = flag.Int("flightrecorder-max", 0, "rotate oldest dumps past this many flight-*.json files (0 = 512)")
		flightMaxMB   = flag.Int("flightrecorder-max-bytes", 0, "rotate oldest dumps past this total byte size (0 = 256 MiB)")
		pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof on this address (\"\" = off; bind to localhost, e.g. 127.0.0.1:6060)")
		noTracing     = flag.Bool("no-tracing", false, "disable host-span tracing (on by default)")
		traceCap      = flag.Int("trace-span-cap", 0, "host-span ring capacity (0 = default)")
		selftest      = flag.Bool("selftest", false, "run the in-process kill-mid-load smoke test and exit")
		traceOut      = flag.String("trace-out", "", "selftest: write the migration probe's merged Chrome trace here")
		warmPool      = flag.Bool("warmpool", false, "selftest: run the harness replicas with snapshot-forked warm pools (jobs fork from template images copy-on-write)")

		chaosCampaign   = flag.Bool("chaos-campaign", false, "run the seeded fault-mesh chaos campaign against an in-process cluster and exit (nonzero on any invariant failure)")
		campaignSeed    = flag.Uint64("campaign-seed", 1, "chaos campaign: fault-schedule seed (same seed, same schedule)")
		campaignClients = flag.Int("campaign-clients", 0, "chaos campaign: concurrent clients (0 = 200)")
		campaignReport  = flag.String("campaign-report", "", "chaos campaign: write the JSON invariant report to this file")
	)
	flag.Parse()

	startPprof(*pprofAddr, "splitmem-gateway")

	if *chaosCampaign {
		if err := runChaosCampaign(*campaignSeed, *campaignClients, *campaignReport); err != nil {
			fmt.Fprintln(os.Stderr, "chaos-campaign:", err)
			os.Exit(1)
		}
		fmt.Println("chaos-campaign: ok")
		return
	}

	if *selftest {
		if err := runSelftest(*flightDir, *traceOut, *warmPool); err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			os.Exit(1)
		}
		fmt.Println("selftest: ok")
		return
	}

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(strings.TrimSuffix(u, "/")); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "splitmem-gateway: -replicas is required (comma-separated base URLs)")
		os.Exit(1)
	}

	gw, err := cluster.New(cluster.Config{
		Replicas:               urls,
		ProbeInterval:          *probeInterval,
		FailThreshold:          *failThreshold,
		RetryBudget:            *retryBudget,
		FlightRecorderDir:      *flightDir,
		FlightRecorderSpans:    *flightSpans,
		FlightRecorderMaxDumps: *flightMax,
		FlightRecorderMaxBytes: int64(*flightMaxMB),
		NoTracing:              *noTracing,
		TraceSpanCap:           *traceCap,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: gw.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "splitmem-gateway: draining")
		// Shutdown waits for in-flight relays: every client stream gets its
		// terminal result line before the listener closes.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
		gw.Close()
	}()

	fmt.Fprintf(os.Stderr, "splitmem-gateway: listening on %s, fronting %d replicas\n", *addr, len(urls))
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
	fmt.Fprintln(os.Stderr, "splitmem-gateway: drained")
}

// startPprof serves net/http/pprof (registered on the default mux by the
// blank import) on its own listener when addr is non-empty. Shared by the
// serve and gateway commands' documentation: bind to localhost unless the
// profiler is meant to be reachable.
func startPprof(addr, who string) {
	if addr == "" {
		return
	}
	go func() {
		fmt.Fprintf(os.Stderr, "%s: pprof on http://%s/debug/pprof/\n", who, addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof listener: %v\n", who, err)
		}
	}()
}

// selftestSpin keeps jobs in flight long enough for the mid-load kill to
// catch some (~9M cycles; the count grew when sparse-frame snapshots made
// per-slice checkpoints cheap enough to speed whole jobs up ~12x).
const selftestSpin = `
_start:
    mov ecx, 3000000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 0
    mov eax, 1
    int 0x80
`

// selftestProbeSpin is the migration probe (~100M cycles, a couple hundred
// milliseconds): long enough that draining its host catches it mid-run with
// a checkpoint to ship, sized like the spin constants in the cluster tests.
const selftestProbeSpin = `
_start:
    mov ecx, 33000000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 0
    mov eax, 1
    int 0x80
`

// runSelftest proves the cluster contract and its observability end to end
// without a network: three replicas, a forced live migration whose merged
// trace must span both hosts, 64 concurrent clients with one replica killed
// and restarted mid-load, federated metrics, and a flight-recorder dump
// for the kill.
func runSelftest(flightDir, traceOut string, warmPool bool) error {
	if flightDir == "" {
		// The flight-recorder assertion always runs; without an explicit
		// destination the dumps go somewhere disposable.
		d, err := os.MkdirTemp("", "splitmem-flight-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		flightDir = d
	}
	h, err := cluster.NewHarness(3,
		serve.Config{Workers: 4, Backlog: 128, StreamSlice: 100_000, CheckpointCycles: 250_000,
			WarmPool: warmPool},
		cluster.Config{
			ProbeInterval:     25 * time.Millisecond,
			FailThreshold:     3,
			RetryBudget:       20,
			RetryBackoff:      10 * time.Millisecond,
			MaxRetryDelay:     250 * time.Millisecond,
			FlightRecorderDir: flightDir,
		})
	if err != nil {
		return err
	}
	defer h.Close()

	if err := checkHealthz(h.URL()); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if err := migrationTraceProbe(h, traceOut); err != nil {
		return fmt.Errorf("migration trace: %w", err)
	}

	type loadDone struct {
		rep *loadtest.Report
		err error
	}
	lch := make(chan loadDone, 1)
	go func() {
		rep, err := loadtest.Run(loadtest.Config{
			BaseURL:    h.URL(),
			Clients:    64,
			Jobs:       2,
			Stream:     true,
			Retry503:   true,
			MaxRetries: 500,
			RetryDelay: 10 * time.Millisecond,
			Body: func(c, j int) ([]byte, error) {
				if c%4 == 0 {
					return json.Marshal(map[string]any{
						"name":       fmt.Sprintf("selftest-c%d-j%d", c, j),
						"source":     selftestSpin,
						"timeout_ms": 60000,
					})
				}
				return loadtest.DefaultJobBody(c, j)
			},
		})
		lch <- loadDone{rep, err}
	}()

	// The hard fault: a crash, not a drain. In-flight jobs on the killed
	// replica lose their streams mid-run and must be recovered elsewhere.
	time.Sleep(250 * time.Millisecond)
	fmt.Println("selftest: killing replica 1 mid-load")
	h.Nodes[1].Kill()
	time.Sleep(500 * time.Millisecond)
	if err := h.Nodes[1].Restart(); err != nil {
		return err
	}
	fmt.Println("selftest: replica 1 restarted")

	ld := <-lch
	if ld.err != nil {
		return ld.err
	}
	rep := ld.rep
	fmt.Println(rep)
	fmt.Printf("selftest: gateway: %d migrations, %d scratch resumes, %d corrupt fetches, %d flight dumps\n",
		h.Gateway.Migrations(), h.Gateway.ScratchResumes(), h.Gateway.CorruptFetches(), h.Gateway.FlightDumps())
	if rep.Lost() != 0 || rep.GaveUp > 0 || len(rep.Failures) > 0 {
		return fmt.Errorf("cluster contract violated: %d lost, %d gave up, %d failures",
			rep.Lost(), rep.GaveUp, len(rep.Failures))
	}
	if got := rep.Clients * rep.Jobs; rep.Completed != got {
		return fmt.Errorf("completed %d of %d jobs", rep.Completed, got)
	}

	if err := checkFederatedMetrics(h.URL()); err != nil {
		return fmt.Errorf("federated metrics: %w", err)
	}
	dumps, err := flightFiles(flightDir)
	if err != nil {
		return err
	}
	if len(dumps) == 0 {
		return fmt.Errorf("killed a replica but the flight recorder wrote nothing to %s", flightDir)
	}
	fmt.Printf("selftest: flight recorder: %d dumps in %s (first: %s)\n", len(dumps), flightDir, dumps[0])
	return nil
}

// checkHealthz requires the gateway /healthz to advertise build info and a
// positive uptime.
func checkHealthz(baseURL string) error {
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var h struct {
		Build struct {
			Version string `json:"version"`
			Go      string `json:"go"`
		} `json:"build"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return err
	}
	if h.Build.Go == "" {
		return fmt.Errorf("no build.go in healthz")
	}
	if h.UptimeSeconds < 0 {
		return fmt.Errorf("negative uptime %v", h.UptimeSeconds)
	}
	fmt.Printf("selftest: healthz: build %s/%s, uptime %.3fs\n", h.Build.Version, h.Build.Go, h.UptimeSeconds)
	return nil
}

// migrationTraceProbe streams one long job, drains its host mid-run to
// force a live migration, and requires the merged trace to show the
// gateway plus BOTH replicas under the job's single trace ID with a
// gw.migrate span. With traceOut set, the Chrome-format timeline is
// written there.
func migrationTraceProbe(h *cluster.Harness, traceOut string) error {
	body, err := json.Marshal(map[string]any{
		"name": "trace-probe", "source": selftestProbeSpin, "timeout_ms": 120000,
	})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.URL()+"/v1/jobs?stream=1", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	trace := resp.Header.Get("X-Splitmem-Trace")
	if trace == "" {
		return fmt.Errorf("gateway response carries no X-Splitmem-Trace header")
	}

	dec := json.NewDecoder(resp.Body)
	var acc struct {
		Type string `json:"type"`
		ID   uint64 `json:"id"`
	}
	if err := dec.Decode(&acc); err != nil || acc.Type != "accepted" {
		return fmt.Errorf("bad accepted frame (%v)", err)
	}
	owner := -1
	deadline := time.Now().Add(10 * time.Second)
	for owner < 0 && time.Now().Before(deadline) {
		owner = h.Gateway.OwnerIndex(acc.ID)
		if owner < 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if owner < 0 {
		return fmt.Errorf("probe job never got an owner")
	}
	h.Nodes[owner].Drain()
	for {
		var frame struct {
			Type   string `json:"type"`
			Result *struct {
				Reason string `json:"reason"`
			} `json:"result"`
		}
		if err := dec.Decode(&frame); err != nil {
			return fmt.Errorf("stream ended without a result: %v", err)
		}
		if frame.Type == "result" {
			if frame.Result == nil || frame.Result.Reason != "all-done" {
				return fmt.Errorf("probe result not all-done")
			}
			break
		}
	}
	if h.Gateway.Migrations() == 0 {
		return fmt.Errorf("probe job finished without migrating")
	}

	// Fetch the merged trace while the drained server still holds its span
	// ring — a drain keeps the process (and its forensics) alive; only the
	// restart below discards them.
	tr, err := http.Get(h.URL() + "/v1/traces/" + trace)
	if err != nil {
		return err
	}
	defer tr.Body.Close()
	var doc struct {
		Trace string   `json:"trace"`
		Procs []string `json:"procs"`
		Spans []struct {
			Name string `json:"name"`
			Proc string `json:"proc"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&doc); err != nil {
		return err
	}
	var gwProcs, repProcs int
	for _, p := range doc.Procs {
		switch {
		case strings.HasPrefix(p, "gateway:"):
			gwProcs++
		case strings.HasPrefix(p, "replica:"):
			repProcs++
		}
	}
	if gwProcs == 0 || repProcs < 2 {
		return fmt.Errorf("merged trace has procs %v; want the gateway and both replicas", doc.Procs)
	}
	var sawMigrate bool
	for _, s := range doc.Spans {
		if s.Name == "gw.migrate" {
			sawMigrate = true
		}
	}
	if !sawMigrate {
		return fmt.Errorf("merged trace has no gw.migrate span")
	}
	fmt.Printf("selftest: trace %s: %d spans across %d processes, migration recorded\n",
		trace, len(doc.Spans), len(doc.Procs))

	if traceOut != "" {
		cr, err := http.Get(h.URL() + "/v1/traces/" + trace + "?format=chrome")
		if err != nil {
			return err
		}
		defer cr.Body.Close()
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if _, err := f.ReadFrom(cr.Body); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("selftest: merged Chrome trace written to %s (open in chrome://tracing)\n", traceOut)
	}

	// Put the drained node back so the load phase has three live replicas.
	if err := h.Nodes[owner].Restart(); err != nil {
		return err
	}
	h.AwaitState(owner, cluster.StateUp, 10*time.Second)
	return nil
}

// checkFederatedMetrics requires the gateway /metrics to be a merged
// exposition carrying the gateway's own instruments plus replica series
// under stable replica labels.
func checkFederatedMetrics(baseURL string) error {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	text := string(raw)
	for _, want := range []string{
		"splitmem_gateway_jobs_accepted_total",
		`replica="r0"`,
		`replica="r1"`,
		`replica="r2"`,
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("federated exposition missing %q", want)
		}
	}
	fmt.Println("selftest: federated /metrics carries gateway instruments and all three replica labels")
	return nil
}

// flightFiles lists the flight-recorder dumps in dir.
func flightFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "flight-") && strings.HasSuffix(e.Name(), ".json") {
			out = append(out, e.Name())
		}
	}
	return out, nil
}
