package cluster

// Tests for the cluster observability tier: healthz build/uptime fields,
// the federated Prometheus exposition (validity, stable replica labels
// across a rolling restart, no duplicated series), the merged distributed
// trace of a live-migrated job, retry-reason annotations, the failure
// flight recorder under chaos-injected checkpoint corruption, and the
// wall-clock guard on what host-span tracing costs.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"splitmem/internal/faultmesh"
	"splitmem/internal/serve"
	"splitmem/internal/serve/loadtest"
	"splitmem/internal/telemetry/hostspan"
)

// scrape GETs a /metrics endpoint and returns its text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET %s: content-type %q", url, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sampleLine matches one valid exposition sample: name, optional {labels},
// a space, and a value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// checkExposition requires every non-comment line of text to be a valid
// sample and returns them.
func checkExposition(t *testing.T, text string) []string {
	t.Helper()
	var samples []string
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		samples = append(samples, line)
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	return samples
}

// seriesKey strips the value off a sample line: the series identity.
func seriesKey(sample string) string {
	if i := strings.LastIndexByte(sample, ' '); i >= 0 {
		return sample[:i]
	}
	return sample
}

// replicaLabels returns the set of replica="..." values present in samples.
func replicaLabels(samples []string) map[string]bool {
	re := regexp.MustCompile(`replica="([^"]*)"`)
	out := map[string]bool{}
	for _, s := range samples {
		if m := re.FindStringSubmatch(s); m != nil {
			out[m[1]] = true
		}
	}
	return out
}

// runOneJob streams one trivial job through the gateway to completion.
func runOneJob(t *testing.T, baseURL, name string) {
	t.Helper()
	resp := postJob(t, baseURL+"/v1/jobs?stream=1", map[string]any{
		"name": name, "source": exitSrc, "timeout_ms": 30000,
	})
	defer resp.Body.Close()
	lines := readLines(t, resp.Body)
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Result == nil || last.Result.Reason != "all-done" {
		t.Fatalf("job %s: terminal %+v", name, last)
	}
}

func TestHealthzBuildAndUptime(t *testing.T) {
	h, err := NewHarness(2, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Both tiers must identify themselves the same way.
	for _, url := range []string{h.URL(), h.Nodes[0].URL()} {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Build struct {
				Version string `json:"version"`
				Go      string `json:"go"`
			} `json:"build"`
			UptimeSeconds *float64 `json:"uptime_seconds"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if body.Build.Go == "" {
			t.Errorf("%s/healthz: missing build.go", url)
		}
		if body.Build.Version == "" {
			t.Errorf("%s/healthz: missing build.version", url)
		}
		if body.UptimeSeconds == nil || *body.UptimeSeconds < 0 {
			t.Errorf("%s/healthz: bad uptime_seconds %v", url, body.UptimeSeconds)
		}
	}
}

func TestFederatedMetricsExposition(t *testing.T) {
	h, err := NewHarness(2, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	runOneJob(t, h.URL(), "fed-probe")

	samples := checkExposition(t, scrape(t, h.URL()+"/metrics"))
	text := strings.Join(samples, "\n")
	for _, want := range []string{
		"splitmem_gateway_jobs_accepted_total",
		"splitmem_gateway_probe_rtt_us",
		`splitmem_serve_jobs_accepted_total{replica="r0"}`,
		`splitmem_serve_jobs_accepted_total{replica="r1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("federated exposition missing %q", want)
		}
	}
	labels := replicaLabels(samples)
	if !labels["r0"] || !labels["r1"] || len(labels) != 2 {
		t.Errorf("replica labels %v, want exactly {r0 r1}", labels)
	}

	// Each series appears exactly once: federation must not double-count.
	seen := map[string]bool{}
	for _, s := range samples {
		k := seriesKey(s)
		if seen[k] {
			t.Errorf("duplicated series %q", k)
		}
		seen[k] = true
	}
}

func TestFederationStableAcrossRollingRestart(t *testing.T) {
	h, err := NewHarness(2, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	runOneJob(t, h.URL(), "restart-probe-before")

	before := checkExposition(t, scrape(t, h.URL()+"/metrics"))
	if labels := replicaLabels(before); !labels["r0"] || !labels["r1"] {
		t.Fatalf("labels before restart: %v", labels)
	}

	if err := h.RollingRestart(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	runOneJob(t, h.URL(), "restart-probe-after")

	after := checkExposition(t, scrape(t, h.URL()+"/metrics"))
	labels := replicaLabels(after)
	if !labels["r0"] || !labels["r1"] || len(labels) != 2 {
		t.Errorf("labels after restart %v, want exactly {r0 r1}: the replica label is the slot, not the process", labels)
	}
	seen := map[string]bool{}
	for _, s := range after {
		k := seriesKey(s)
		if seen[k] {
			t.Errorf("duplicated series after restart: %q", k)
		}
		seen[k] = true
	}
}

// drainOwnerMigrate posts a streamed job, drains its owner mid-run, and
// returns the trace header and streamed lines once the run has exercised a
// migration. Fast hosts can retire the whole job before the drain lands; such
// attempts are discarded (the drained node is restarted, a fresh job goes in)
// so the test checks the migration path instead of racing it. progressed
// reports whether the migration machinery fired, from a gateway counter
// sampled before the attempt.
func drainOwnerMigrate(t *testing.T, h *Harness, name string, counter func() uint64) (trace string, owner int) {
	t.Helper()
	for attempt := 0; attempt < 8; attempt++ {
		before := counter()
		resp := postJob(t, h.URL()+"/v1/jobs?stream=1", map[string]any{
			"name": fmt.Sprintf("%s-%d", name, attempt), "source": longSpin, "timeout_ms": 30000,
		})
		trace = resp.Header.Get(hostspan.TraceHeader)
		br := bufio.NewReader(resp.Body)
		first, _ := br.ReadString('\n')
		var acc gwLine
		json.Unmarshal([]byte(first), &acc)
		if acc.Type != "accepted" {
			resp.Body.Close()
			t.Fatalf("first line %q", first)
		}
		owner = awaitOwnerIdx(t, h, 5*time.Second)
		h.Nodes[owner].Drain()
		lines := readLines(t, br)
		resp.Body.Close()
		last := lines[len(lines)-1]
		if last.Type != "result" || last.Result == nil || last.Result.Reason != "all-done" {
			t.Fatalf("terminal %+v", last)
		}
		if counter() > before {
			return trace, owner
		}
		if err := h.Nodes[owner].Restart(); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("job finished before the drain landed in every attempt")
	return "", -1
}

// TestTraceMigratedJob is the tracing acceptance check: a job live-migrated
// mid-run exports ONE merged trace — gateway admit/route spans plus spans
// from BOTH replicas under the same trace ID, with the migration and
// stream-stitch in causal order — and the Chrome export carries all three
// process tracks.
func TestTraceMigratedJob(t *testing.T) {
	h, err := NewHarness(2, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	trace, _ := drainOwnerMigrate(t, h, "trace-migrate", h.Gateway.Migrations)
	if trace == "" {
		t.Fatal("no trace header on the gateway response")
	}

	tr, err := http.Get(h.URL() + "/v1/traces/" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var doc hostspan.TraceDoc
	if err := json.NewDecoder(tr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trace != trace {
		t.Fatalf("doc trace %q, want %q", doc.Trace, trace)
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
	if gwProcs != 1 || repProcs != 2 {
		t.Fatalf("procs %v: want one gateway and both replicas", doc.Procs)
	}

	byName := map[string][]hostspan.Span{}
	for _, s := range doc.Spans {
		if s.Trace != trace {
			t.Fatalf("span %s carries trace %q, want %q", s.Name, s.Trace, trace)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	// Every gateway hop — the first included — goes through the keyed
	// resume path, so the replica-side admission span is rep.resume.
	for _, want := range []string{"gw.admit", "gw.job", "gw.route", "gw.relay", "gw.migrate", "gw.stitch", "rep.resume", "rep.run", "rep.checkpoint-export"} {
		if len(byName[want]) == 0 {
			t.Errorf("merged trace missing %s span", want)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	// Causal order: the migration opens before the stitched stream resumes,
	// and the destination replica's resume sits between them. Spans arrive
	// sorted by start, and hop 0 is itself a keyed resume — the migration's
	// resume is the last one.
	resumes := byName["rep.resume"]
	mig, stitch, resume := byName["gw.migrate"][0], byName["gw.stitch"][0], resumes[len(resumes)-1]
	if !mig.Start.Before(stitch.Start) && !mig.Start.Equal(stitch.Start) {
		t.Errorf("gw.migrate starts %v after gw.stitch %v", mig.Start, stitch.Start)
	}
	if resume.Start.Before(mig.Start) {
		t.Errorf("rep.resume at %v predates the migration start %v", resume.Start, mig.Start)
	}
	if mig.Attrs["to"] == "" {
		t.Errorf("gw.migrate closed without a destination: %v", mig.Attrs)
	}

	// The Chrome export must carry one track per process.
	cr, err := http.Get(h.URL() + "/v1/traces/" + trace + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(cr.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	var procNames int
	for _, e := range chrome.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procNames++
		}
	}
	if procNames != 3 {
		t.Errorf("chrome export has %d process_name tracks, want 3", procNames)
	}
}

// TestRetryReasonRecorded drives the gateway through shed-retry cycles
// against a deliberately tiny replica and requires (a) the per-reason
// retry counter in /metrics and (b) per-attempt span annotations naming
// the replica and reason.
func TestRetryReasonRecorded(t *testing.T) {
	rcfg := fastCfg()
	rcfg.Workers = 1
	rcfg.Backlog = 1
	gcfg := fastGW()
	gcfg.RetryBudget = 50
	h, err := NewHarness(1, rcfg, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	body, err := json.Marshal(map[string]any{
		"name": "shed", "source": longSpin, "timeout_ms": 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clients retry until the job is admitted, however long that takes:
	// each admitted job frees the one worker for the next, so progress,
	// not a count of attempts, bounds the loop. Only the test deadline
	// ends it, which keeps the test independent of host speed (the race
	// detector slows every job several-fold).
	deadline := time.Now().Add(5 * time.Minute)
	if d, ok := t.Deadline(); ok {
		deadline = d.Add(-10 * time.Second)
	}
	done := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func() {
			// The tiny replica sheds under this load; the gateway retries
			// acknowledged streams itself, but pre-ack rejections surface as
			// 429/503 and are the client's to retry.
			for time.Now().Before(deadline) {
				resp, err := http.Post(h.URL()+"/v1/jobs?stream=1", "application/json", strings.NewReader(string(body)))
				if err != nil {
					done <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					wait := 20 * time.Millisecond
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
						wait = time.Duration(ra) * time.Second
					}
					time.Sleep(wait)
					continue
				}
				var last gwLine
				dec := json.NewDecoder(resp.Body)
				for {
					var l gwLine
					if derr := dec.Decode(&l); derr != nil {
						break
					}
					last = l
				}
				resp.Body.Close()
				if last.Type != "result" || last.Result == nil || last.Result.Reason != "all-done" {
					done <- fmt.Errorf("terminal %+v", last)
					return
				}
				done <- nil
				return
			}
			done <- fmt.Errorf("never admitted before the test deadline")
		}()
	}
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	text := scrape(t, h.URL()+"/metrics")
	if !strings.Contains(text, `splitmem_gateway_retries_total{reason="rejected"}`) {
		t.Errorf("no rejected-reason retry counter in:\n%s", text)
	}
	var annotated bool
	for _, s := range h.Gateway.rec.Tail(hostspan.DefaultCap) {
		if s.Name == "gw.shed-retry" && s.Attrs["reason"] != "" && s.Attrs["replica"] != "" {
			annotated = true
			break
		}
	}
	if !annotated {
		t.Error("no gw.shed-retry span annotated with reason and replica")
	}
}

// TestFlightRecorderCRCDump is the flight-recorder acceptance check: with
// chaos corrupting every checkpoint transfer, a forced migration must
// leave a post-mortem dump that names the failing replica and checkpoint.
func TestFlightRecorderCRCDump(t *testing.T) {
	dir := t.TempDir()
	gcfg := fastGW()
	gcfg.Faults = faultmesh.New(faultmesh.Config{Seed: 1, CheckpointCorrupt: 1.0})
	gcfg.FlightRecorderDir = dir
	h, err := NewHarness(2, fastCfg(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	_, owner := drainOwnerMigrate(t, h, "crc-crash", h.Gateway.CorruptFetches)
	if h.Gateway.CorruptFetches() == 0 {
		t.Fatal("CRC gate never fired despite 100% corruption")
	}
	if h.Gateway.FlightDumps() == 0 {
		t.Fatal("CRC mismatch left no flight-recorder dump")
	}

	matches, err := filepath.Glob(filepath.Join(dir, "flight-*-checkpoint-crc-mismatch.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no checkpoint-crc-mismatch dump in %s (err %v)", dir, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason string `json:"reason"`
		Detail struct {
			Replica    string `json:"replica"`
			Checkpoint string `json:"checkpoint"`
			Error      string `json:"error"`
		} `json:"detail"`
		Replicas []json.RawMessage `json:"replicas"`
		Spans    []hostspan.Span   `json:"spans"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump %s: %v", matches[0], err)
	}
	if dump.Reason != "checkpoint-crc-mismatch" {
		t.Errorf("dump reason %q", dump.Reason)
	}
	if dump.Detail.Replica != h.Nodes[owner].URL() {
		t.Errorf("dump names replica %q, want the drained owner %q", dump.Detail.Replica, h.Nodes[owner].URL())
	}
	if dump.Detail.Checkpoint == "" {
		t.Error("dump does not identify the checkpoint")
	}
	if len(dump.Replicas) != 2 {
		t.Errorf("dump carries %d replica views, want 2", len(dump.Replicas))
	}
	if len(dump.Spans) == 0 {
		t.Error("dump carries no span tail")
	}
}

// traceGuardSpin keeps in-flight work on every replica under the tracing
// guard's load (~1.2M cycles).
const traceGuardSpin = `
_start:
    mov ecx, 400000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 0
    mov eax, 1
    int 0x80
`

// tracedThroughput runs one steady-state load (64 streaming clients x 2
// jobs, every 4th client a traceGuardSpin) through a fresh three-replica
// harness and returns its completed jobs per second.
func tracedThroughput(t *testing.T, noTracing bool) float64 {
	t.Helper()
	rcfg := serve.Config{Workers: 4, Backlog: 128, StreamSlice: 100_000, CheckpointCycles: 250_000, NoTracing: noTracing}
	gcfg := Config{
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 3,
		RetryBudget:   20,
		RetryBackoff:  10 * time.Millisecond,
		MaxRetryDelay: 250 * time.Millisecond,
		NoTracing:     noTracing,
	}
	h, err := NewHarness(3, rcfg, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
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
					"name":       fmt.Sprintf("trace-bench-c%d-j%d", c, j),
					"source":     traceGuardSpin,
					"timeout_ms": 60000,
				})
			}
			return loadtest.DefaultJobBody(c, j)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lost() != 0 || rep.GaveUp > 0 || len(rep.Failures) > 0 {
		t.Fatalf("cluster contract violated (noTracing=%v): %v", noTracing, rep)
	}
	return rep.JobsPerSec
}

// TestTracingOverheadGuard holds the claim that host-span tracing (on by
// default) is effectively free: the same steady-state cluster load must
// reach at least 95% of its untraced throughput. Wall-clock based, so it
// runs only with SPLITMEM_CLUSTER_TRACE_GUARD=1. Each arm takes its best
// of 2 runs, off and on interleaved: interleaving cancels slow drift, and
// the best run discards one-off stalls of a shared host.
func TestTracingOverheadGuard(t *testing.T) {
	if os.Getenv("SPLITMEM_CLUSTER_TRACE_GUARD") != "1" {
		t.Skip("set SPLITMEM_CLUSTER_TRACE_GUARD=1 to run the wall-clock guard")
	}
	var off, on float64
	for trial := 0; trial < 2; trial++ {
		off = max(off, tracedThroughput(t, true))
		on = max(on, tracedThroughput(t, false))
	}
	ratio := on / off
	t.Logf("tracing off %.1f jobs/s, on %.1f jobs/s, traced/untraced %.3f", off, on, ratio)
	if ratio < 0.95 {
		t.Fatalf("traced throughput %.1f jobs/s is %.1f%% of untraced %.1f jobs/s (floor 95%%)",
			on, 100*ratio, off)
	}
}
