// Package campaign is the chaos campaign: the capstone runner that drives
// a full in-process cluster — gateway, replicas, journals — through a
// seeded storm of host faults from one faultmesh.Plane (transport faults
// on the gateway's backend client, disk faults under every replica
// journal) and seeded drain/kill/restart rounds, then checks the global
// invariants the service contract promises to keep under ALL of it:
//
//  1. zero acknowledged-then-lost jobs and no stream framing violations,
//  2. no duplicate results — every job exactly one terminal line,
//  3. every injection detection delivered exactly once per victim job,
//  4. every result and event stream oracle-identical to a fault-free run,
//  5. all circuit breakers re-close once the faults stop,
//  6. every degraded journal recovers once the disk heals,
//  7. an expired propagated deadline is refused with 504,
//  8. the campaign actually injected faults (a quiet run proves nothing).
//
// The same seed replays the same fault schedule: every random choice —
// transport draws, disk draws, conductor actions — comes from the plane's
// seeded splitmix64 streams.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"splitmem/internal/cluster"
	"splitmem/internal/faultmesh"
	"splitmem/internal/serve"
	"splitmem/internal/serve/loadtest"
)

// campaignVictim is the paper's quickstart program: read attacker bytes
// onto the stack and jump into them. Under the split-memory architecture
// the jump is detected (injected bytes have no instruction-memory
// counterpart), so every run streams exactly one injection-detected
// event — the campaign's exactly-once delivery marker.
const campaignVictim = `
_start:
    sub esp, 1024
    mov ecx, esp
    mov ebx, 0
    mov edx, 1024
    mov eax, 3          ; read(0, buffer, 1024)
    int 0x80
    jmp ecx
`

// campaignSpin burns ~3.6M cycles across many stream slices and
// checkpoints, then exits 5 — the migration material: long enough to be
// mid-flight when its replica is drained, killed, or partitioned away.
const campaignSpin = `
_start:
    mov ecx, 1200000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 5
    mov eax, 1
    int 0x80
`

// Config shapes one chaos campaign.
type Config struct {
	Seed     uint64
	Replicas int // cluster size (default 3)
	Clients  int // concurrent clients (default 200)
	Jobs     int // jobs per client (default 2: one victim, one spin)

	// MaxWall bounds the hostile load phase; exceeding it is itself a
	// campaign failure (a wedged cluster is a lost-jobs bug with extra
	// steps). Default 4m.
	MaxWall time.Duration

	// JournalDir holds the replica journals ("" = a fresh temp dir,
	// removed afterward).
	JournalDir string
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Clients <= 0 {
		c.Clients = 200
	}
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.MaxWall <= 0 {
		c.MaxWall = 4 * time.Minute
	}
	return c
}

// faults is the campaign's storm: transport faults between the gateway and
// its replicas, disk faults under every journal. Body corruption is
// confined to checkpoint fetches, where the image CRC catches every flip,
// so every acknowledged job can still be held to its oracle.
func faults(seed uint64) faultmesh.Config {
	return faultmesh.Config{
		Seed:          seed,
		Latency:       0.05,
		Reset:         0.02,
		ResetMid:      0.01,
		Partition:     0.01,
		PartitionLen:  5,
		Asymmetric:    0.3,
		SlowLoris:     0.02,
		Truncate:      0.01,
		CorruptHeader: 0.01,
		Corrupt:       0.05,
		CorruptPaths:  []string{"/checkpoint"},
		ENOSPC:        0.05,
		ENOSPCBurst:   8,
		ShortWrite:    0.02,
		SyncFail:      0.02,
		ReadCorrupt:   0.001,
	}
}

// Invariant is one checked campaign invariant.
type Invariant struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail,omitempty"`
}

// Report is the campaign's machine-readable outcome (the CI artifact).
type Report struct {
	Seed     uint64 `json:"seed"`
	Replicas int    `json:"replicas"`
	Clients  int    `json:"clients"`
	Jobs     int    `json:"jobs_per_client"`

	Passed     bool        `json:"passed"`
	Invariants []Invariant `json:"invariants"`

	Load *loadtest.Report `json:"load,omitempty"`

	// Stats counts what the fault plane injected, one JSON key per class:
	// process_faults, gateway_faults, mesh_faults, disk_faults.
	faultmesh.Stats

	// Healthz is the gateway's /healthz document after quiesce: breaker
	// states, migration/hedge/deadline counters, per-replica views.
	Healthz json.RawMessage `json:"gateway,omitempty"`

	Wall time.Duration `json:"wall_ns"`
}

// check appends one invariant result.
func (r *Report) check(name string, passed bool, format string, args ...any) {
	detail := ""
	if !passed {
		detail = fmt.Sprintf(format, args...)
	}
	r.Invariants = append(r.Invariants, Invariant{Name: name, Passed: passed, Detail: detail})
	if !passed {
		r.Passed = false
	}
}

// WriteJSON renders the report (indented) to w.
func (r *Report) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// jobClass names a workload class and its oracle.
type jobClass struct {
	name       string
	source     string
	stdinText  string
	detections int // expected injection detections per run

	events [][]byte         // fault-free oracle event objects
	result *serve.JobResult // fault-free oracle result
}

// classOf maps (client, job) onto a class: even slots are victims, odd
// slots are spins, so every client exercises both detection delivery and
// migration material.
func classOf(classes []*jobClass, c, j int) *jobClass {
	return classes[(c+j)%len(classes)]
}

// jobRecord accumulates what one (client, job) slot actually received.
type jobRecord struct {
	events  [][]byte
	results []*serve.JobResult
	rawRes  [][]byte
}

// Run executes one chaos campaign and returns its report. The returned
// error covers harness setup failures only; invariant violations land in
// the report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed, Replicas: cfg.Replicas, Clients: cfg.Clients,
		Jobs: cfg.Jobs, Passed: true}
	start := time.Now()
	defer func() { rep.Wall = time.Since(start) }()

	dir := cfg.JournalDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "chaos-campaign-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	// Phase 0: fault-free oracles, one standalone replica per class.
	// Every job of a class shares one submission name: the name is embedded
	// in the event stream (the start event's proc/text fields), so per-slot
	// names would make every stream trivially differ from its oracle.
	classes := []*jobClass{
		{name: "chaos-victim", source: campaignVictim, stdinText: "\x90\x90\x90\x90", detections: 1},
		{name: "chaos-spin", source: campaignSpin},
	}
	for _, cl := range classes {
		if err := runOracle(cl); err != nil {
			return nil, fmt.Errorf("oracle %s: %w", cl.name, err)
		}
	}

	// Phase 1: boot the hostile cluster. One plane faults the wires
	// between gateway and replicas and the disk under every journal.
	plane := faultmesh.New(faults(cfg.Seed))
	rcfg := func(i int) serve.Config {
		return serve.Config{
			Workers:                 4,
			Backlog:                 512,
			StreamSlice:             25_000,
			CheckpointCycles:        25_000,
			JournalPath:             filepath.Join(dir, fmt.Sprintf("replica-%d.journal", i)),
			Faults:                  plane,
			JournalRecoveryInterval: 50 * time.Millisecond,
		}
	}
	h, err := cluster.NewHarnessFunc(cfg.Replicas, rcfg, cluster.Config{
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 3,
		// The campaign's contract is oracle-identical results for every
		// acked job, so a synthesized failed-after-retries is an invariant
		// violation, not an acceptable outcome: the budget must outlast the
		// storm (a single asymmetric partition window burns ~5 attempts on
		// the unknown-admission path alone).
		RetryBudget:      120,
		RetryBackoff:     10 * time.Millisecond,
		MaxRetryDelay:    250 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  250 * time.Millisecond,
		HedgeDelay:       75 * time.Millisecond,
		Faults:           plane,
		NoTracing:        true,
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()

	// Phase 2: the storm. A seeded conductor drains/kills/restarts
	// replicas while the clients hammer the gateway.
	var (
		recMu   sync.Mutex
		records = map[[2]int]*jobRecord{}
	)
	record := func(c, j int) *jobRecord {
		key := [2]int{c, j}
		r := records[key]
		if r == nil {
			r = &jobRecord{}
			records[key] = r
		}
		return r
	}
	stopConductor := make(chan struct{})
	conductorDone := make(chan struct{})
	go runConductor(plane, h, stopConductor, conductorDone)

	loadDone := make(chan struct{})
	var load *loadtest.Report
	var loadErr error
	go func() {
		defer close(loadDone)
		load, loadErr = loadtest.Run(loadtest.Config{
			BaseURL:    h.URL(),
			Clients:    cfg.Clients,
			Jobs:       cfg.Jobs,
			Stream:     true,
			Seed:       cfg.Seed,
			Retry503:   true,
			MaxRetries: 400,
			Body: func(c, j int) ([]byte, error) {
				cl := classOf(classes, c, j)
				return json.Marshal(map[string]any{
					"name":       cl.name,
					"source":     cl.source,
					"stdin_text": cl.stdinText,
					"timeout_ms": 30000,
				})
			},
			OnEvent: func(c, j int, line []byte) {
				var frame struct {
					Event json.RawMessage `json:"event"`
				}
				if json.Unmarshal(line, &frame) != nil {
					return
				}
				recMu.Lock()
				record(c, j).events = append(record(c, j).events, frame.Event)
				recMu.Unlock()
			},
			OnResult: func(c, j int, raw []byte) {
				var res serve.JobResult
				if json.Unmarshal(raw, &res) != nil {
					return
				}
				recMu.Lock()
				r := record(c, j)
				r.results = append(r.results, &res)
				r.rawRes = append(r.rawRes, append([]byte(nil), raw...))
				recMu.Unlock()
			},
		})
	}()
	select {
	case <-loadDone:
	case <-time.After(cfg.MaxWall):
		close(stopConductor)
		<-conductorDone
		rep.check("campaign-wall", false, "load phase exceeded MaxWall %v", cfg.MaxWall)
		rep.Stats = plane.Stats()
		return rep, nil
	}
	close(stopConductor)
	<-conductorDone
	if loadErr != nil {
		return nil, loadErr
	}
	rep.Load = load

	// Phase 3: quiesce. The faults stop; the cluster must heal on its own.
	plane.Quiesce()
	for i, n := range h.Nodes {
		if n.Server() == nil {
			if err := restartWithRetry(n); err != nil {
				rep.check("replica-restart", false, "replica %d never restarted post-quiesce: %v", i, err)
			}
		}
	}

	// Invariant 1+2: nothing acknowledged was lost, nothing duplicated.
	rep.check("zero-lost", load.Lost() == 0 && len(load.Failures) == 0 && load.GaveUp == 0,
		"lost=%d gaveUp=%d failures=%v", load.Lost(), load.GaveUp, load.Failures)
	dups, missing := 0, 0
	for c := 0; c < cfg.Clients; c++ {
		for j := 0; j < cfg.Jobs; j++ {
			recMu.Lock()
			r := records[[2]int{c, j}]
			recMu.Unlock()
			switch {
			case r == nil || len(r.results) == 0:
				missing++
			case len(r.results) > 1:
				dups++
			}
		}
	}
	rep.check("exactly-one-result", dups == 0 && missing == 0,
		"%d slots with duplicate results, %d with none (of %d)", dups, missing, cfg.Clients*cfg.Jobs)

	// Invariant 3+4: exactly-once detection delivery and oracle identity.
	badDetect, badOracle := "", ""
	for c := 0; c < cfg.Clients && (badDetect == "" || badOracle == ""); c++ {
		for j := 0; j < cfg.Jobs; j++ {
			recMu.Lock()
			r := records[[2]int{c, j}]
			recMu.Unlock()
			if r == nil || len(r.results) != 1 {
				continue // already counted above
			}
			cl := classOf(classes, c, j)
			if d := countDetections(r.events); badDetect == "" &&
				(d != cl.detections || r.results[0].Detections != cl.detections) {
				badDetect = fmt.Sprintf("c%d j%d (%s): %d detection events, result.Detections=%d, want %d (reason=%q error=%q)",
					c, j, cl.name, d, r.results[0].Detections, cl.detections,
					r.results[0].Reason, r.results[0].Error)
			}
			if badOracle == "" {
				if diff := diffOracle(cl, r); diff != "" {
					badOracle = fmt.Sprintf("c%d j%d (%s): %s", c, j, cl.name, diff)
				}
			}
		}
	}
	rep.check("exactly-once-detection", badDetect == "", "%s", badDetect)
	rep.check("oracle-identical", badOracle == "", "%s", badOracle)

	// Invariant 5: every breaker re-closes once the faults stop.
	breakerOK := awaitAll(10*time.Second, func() (bool, string) {
		for i, r := range h.Gateway.Replicas() {
			if r.State() != cluster.StateUp || r.Breaker() != "closed" {
				return false, fmt.Sprintf("replica %d: state=%s breaker=%s", i, r.State(), r.Breaker())
			}
		}
		return true, ""
	})
	rep.check("breakers-reclose", breakerOK == "", "%s", breakerOK)

	// Invariant 6: degraded journals recover. The mini-load gives every
	// replica fresh persists (recovery is attempted on the write path).
	mini, err := loadtest.Run(loadtest.Config{
		BaseURL: h.URL(), Clients: 4, Jobs: 3, Stream: true, Retry503: true, Seed: cfg.Seed + 1,
		Body: func(c, j int) ([]byte, error) {
			return json.Marshal(map[string]any{
				"name": fmt.Sprintf("heal-c%d-j%d", c, j), "source": campaignVictim,
				"stdin_text": "\x90\x90\x90\x90", "timeout_ms": 30000,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	rep.check("heal-load", mini.Lost() == 0 && len(mini.Failures) == 0,
		"post-quiesce mini-load: lost=%d failures=%v", mini.Lost(), mini.Failures)
	journalOK := awaitAll(10*time.Second, func() (bool, string) {
		for i, n := range h.Nodes {
			srv := n.Server()
			if srv == nil {
				return false, fmt.Sprintf("replica %d: no server", i)
			}
			if srv.JournalDegraded() {
				return false, fmt.Sprintf("replica %d: journal still degraded", i)
			}
		}
		return true, ""
	})
	rep.check("journals-recover", journalOK == "", "%s", journalOK)

	// Invariant 7: an expired propagated deadline is a 504 at the door.
	status, kind := postExpiredDeadline(h.URL())
	rep.check("deadline-enforced", status == http.StatusGatewayTimeout && kind == "deadline-exceeded",
		"expired-deadline POST: status=%d error=%q, want 504 deadline-exceeded", status, kind)

	// Invariant 8: the campaign was actually hostile.
	// Every mesh counter counts injected faults, so any nonzero one means
	// the transport storm landed.
	rep.Stats = plane.Stats()
	meshHit := rep.Mesh != (faultmesh.Stats{}).Mesh
	df := rep.Disk
	rep.check("faults-injected", meshHit && df.ENOSPCs+df.ShortWrites+df.SyncFails > 0,
		"mesh faults=%+v disk faults=%+v: the storm never landed", rep.Mesh, df)

	if doc := fetchHealthz(h.URL()); doc != nil {
		rep.Healthz = doc
	}
	return rep, nil
}

// runOracle runs one class on a fault-free standalone replica and records
// its event objects and result — the identity every chaos run must match.
func runOracle(cl *jobClass) error {
	srv, err := serve.New(serve.Config{
		Workers: 2, Backlog: 16, StreamSlice: 25_000, CheckpointCycles: 25_000,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	front := httptest.NewServer(srv.Handler())
	defer front.Close()

	body, _ := json.Marshal(map[string]any{
		"name": cl.name, "source": cl.source,
		"stdin_text": cl.stdinText, "timeout_ms": 30000,
	})
	resp, err := http.Post(front.URL+"/v1/jobs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("oracle job: status %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var frame struct {
			Type   string           `json:"type"`
			Event  json.RawMessage  `json:"event"`
			Result *serve.JobResult `json:"result"`
		}
		if err := dec.Decode(&frame); err != nil {
			return fmt.Errorf("oracle stream: %v", err)
		}
		switch frame.Type {
		case "event":
			cl.events = append(cl.events, append(json.RawMessage(nil), frame.Event...))
		case "result":
			cl.result = frame.Result
			return nil
		}
	}
}

// diffOracle compares one job's delivered stream against its class
// oracle: event objects byte for byte, then the result's deterministic
// fields (reason, cycles, event count, detections, exit, stdout).
func diffOracle(cl *jobClass, r *jobRecord) string {
	if len(r.events) != len(cl.events) {
		return fmt.Sprintf("%d events, oracle has %d", len(r.events), len(cl.events))
	}
	for i := range r.events {
		if !bytes.Equal(r.events[i], cl.events[i]) {
			return fmt.Sprintf("event %d differs: got %s want %s", i, r.events[i], cl.events[i])
		}
	}
	got, want := r.results[0], cl.result
	if got.Reason != want.Reason || got.Cycles != want.Cycles ||
		got.EventCount != want.EventCount || got.Detections != want.Detections ||
		got.Exited != want.Exited || got.ExitStatus != want.ExitStatus ||
		got.Stdout != want.Stdout {
		return fmt.Sprintf("result differs: got %+v want %+v", got, want)
	}
	return ""
}

// countDetections counts injection-detected event objects.
func countDetections(events [][]byte) int {
	n := 0
	for _, e := range events {
		var ev struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(e, &ev) == nil && ev.Kind == "injection-detected" {
			n++
		}
	}
	return n
}

// runConductor is the process-fault arm of the storm: the plane's
// conductor stream picks a replica and an action (drain-restart,
// kill-restart, or rest) every few hundred milliseconds until stopped.
// Every restarted replica replays its journal — through the plane's
// read-corruption class.
func runConductor(plane *faultmesh.Plane, h *cluster.Harness, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	next := plane.Draw
	sleep := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	for {
		if !sleep(200*time.Millisecond + time.Duration(next()%300)*time.Millisecond) {
			return
		}
		node := h.Nodes[next()%uint64(len(h.Nodes))]
		switch next() % 3 {
		case 0: // graceful drain, then bounce
			node.Drain()
			if !sleep(150*time.Millisecond + time.Duration(next()%200)*time.Millisecond) {
				node.Kill()
				restartWithRetry(node)
				return
			}
			node.Kill()
			restartWithRetry(node)
		case 1: // hard kill, then bounce
			node.Kill()
			if !sleep(100*time.Millisecond + time.Duration(next()%200)*time.Millisecond) {
				restartWithRetry(node)
				return
			}
			restartWithRetry(node)
		case 2: // rest round
		}
	}
}

// restartWithRetry boots a fresh server into the slot, retrying because a
// journal replay can hit an injected read corruption (the typed
// ErrJournalCorrupt open failure); the corruption lives in the plane's
// stream, not the file, so a retry redraws and recovers.
func restartWithRetry(n *cluster.Node) error {
	var err error
	for attempt := 0; attempt < 40; attempt++ {
		if err = n.Restart(); err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return err
}

// awaitAll polls cond until it holds or the timeout passes; returns "" on
// success, the last failure detail otherwise.
func awaitAll(timeout time.Duration, cond func() (bool, string)) string {
	deadline := time.Now().Add(timeout)
	detail := ""
	for {
		var ok bool
		if ok, detail = cond(); ok {
			return ""
		}
		if time.Now().After(deadline) {
			return detail
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// postExpiredDeadline submits a job whose propagated deadline is already
// in the past and reports the gateway's verdict.
func postExpiredDeadline(base string) (status int, kind string) {
	body, _ := json.Marshal(map[string]any{"name": "expired", "source": campaignVictim,
		"stdin_text": "x", "timeout_ms": 1000})
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, ""
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.DeadlineHeader,
		strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// fetchHealthz snapshots the gateway's healthz document for the report.
func fetchHealthz(base string) json.RawMessage {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if json.NewDecoder(resp.Body).Decode(&raw) != nil {
		return nil
	}
	return raw
}
