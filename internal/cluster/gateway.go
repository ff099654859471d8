package cluster

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"splitmem/internal/faultmesh"
	"splitmem/internal/serve"
	"splitmem/internal/telemetry"
	"splitmem/internal/telemetry/hostspan"
)

// Config shapes a Gateway.
type Config struct {
	// Replicas are the backend base URLs ("http://host:port", no trailing
	// slash). Membership is fixed for the gateway's lifetime; a restarted
	// replica keeps its URL and is recognized by its changed instance ID.
	Replicas []string

	ProbeInterval time.Duration // health-probe period (default 250ms)
	ProbeTimeout  time.Duration // per-probe HTTP timeout (default 2s)
	FailThreshold int           // consecutive failures before Down (default 3)

	RetryBudget   int           // submission/resume attempts per job (default 8)
	RetryBackoff  time.Duration // first retry delay, doubled per attempt (default 25ms)
	MaxRetryDelay time.Duration // cap on any retry/Retry-After wait (default 1s)

	// Circuit breaker per replica: BreakerThreshold consecutive failures
	// (probe or relay) trip it open; after BreakerCooldown it half-opens
	// for one trial. See breaker.go for the full state machine.
	BreakerThreshold int           // failures to trip (default 5)
	BreakerCooldown  time.Duration // open → half-open delay (default 500ms)

	// HedgeDelay staggers the hedged checkpoint fetch during migration:
	// the previous hop's export ring is raced against the current owner's
	// after this head start for the primary (default 75ms).
	HedgeDelay time.Duration

	MaxBodyBytes int64 // client request body limit (default 8 MiB)

	// Faults, when non-nil, injects host faults at the gateway: every
	// backend request crosses the plane's transport, and checkpoint images
	// fetched for migration may be corrupted in transit. Replica kills are
	// the harness's job — the gateway only ever observes them.
	Faults *faultmesh.Plane

	// HTTP overrides the backend client (tests inject a transport with
	// CloseIdleConnections control). Default: a fresh client, no timeout —
	// job relays are long-lived streams, so per-call timeouts apply only to
	// probes and checkpoint fetches.
	HTTP *http.Client

	// Host-span tracing and failure forensics. Tracing is on by default:
	// the gateway mints a trace ID per submission, propagates it to
	// replicas in the X-Splitmem-Trace header, and serves merged traces on
	// GET /v1/traces/{id}. The flight recorder is opt-in by directory.
	TraceSpanCap        int    // gateway span-ring capacity (0 = hostspan.DefaultCap)
	NoTracing           bool   // disable gateway host-span tracing
	FlightRecorderDir   string // post-mortem dump directory ("" = disabled)
	FlightRecorderSpans int    // span tail captured per dump (default 256)

	// Flight-recorder disk cap: after each dump the oldest flight-*.json
	// files are pruned until at most FlightRecorderMaxDumps remain and
	// their total size is at most FlightRecorderMaxBytes. A long chaos
	// campaign must never fill the disk with forensics.
	FlightRecorderMaxDumps int   // default 512
	FlightRecorderMaxBytes int64 // default 256 MiB
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 8
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.MaxRetryDelay <= 0 {
		c.MaxRetryDelay = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 75 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.HTTP == nil {
		c.HTTP = &http.Client{}
	}
	if c.FlightRecorderSpans <= 0 {
		c.FlightRecorderSpans = 256
	}
	if c.FlightRecorderMaxDumps <= 0 {
		c.FlightRecorderMaxDumps = 512
	}
	if c.FlightRecorderMaxBytes <= 0 {
		c.FlightRecorderMaxBytes = 256 << 20
	}
	return c
}

// Gateway is the cluster front door: an http.Handler exposing the same
// /v1/jobs surface as a single replica, backed by N replicas with
// failover and live migration.
type Gateway struct {
	cfg        Config
	replicas   []*Replica
	ring       *ring
	client     *http.Client
	instanceID string
	startTime  time.Time
	mux        *http.ServeMux

	rec *hostspan.Recorder // nil when Config.NoTracing
	fr  *flightRecorder    // nil when Config.FlightRecorderDir is empty

	// jitter decorrelates retry sleeps across gateway instances and jobs
	// (equal jitter: a wait of d becomes uniform in [d/2, d)).
	jitter *faultmesh.Jitter

	nextID atomic.Uint64

	jobsMu sync.Mutex
	jobs   map[uint64]*gwJob

	// Counters, surfaced on /healthz.
	accepted      atomic.Uint64 // jobs acknowledged to clients
	completed     atomic.Uint64 // acknowledged jobs that reached a result
	retries       atomic.Uint64 // submission attempts re-routed (429/503/error)
	migrations    atomic.Uint64 // successful live migrations (checkpoint resumes)
	scratchResume atomic.Uint64 // migrations resumed from scratch (no checkpoint)
	corruptFetch  atomic.Uint64 // checkpoint fetches rejected by the CRC gate
	staleExport   atomic.Uint64 // checkpoint fetches rejected by the job-identity gate
	shed          atomic.Uint64 // client submissions refused (no replica available)
	synthesized   atomic.Uint64 // results synthesized after the retry budget died
	flightDumps   atomic.Uint64 // flight-recorder post-mortems written
	federateErrs  atomic.Uint64 // replica /metrics scrapes that failed

	// Resilience counters (this PR's subsystem), also on /healthz.
	deadlineExceeded atomic.Uint64 // jobs rejected or failed on the propagated deadline
	breakerTrips     atomic.Uint64 // breaker transitions into open
	hedgedFetches    atomic.Uint64 // checkpoint fetches that launched a hedge arm
	hedgeWins        atomic.Uint64 // hedged fetches the secondary arm won
	hedgeLosses      atomic.Uint64 // hedged fetches the primary arm won

	// Gateway-tier instruments. telemetry.Registry is not goroutine-safe,
	// so every instrument touch and every /metrics render holds metricsMu.
	metricsMu   sync.Mutex
	metrics     *telemetry.Registry
	retriesVec  *telemetry.CounterVec // splitmem_gateway_retries_total{reason}
	breakerVec  *telemetry.CounterVec // splitmem_gateway_breaker_transitions_total{transition}
	probeRTT    *telemetry.Histogram  // probe round-trip microseconds
	migrationMs *telemetry.Histogram  // migration hop wall milliseconds

	probeCtx    context.Context
	probeCancel context.CancelFunc
	probeWG     sync.WaitGroup
}

// wallMsBuckets are the bucket bounds (milliseconds) for gateway wall-time
// histograms: end-to-end job latency and migration hops.
var wallMsBuckets = []uint64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// probeRTTBuckets are the bucket bounds (microseconds) for probe RTTs.
var probeRTTBuckets = []uint64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000}

// New builds a Gateway over the given replicas and starts its prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: at least one replica required")
	}
	g := &Gateway{
		cfg:        cfg,
		client:     cfg.HTTP,
		instanceID: newInstanceID(),
		startTime:  time.Now(),
		jobs:       make(map[uint64]*gwJob),
	}
	if cfg.Faults != nil {
		c := *cfg.HTTP
		c.Transport = cfg.Faults.Transport(c.Transport)
		g.client = &c
	}
	if !cfg.NoTracing {
		g.rec = hostspan.NewRecorder("gateway:"+g.instanceID, cfg.TraceSpanCap)
	}
	g.fr = newFlightRecorder(cfg.FlightRecorderDir, cfg.FlightRecorderSpans,
		cfg.FlightRecorderMaxDumps, cfg.FlightRecorderMaxBytes)
	g.jitter = faultmesh.NewJitter(fnvSeed(g.instanceID))
	ids := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		r := &Replica{URL: u, Label: fmt.Sprintf("r%d", i)}
		r.br = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown,
			func(from, to breakerState) { g.noteBreakerTransition(r, from, to) })
		g.replicas = append(g.replicas, r)
		ids[i] = u
	}
	g.ring = newRing(ids)
	g.initMetrics()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", g.handleJobs)
	mux.HandleFunc("/v1/traces/", g.handleTraces)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	g.mux = mux

	g.probeCtx, g.probeCancel = context.WithCancel(context.Background())
	// Synchronous first sweep so the gateway never serves a request before
	// it has seen every replica once.
	for _, r := range g.replicas {
		g.probeOnce(r)
	}
	g.probeWG.Add(1)
	go g.probeLoop()
	return g, nil
}

// fnvSeed hashes an instance ID into a jitter seed (FNV-1a), so every
// gateway incarnation jitters differently but reproducibly.
func fnvSeed(s string) uint64 {
	h := uint64(0xCBF29CE484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001B3
	}
	return h
}

func newInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// initMetrics builds the gateway-tier registry: GaugeFunc samplers over
// the atomics the relay loop already maintains, plus the wall-time
// histograms and the per-reason retry vector.
func (g *Gateway) initMetrics() {
	m := telemetry.NewRegistry()
	reg := func(name, help string, v *atomic.Uint64) {
		m.GaugeFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	reg("splitmem_gateway_jobs_accepted_total", "jobs acknowledged to clients", &g.accepted)
	reg("splitmem_gateway_jobs_completed_total", "acknowledged jobs that reached a result", &g.completed)
	reg("splitmem_gateway_migrations_total", "successful live migrations", &g.migrations)
	reg("splitmem_gateway_scratch_resumes_total", "migrations resumed from scratch", &g.scratchResume)
	reg("splitmem_gateway_corrupt_fetches_total", "checkpoint fetches rejected by the CRC gate", &g.corruptFetch)
	reg("splitmem_gateway_stale_exports_total", "checkpoint fetches rejected by the job-identity gate", &g.staleExport)
	reg("splitmem_gateway_shed_total", "client submissions refused (no replica available)", &g.shed)
	reg("splitmem_gateway_synthesized_total", "results synthesized after the retry budget died", &g.synthesized)
	reg("splitmem_gateway_flight_dumps_total", "flight-recorder post-mortems written", &g.flightDumps)
	reg("splitmem_gateway_federate_errors_total", "replica /metrics scrapes that failed", &g.federateErrs)
	reg("splitmem_gateway_deadline_exceeded_total", "jobs rejected or failed on the propagated deadline", &g.deadlineExceeded)
	reg("splitmem_gateway_breaker_trips_total", "replica circuit-breaker transitions into open", &g.breakerTrips)
	reg("splitmem_gateway_hedged_fetches_total", "checkpoint fetches that launched a hedge arm", &g.hedgedFetches)
	reg("splitmem_gateway_hedge_wins_total", "hedged fetches won by the secondary arm", &g.hedgeWins)
	reg("splitmem_gateway_hedge_losses_total", "hedged fetches won by the primary arm", &g.hedgeLosses)
	m.GaugeFunc("splitmem_gateway_hostspans_recorded_total", "host spans recorded into the gateway trace ring",
		func() float64 { return float64(g.rec.Recorded()) })
	m.GaugeFunc("splitmem_gateway_hostspans_dropped_total", "host spans evicted from the gateway trace ring",
		func() float64 { return float64(g.rec.Dropped()) })
	g.retriesVec = m.CounterVec("splitmem_gateway_retries_total",
		"gateway retry/shed events by reason", "reason")
	g.breakerVec = m.CounterVec("splitmem_gateway_breaker_transitions_total",
		"replica circuit-breaker state transitions", "transition")
	g.probeRTT = m.Histogram("splitmem_gateway_probe_rtt_us",
		"health-probe round trip in microseconds", probeRTTBuckets)
	g.migrationMs = m.Histogram("splitmem_gateway_migration_ms",
		"live-migration hop wall time in milliseconds", wallMsBuckets)
	g.metrics = m
}

// noteBreakerTransition records one replica breaker state change: the
// labeled transition counter, the trips total, and an incident-timeline
// span instant — a breaker storm must be as diagnosable as a shed storm.
func (g *Gateway) noteBreakerTransition(r *Replica, from, to breakerState) {
	g.metricsMu.Lock()
	g.breakerVec.Add(from.String()+"-"+to.String(), 1)
	g.metricsMu.Unlock()
	if to == breakerOpen {
		g.breakerTrips.Add(1)
	}
	g.rec.Instant("", "gw.breaker",
		"replica", r.Label, "from", from.String(), "to", to.String())
}

// noteRetryReason bumps the per-reason retry counter (satellite of the
// healthz-visible total: the reason dimension is what makes a shed storm
// diagnosable).
func (g *Gateway) noteRetryReason(reason string) {
	g.metricsMu.Lock()
	g.retriesVec.Add(reason, 1)
	g.metricsMu.Unlock()
}

// observeProbeRTT records one successful probe's round trip.
func (g *Gateway) observeProbeRTT(d time.Duration) {
	g.metricsMu.Lock()
	g.probeRTT.Observe(uint64(d.Microseconds()))
	g.metricsMu.Unlock()
}

// observeMigration records one completed migration hop's wall time.
func (g *Gateway) observeMigration(d time.Duration) {
	g.metricsMu.Lock()
	g.migrationMs.Observe(uint64(d.Milliseconds()))
	g.metricsMu.Unlock()
}

// observeJobWall records a job's end-to-end wall latency under its
// outcome-specific histogram (lazily registered; Registry.Histogram is
// idempotent per name, and outcomes are a small closed set).
func (g *Gateway) observeJobWall(outcome string, d time.Duration) {
	if outcome == "" {
		outcome = "unknown"
	}
	name := "splitmem_gateway_job_wall_ms_" + strings.ReplaceAll(outcome, "-", "_")
	g.metricsMu.Lock()
	g.metrics.Histogram(name, "end-to-end job wall milliseconds, outcome "+outcome, wallMsBuckets).
		Observe(uint64(d.Milliseconds()))
	g.metricsMu.Unlock()
}

// handleTraces serves GET /v1/traces/{id}: the gateway's own spans for the
// trace merged with every replica's (each replica keeps its half of a
// migrated job's timeline). ?format=chrome renders the merged set as one
// Chrome trace_event file — a migrated job appears as a single causal
// track hopping across process lanes.
func (g *Gateway) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method-not-allowed", "GET /v1/traces/{id}")
		return
	}
	if g.rec == nil {
		httpError(w, http.StatusNotFound, "tracing-disabled", "host-span tracing is disabled on this gateway")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "bad-request", "expected /v1/traces/{id}")
		return
	}
	spans := g.rec.SpansFor(id)
	for _, rep := range g.replicas {
		spans = append(spans, g.fetchReplicaTrace(rep, id)...)
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		hostspan.WriteTraceEvents(w, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	hostspan.NewTraceDoc(id, spans).WriteJSON(w)
}

// fetchReplicaTrace pulls one replica's spans for a trace; a dead or
// tracing-disabled replica simply contributes nothing.
func (g *Gateway) fetchReplicaTrace(rep *Replica, id string) []hostspan.Span {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.URL+"/v1/traces/"+id, nil)
	if err != nil {
		return nil
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var doc hostspan.TraceDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil
	}
	return doc.Spans
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// InstanceID returns the gateway's own process identity (part of every
// migration key, so two gateway incarnations can never collide on one).
func (g *Gateway) InstanceID() string { return g.instanceID }

// Replicas returns the gateway's replica views (for tests and the CLI).
func (g *Gateway) Replicas() []*Replica { return g.replicas }

// Migrations reports completed checkpoint-based live migrations.
func (g *Gateway) Migrations() uint64 { return g.migrations.Load() }

// ScratchResumes reports migrations that re-ran from scratch (replica died
// before any checkpoint; determinism + cursor dedupe keep the stream
// seamless).
func (g *Gateway) ScratchResumes() uint64 { return g.scratchResume.Load() }

// CorruptFetches reports checkpoint transfers the CRC gate rejected.
func (g *Gateway) CorruptFetches() uint64 { return g.corruptFetch.Load() }

// OwnerIndex reports which replica (as an index into Replicas) currently
// runs the given gateway job, or -1 if the job is unknown, queued, or
// between hops. Harness tooling uses it to aim faults at a job's host.
func (g *Gateway) OwnerIndex(jobID uint64) int {
	g.jobsMu.Lock()
	j := g.jobs[jobID]
	g.jobsMu.Unlock()
	if j == nil {
		return -1
	}
	rep, upstream := j.owner()
	if rep == nil || upstream == 0 {
		return -1
	}
	for i, r := range g.replicas {
		if r == rep {
			return i
		}
	}
	return -1
}

// Close stops the prober. In-flight relays are not interrupted.
func (g *Gateway) Close() {
	g.probeCancel()
	g.probeWG.Wait()
}

// --- job state -------------------------------------------------------------

// gwJob is the gateway's record of one client job across replica hops.
type gwJob struct {
	id    uint64
	name  string
	body  []byte
	trace string // host-span trace ID, propagated to every replica hop

	// deadline is the client's propagated absolute deadline (zero = none).
	// Checked before every relay attempt, caps every retry sleep, and is
	// forwarded to replicas in the X-Splitmem-Deadline header.
	deadline time.Time

	mu         sync.Mutex
	replica    *Replica // current owner (nil between hops)
	upstreamID uint64   // job ID on the current replica
	cursor     int      // event lines relayed to the client so far
	acked      bool     // accepted line sent to the client
	hops       int      // migration hops (keys the per-hop idempotency token)

	// The hop before the current one: its export ring may still hold an
	// older (but valid) checkpoint, which the hedged fetch races against
	// the current owner's when the job migrates again.
	prevReplica  *Replica
	prevUpstream uint64

	outcome string // terminal outcome class, set by the relay loop
}

func (j *gwJob) owner() (*Replica, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replica, j.upstreamID
}

func (j *gwJob) setOwner(r *Replica, upstreamID uint64) {
	j.mu.Lock()
	j.replica = r
	j.upstreamID = upstreamID
	j.mu.Unlock()
}

// clearOwner detaches the job between hops, archiving the outgoing owner
// as the previous hop (hedge material for the NEXT migration) when it had
// an admitted upstream job.
func (j *gwJob) clearOwner() {
	j.mu.Lock()
	if j.replica != nil && j.upstreamID != 0 {
		j.prevReplica = j.replica
		j.prevUpstream = j.upstreamID
	}
	j.replica = nil
	j.upstreamID = 0
	j.mu.Unlock()
}

// prevOwner returns the hop-before-last's replica and upstream job ID.
func (j *gwJob) prevOwner() (*Replica, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.prevReplica, j.prevUpstream
}

func (g *Gateway) trackJob(j *gwJob) {
	g.jobsMu.Lock()
	g.jobs[j.id] = j
	g.jobsMu.Unlock()
}

func (g *Gateway) untrackJob(j *gwJob) {
	g.jobsMu.Lock()
	delete(g.jobs, j.id)
	g.jobsMu.Unlock()
}

// jobsOn snapshots the gateway jobs currently owned by a replica.
func (g *Gateway) jobsOn(r *Replica) []*gwJob {
	g.jobsMu.Lock()
	defer g.jobsMu.Unlock()
	var out []*gwJob
	for _, j := range g.jobs {
		if rep, _ := j.owner(); rep == r {
			out = append(out, j)
		}
	}
	return out
}

// --- admission & routing ---------------------------------------------------

// pickReplica chooses the next replica for a job: its consistent-hash walk
// order, Up replicas first, Degraded as fallback, skipping the one replica
// the caller wants to avoid (the one that just failed or is draining) and
// any replica whose circuit breaker is open — the job sheds to the next
// replica on its ring walk instead of feeding a known-bad host.
func (g *Gateway) pickReplica(j *gwJob, avoid *Replica) *Replica {
	order := g.ring.walk(j.id)
	var degraded *Replica
	for _, idx := range order {
		r := g.replicas[idx]
		if r == avoid || !r.br.allow() {
			continue
		}
		switch r.State() {
		case StateUp:
			return r
		case StateDegraded:
			if degraded == nil {
				degraded = r
			}
		}
	}
	return degraded
}

func httpError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": kind, "message": msg})
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	views := make([]snapshotView, len(g.replicas))
	available := 0
	for i, rep := range g.replicas {
		views[i] = rep.view()
		if s := rep.State(); s == StateUp || s == StateDegraded {
			available++
		}
	}
	status := "ok"
	code := http.StatusOK
	if available == 0 {
		status = "no-replicas"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":         status,
		"instance":       g.instanceID,
		"build":          hostspan.Build(),
		"uptime_seconds": time.Since(g.startTime).Seconds(),
		"replicas":       views,
		"jobs": map[string]any{
			"accepted":          g.accepted.Load(),
			"completed":         g.completed.Load(),
			"retries":           g.retries.Load(),
			"migrations":        g.migrations.Load(),
			"scratch_resumes":   g.scratchResume.Load(),
			"corrupt_fetches":   g.corruptFetch.Load(),
			"stale_exports":     g.staleExport.Load(),
			"shed":              g.shed.Load(),
			"synthesized_fails": g.synthesized.Load(),
		},
		"resilience": map[string]any{
			"deadline_exceeded": g.deadlineExceeded.Load(),
			"breaker_trips":     g.breakerTrips.Load(),
			"hedged_fetches":    g.hedgedFetches.Load(),
			"hedge_wins":        g.hedgeWins.Load(),
			"hedge_losses":      g.hedgeLosses.Load(),
		},
		"tracing": map[string]any{
			"enabled":  g.rec != nil,
			"spans":    g.rec.Len(),
			"recorded": g.rec.Recorded(),
			"dropped":  g.rec.Dropped(),
		},
		"flight_recorder": map[string]any{
			"dir":   g.cfg.FlightRecorderDir,
			"dumps": g.flightDumps.Load(),
		},
		"federation": map[string]any{
			"errors": g.federateErrs.Load(),
		},
	})
}

func wantsStream(r *http.Request) bool {
	if q := r.URL.Query().Get("stream"); q == "1" || q == "true" {
		return true
	}
	return r.Header.Get("Accept") == "application/x-ndjson"
}

// handleJobs is the client-facing submission endpoint. The gateway always
// streams from the replica; a synchronous client gets only the final
// result object (events are available on the streaming path).
func (g *Gateway) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST a job object")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error())
		return
	}
	if int64(len(body)) > g.cfg.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "too-large",
			fmt.Sprintf("body exceeds %d bytes", g.cfg.MaxBodyBytes))
		return
	}
	var peek struct {
		Name string `json:"name"`
	}
	json.Unmarshal(body, &peek) // best-effort; replicas do the real validation

	// End-to-end deadline propagation: parse the client's absolute
	// deadline up front so an already-hopeless job is rejected before any
	// replica sees it, and every later hop inherits the same budget.
	deadline, err := serve.ParseDeadline(r.Header)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad-deadline", err.Error())
		return
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		g.deadlineExceeded.Add(1)
		httpError(w, http.StatusGatewayTimeout, "deadline-exceeded",
			"propagated deadline already expired on arrival")
		return
	}

	// Mint the job's trace identity (honoring one an upstream proxy already
	// minted) before the job is tracked, so every later reader — migrateOff
	// included — sees it. Echoed on the response header.
	trace := r.Header.Get(hostspan.TraceHeader)
	if trace == "" && g.rec != nil {
		trace = hostspan.NewTraceID()
	}
	if trace != "" {
		w.Header().Set(hostspan.TraceHeader, trace)
	}

	j := &gwJob{id: g.nextID.Add(1), name: peek.Name, body: body, trace: trace, deadline: deadline}
	g.trackJob(j)
	defer g.untrackJob(j)

	g.rec.Instant(trace, "gw.admit",
		"job", strconv.FormatUint(j.id, 10), "name", peek.Name)
	root := g.rec.Begin(trace, "gw.job", "job", strconv.FormatUint(j.id, 10))
	start := time.Now()

	out := newClientStream(w, wantsStream(r))
	g.runJob(r.Context(), j, out)
	out.finish()

	wall := time.Since(start)
	g.rec.End(root, "outcome", j.outcome, "hops", strconv.Itoa(j.hops))
	g.rec.Instant(trace, "gw.result",
		"job", strconv.FormatUint(j.id, 10), "outcome", j.outcome)
	g.observeJobWall(j.outcome, wall)
}

// --- the relay loop --------------------------------------------------------

// relayOutcome is what one replica attempt produced.
type relayOutcome int

const (
	relayDone      relayOutcome = iota // result delivered (or terminal client error sent)
	relayMigrated                      // replica emitted the migrated frame; resume elsewhere
	relayRejected                      // explicitly not admitted (429/503); retry elsewhere
	relayBroken                        // stream died after the accepted line; recover via checkpoint
	relayDuplicate                     // resume key already claimed (409); reclaim via detach
	relayUnknown                       // transport died before any line: admission unknown —
	//                                    retry the SAME key on the SAME replica; the per-key
	//                                    409 disambiguates (this is why every gateway
	//                                    submission carries a key, hop 0 included)
)

// String names the outcome for span attributes and retry-reason labels.
func (o relayOutcome) String() string {
	switch o {
	case relayDone:
		return "done"
	case relayMigrated:
		return "migrated"
	case relayRejected:
		return "rejected"
	case relayBroken:
		return "broken-stream"
	case relayDuplicate:
		return "duplicate-resume"
	case relayUnknown:
		return "unknown-admission"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// resumeSpec is the payload of the next hop when a job moves replicas.
type resumeSpec struct {
	checkpoint []byte
	cycles     uint64
}

// relayResult is everything one replica attempt reports back to the loop.
type relayResult struct {
	outcome    relayOutcome
	retryAfter time.Duration // parsed Retry-After on a 429/503
	dupID      uint64        // upstream job id from a 409 duplicate-resume
}

// runJob drives one client job to exactly one terminal outcome, hopping
// replicas as they drain or die. It owns the client stream: nothing else
// writes to out.
func (g *Gateway) runJob(ctx context.Context, j *gwJob, out *clientStream) {
	var (
		resume   *resumeSpec // checkpoint payload; nil on hop 0 (fresh run)
		avoid    *Replica    // replica that just failed or drained
		forceRep *Replica    // ambiguous attempt: must go back to this replica
		backoff  = g.cfg.RetryBackoff
		migSpan  hostspan.SpanID // open gw.migrate span while the job is between hops
		migStart time.Time
	)
	// beginMigration opens the between-hops span when a job leaves a
	// replica; it stays open until the next relay attempt starts, so its
	// duration is the real client-visible migration gap.
	beginMigration := func(from *Replica, kind string) {
		if migSpan.Valid() {
			return
		}
		migStart = time.Now()
		migSpan = g.rec.Begin(j.trace, "gw.migrate", "from", from.Label, "kind", kind)
	}
	for attempt := 0; attempt < g.cfg.RetryBudget; attempt++ {
		if ctx.Err() != nil {
			g.rec.End(migSpan, "to", "", "failed", "client-gone")
			g.failJob(j, out, "canceled", "client disconnected")
			return
		}
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			g.deadlineExceeded.Add(1)
			g.rec.End(migSpan, "failed", "deadline-exceeded")
			g.failJobStatus(j, out, http.StatusGatewayTimeout, "deadline-exceeded",
				"propagated deadline expired at the gateway")
			return
		}
		rep := forceRep
		forceRep = nil
		if rep == nil {
			rep = g.pickReplica(j, avoid)
		}
		if rep == nil {
			// No routable replica right now. Before acknowledgment that is
			// the client's 503; after, patience — a restart is usually
			// seconds away.
			if !j.acked {
				g.shed.Add(1)
				g.noteRetryReason("no-replica")
				j.outcome = "shed"
				out.reject(http.StatusServiceUnavailable, "no-replicas", "no replica available; retry later")
				return
			}
			g.retries.Add(1)
			g.noteRetryReason("no-replica")
			g.rec.Instant(j.trace, "gw.shed-retry",
				"reason", "no-replica", "wait", backoff.String())
			g.sleep(ctx, g.retryWait(j, backoff))
			backoff = g.bumpBackoff(backoff)
			avoid = nil // a drained home replica may be back by now
			continue
		}

		if migSpan.Valid() {
			g.rec.End(migSpan, "to", rep.Label)
			migSpan = hostspan.SpanID{}
			g.observeMigration(time.Since(migStart))
		}
		g.rec.Instant(j.trace, "gw.route",
			"replica", rep.Label, "attempt", strconv.Itoa(attempt), "hop", strconv.Itoa(j.hops))
		relSpan := g.rec.Begin(j.trace, "gw.relay",
			"replica", rep.Label, "attempt", strconv.Itoa(attempt))
		rr := g.relayOnce(ctx, j, rep, resume, out)
		g.rec.End(relSpan, "outcome", rr.outcome.String())
		// Feed the replica's circuit breaker. Done and migrated prove the
		// data path; broken streams and unknown admissions are transport
		// failures. An explicit rejection (429/503) or duplicate 409 is a
		// healthy replica talking — neither success nor failure.
		switch rr.outcome {
		case relayDone, relayMigrated:
			rep.br.noteSuccess()
		case relayBroken, relayUnknown:
			rep.br.noteFailure()
		}
		switch rr.outcome {
		case relayDone:
			return

		case relayMigrated:
			// The replica stopped the job with its typed migrated frame
			// (detached by migrateOff when the replica began draining). Fetch
			// the checkpoint from its bounded export ring — CRC-gated,
			// corruption means refetch — and resume on a peer.
			beginMigration(rep, "drain")
			resume = g.fetchCheckpoint(rep, j)
			avoid = rep
			j.clearOwner()
			j.hops++
			// A migration hop is recovery, not failure: it does not consume
			// the retry budget.
			attempt--

		case relayRejected:
			g.retries.Add(1)
			g.noteRetryReason("rejected")
			wait := backoff
			if rr.retryAfter > wait {
				wait = rr.retryAfter
			}
			if wait > g.cfg.MaxRetryDelay {
				wait = g.cfg.MaxRetryDelay
			}
			g.rec.Instant(j.trace, "gw.shed-retry",
				"reason", "rejected", "replica", rep.Label, "wait", wait.String())
			g.sleep(ctx, g.retryWait(j, wait))
			backoff = g.bumpBackoff(backoff)
			avoid = rep

		case relayBroken:
			// The stream died after acceptance — replica crash (or kill).
			// Feed the failure detector, then try to salvage the latest
			// checkpoint; a dead process yields nothing and the job re-runs
			// from scratch, cursor-deduped.
			g.noteRetryReason("broken-stream")
			beginMigration(rep, "crash")
			g.noteStreamFailureOn(rep)
			resume = g.fetchCheckpoint(rep, j)
			avoid = rep
			j.clearOwner()
			j.hops++

		case relayUnknown:
			// The attempt died before any response line — we do not know
			// whether the replica admitted it. Go back to the SAME replica
			// with the SAME key: 409 means an orphan is running there
			// (reclaimed via relayDuplicate next round); admission means it
			// never happened and the retry is just a fresh run. Only when
			// the prober has declared the replica dead do we move on — the
			// orphan, if any, died with its process.
			g.retries.Add(1)
			g.noteRetryReason("unknown-admission")
			if rep.State() == StateDown {
				beginMigration(rep, "dead")
				resume = g.fetchCheckpoint(rep, j)
				avoid = rep
				j.clearOwner()
				j.hops++
			} else {
				g.rec.Instant(j.trace, "gw.shed-retry",
					"reason", "unknown-admission", "replica", rep.Label, "wait", backoff.String())
				forceRep = rep
				g.sleep(ctx, g.retryWait(j, backoff))
				backoff = g.bumpBackoff(backoff)
			}

		case relayDuplicate:
			// Our own earlier resume was admitted but we lost its stream
			// before reading the accepted line. The job is running there,
			// orphaned (its events are going nowhere). Reclaim it: detach —
			// stops it with the migrated frame, exports its checkpoint — and
			// resume on the next hop with a fresh key. Exactly-once holds:
			// the orphan never streamed a line to anyone.
			g.noteRetryReason("duplicate-resume")
			beginMigration(rep, "reclaim")
			if spec, ok := g.detachUpstream(rep, rr.dupID, j); ok {
				resume = spec
			} else {
				resume = &resumeSpec{}
			}
			avoid = rep
			j.clearOwner()
			j.hops++
			attempt--
		}
	}
	g.rec.End(migSpan, "failed", "retry-budget-exhausted")
	g.failJob(j, out, "failed-after-retries", "replica retry budget exhausted")
}

// failJob delivers the synthesized terminal outcome when the gateway runs
// out of options. An unacknowledged job gets an HTTP error; an
// acknowledged one gets a synthesized result line, because the framing
// contract (exactly one result per accepted) outranks everything.
func (g *Gateway) failJob(j *gwJob, out *clientStream, reason, msg string) {
	g.failJobStatus(j, out, http.StatusServiceUnavailable, reason, msg)
}

// failJobStatus is failJob with an explicit HTTP status for the
// not-yet-acknowledged case (a deadline failure is the client's 504, not
// a 503 inviting a retry that cannot succeed).
func (g *Gateway) failJobStatus(j *gwJob, out *clientStream, status int, reason, msg string) {
	j.outcome = reason
	if !j.acked {
		out.reject(status, reason, msg)
		return
	}
	if reason == "failed-after-retries" {
		// An acked job the cluster could not finish is the flight
		// recorder's marquee customer: dump the evidence before the
		// synthesized result papers over it.
		g.flightRecord("job-failed", map[string]any{
			"job":    j.id,
			"trace":  j.trace,
			"reason": reason,
			"detail": msg,
			"hops":   j.hops,
		})
	}
	g.synthesized.Add(1)
	res := &serve.JobResult{ID: j.id, Name: j.name, Reason: reason, Canceled: true,
		TimedOut: reason == "deadline-exceeded", Error: msg}
	out.result(res)
	g.completed.Add(1)
}

// retryWait shapes one retry sleep: equal jitter in [d/2, d) decorrelates
// the fleet's backoff, and the job's propagated deadline caps the wait —
// sleeping past the deadline would only delay the client's 504.
func (g *Gateway) retryWait(j *gwJob, d time.Duration) time.Duration {
	d = g.jitter.Scale(d)
	if !j.deadline.IsZero() {
		if rem := time.Until(j.deadline); rem < d {
			d = rem
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

func (g *Gateway) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

func (g *Gateway) bumpBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > g.cfg.MaxRetryDelay {
		d = g.cfg.MaxRetryDelay
	}
	return d
}

// resumeKey builds the per-hop idempotency token: gateway identity + job +
// hop, so a retried POST of the same hop collides (409) and a new hop
// never does.
func (j *gwJob) resumeKey(gatewayID string) string {
	return fmt.Sprintf("%s-%d-m%d", gatewayID, j.id, j.hops)
}

// relayOnce runs one replica attempt: submit (or resume), then relay the
// NDJSON stream to the client until a terminal frame or a transport error.
func (g *Gateway) relayOnce(ctx context.Context, j *gwJob, rep *Replica, resume *resumeSpec, out *clientStream) relayResult {
	// Every attempt — hop 0 included — goes through the keyed resume path.
	// A resume with no checkpoint and cursor 0 is exactly a fresh run, and
	// carrying the key from the first byte means a POST that dies before
	// any response line is never ambiguous: retry the same key and the
	// replica's per-key 409 answers "was it admitted?".
	spec := resume
	if spec == nil {
		spec = &resumeSpec{}
	}
	reqObj := map[string]any{
		"job":    json.RawMessage(j.body),
		"cursor": j.cursor,
		"key":    j.resumeKey(g.instanceID),
	}
	if len(spec.checkpoint) > 0 {
		reqObj["checkpoint"] = spec.checkpoint
		reqObj["cycles"] = spec.cycles
	}
	body, err := json.Marshal(reqObj)
	if err != nil {
		return relayResult{outcome: relayRejected}
	}
	url := rep.URL + "/v1/jobs/resume?stream=1"

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return relayResult{outcome: relayRejected}
	}
	req.Header.Set("Content-Type", "application/json")
	if j.trace != "" {
		req.Header.Set(hostspan.TraceHeader, j.trace)
	}
	if !j.deadline.IsZero() {
		req.Header.Set(serve.DeadlineHeader, strconv.FormatInt(j.deadline.UnixMilli(), 10))
	}
	resp, err := g.client.Do(req)
	if err != nil {
		// The transport died before we read a status line. The request may
		// or may not have been admitted — relayUnknown makes runJob go back
		// to the same replica with the same key to find out.
		g.noteStreamFailureOn(rep)
		return relayResult{outcome: relayUnknown}
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to the stream relay
	case http.StatusGatewayTimeout:
		// The replica's own deadline gate fired (the budget expired while
		// the request was in flight). Terminal: no replica can beat it.
		b, _ := io.ReadAll(resp.Body)
		g.deadlineExceeded.Add(1)
		if !j.acked {
			j.outcome = "deadline-exceeded"
			out.forwardError(resp.StatusCode, b)
			return relayResult{outcome: relayDone}
		}
		g.failJobStatus(j, out, http.StatusGatewayTimeout, "deadline-exceeded",
			"replica rejected the hop: propagated deadline expired")
		return relayResult{outcome: relayDone}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return relayResult{outcome: relayRejected, retryAfter: time.Duration(ra) * time.Second}
	case http.StatusConflict:
		// duplicate-resume: our key is claimed — an earlier attempt of this
		// very hop was admitted. Extract the upstream id so runJob can
		// reclaim the orphan.
		var e struct {
			Error string `json:"error"`
			ID    uint64 `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "duplicate-resume" {
			return relayResult{outcome: relayDuplicate, dupID: e.ID}
		}
		return relayResult{outcome: relayRejected}
	case http.StatusBadRequest:
		// A checkpoint the replica's CRC gate rejected (it re-verifies what
		// we verified — defense in depth) is recoverable: drop the image and
		// re-run from scratch. Anything else is the client's own bad job —
		// forward it verbatim before acknowledgment, synthesize after.
		b, _ := io.ReadAll(resp.Body)
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(b, &e)
		if e.Error == "bad-checkpoint" {
			// The replica's own CRC gate rejected the image we shipped —
			// corruption after our verify (or a verify bug). Forensics-grade
			// event: dump it.
			g.corruptFetch.Add(1)
			g.noteRetryReason("bad-checkpoint")
			g.flightRecord("checkpoint-crc-mismatch", map[string]any{
				"stage":      "resume",
				"replica":    rep.URL,
				"label":      rep.Label,
				"job":        j.id,
				"trace":      j.trace,
				"checkpoint": fmt.Sprintf("job %d hop %d (%d bytes, %d cycles)", j.id, j.hops, len(spec.checkpoint), spec.cycles),
			})
			return relayResult{outcome: relayBroken}
		}
		if !j.acked {
			j.outcome = "client-error"
			out.forwardError(resp.StatusCode, b)
			return relayResult{outcome: relayDone}
		}
		g.failJob(j, out, "failed-after-retries", "replica rejected resume: "+string(bytes.TrimSpace(b)))
		return relayResult{outcome: relayDone}
	default:
		b, _ := io.ReadAll(resp.Body)
		if !j.acked {
			j.outcome = "client-error"
			out.forwardError(resp.StatusCode, b)
			return relayResult{outcome: relayDone}
		}
		return relayResult{outcome: relayRejected}
	}

	j.setOwner(rep, 0)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	sawLine := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		sawLine = true
		var frame struct {
			Type   string           `json:"type"`
			ID     uint64           `json:"id"`
			Result *serve.JobResult `json:"result"`
		}
		if err := json.Unmarshal(line, &frame); err != nil {
			continue // never let a mangled frame kill an owned stream
		}
		switch frame.Type {
		case "accepted":
			j.setOwner(rep, frame.ID)
			if j.hops > 0 {
				// The resumed stream is live on the new replica: from here
				// the cursor-deduped relay stitches it seamlessly onto what
				// the client already saw.
				g.rec.Instant(j.trace, "gw.stitch",
					"replica", rep.Label,
					"upstream", strconv.FormatUint(frame.ID, 10),
					"cursor", strconv.Itoa(j.cursor))
			}
			if !j.acked {
				j.acked = true
				g.accepted.Add(1)
				out.accepted(j.id, j.name)
			}
		case "event":
			out.event(line)
			j.cursor++
		case "result":
			if frame.Result != nil && frame.Result.Reason == "migrated" {
				return relayResult{outcome: relayMigrated}
			}
			if frame.Result == nil {
				frame.Result = &serve.JobResult{Reason: "internal-error", Error: "replica result frame had no body"}
			}
			frame.Result.ID = j.id
			// The gateway owns the Migrated flag: replicas mark every keyed
			// resume migrated, but hop 0 is just a fresh run in disguise.
			frame.Result.Migrated = j.hops > 0
			if j.hops > 0 {
				g.migrations.Add(1)
				if resume == nil || len(resume.checkpoint) == 0 {
					g.scratchResume.Add(1)
				}
			}
			j.outcome = "done"
			out.result(frame.Result)
			g.completed.Add(1)
			return relayResult{outcome: relayDone}
		}
	}
	// Stream ended without a result: the replica died mid-job (or dropped
	// the connection). If nothing was ever read the admission itself is
	// unknown — retry the same key on the same replica and let the 409
	// disambiguate. After the accepted line it is a plain crash: recover.
	if !sawLine {
		g.noteStreamFailureOn(rep)
		return relayResult{outcome: relayUnknown}
	}
	return relayResult{outcome: relayBroken}
}
