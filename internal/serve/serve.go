package serve

import (
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

	"splitmem"
	"splitmem/internal/faultmesh"
	"splitmem/internal/fleet"
	"splitmem/internal/telemetry"
	"splitmem/internal/telemetry/hostspan"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	Workers int // concurrent simulation workers (default 8)
	Backlog int // admission queue beyond the running jobs (default 2 * Workers)

	DefaultMaxCycles uint64        // per-job simulated-cycle budget when the job names none (default 200M)
	MaxCyclesCap     uint64        // hard per-job cycle ceiling (default 4G)
	DefaultTimeout   time.Duration // per-job wall clock when the job names none (default 10s)
	MaxTimeout       time.Duration // hard per-job wall-clock ceiling (default 60s)

	MaxBodyBytes int64  // request body limit (default 8 MiB)
	StreamSlice  uint64 // cycles simulated between event flushes (default 2M)

	// Crash recovery. JournalPath enables the durable job journal: every
	// admission is fsync'd before it is acknowledged, and a restarted server
	// replays unfinished jobs from their last checkpoint. The supervisor
	// (retries, watchdog, checkpointing) runs regardless — without a journal
	// it just cannot survive a whole-process crash.
	JournalPath      string        // on-disk journal ("" = no durable recovery)
	JournalMaxBytes  int64         // journal size that triggers compaction (default 64 MiB)
	CheckpointCycles uint64        // simulated cycles between checkpoints (default 4 * StreamSlice)
	RetryBudget      int           // attempts per job before failed-after-retries (default 3)
	RetryBackoff     time.Duration // first retry delay, doubled per attempt (default 10ms)
	WatchdogSlice    time.Duration // wall-clock deadline for one stream slice (default 15s)

	// JournalRecoveryInterval is how often a degraded journal retries the
	// rewrite that restores durability (default 100ms).
	JournalRecoveryInterval time.Duration

	// Faults, when non-nil, injects host faults: worker kills mid-slice,
	// torn journal appends, and disk faults (ENOSPC, short writes, fsync
	// failures, read corruption) under every journal write and replay.
	// The recovery chaos cells and the chaos campaign plug in here.
	Faults *faultmesh.Plane

	// WarmPool enables snapshot-forked job starts: the first job of each
	// distinct (program, config) class builds a template image (machine
	// parked right after program load) and later jobs fork from it,
	// sharing every physical frame copy-on-write instead of re-assembling
	// and re-booting. Forked jobs are bit-identical to cold-booted ones;
	// any warm-path failure silently falls back to a cold boot.
	WarmPool     bool
	WarmPoolSize int // distinct templates cached (default 32)

	// Host-span tracing (wall-clock job lifecycle spans, distinct from the
	// simulated-cycle machine telemetry). On by default: every job gets a
	// trace ID — the gateway's X-Splitmem-Trace header when present, a
	// fresh one otherwise — and its admission, queue wait, run slices,
	// checkpoints, and migration detach/resume land in a bounded ring
	// served by GET /v1/traces/{id}.
	TraceSpanCap int  // span ring capacity (0 = hostspan.DefaultCap)
	NoTracing    bool // disable host-span tracing entirely
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Backlog <= 0 {
		c.Backlog = 2 * c.Workers
	}
	if c.DefaultMaxCycles == 0 {
		c.DefaultMaxCycles = 200_000_000
	}
	if c.MaxCyclesCap == 0 {
		c.MaxCyclesCap = 4_000_000_000
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.StreamSlice == 0 {
		c.StreamSlice = 2_000_000
	}
	if c.JournalMaxBytes == 0 {
		c.JournalMaxBytes = 64 << 20
	}
	if c.CheckpointCycles == 0 {
		c.CheckpointCycles = 4 * c.StreamSlice
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.WatchdogSlice == 0 {
		c.WatchdogSlice = 15 * time.Second
	}
	return c
}

// Server is the splitmem-serve HTTP service: a bounded fleet.Pool of
// simulation workers behind an admission queue, with NDJSON event
// streaming, Prometheus metrics, and graceful draining.
type Server struct {
	cfg  Config
	pool *fleet.Pool
	mux  *http.ServeMux

	// Instance identity: a fresh random ID per process so a cluster
	// gateway's prober can tell a restarted replica from a live one (the
	// URL stays the same; the instance ID does not) and trigger
	// journal-recovery accounting.
	instanceID string
	startTime  time.Time

	draining atomic.Bool
	nextID   atomic.Uint64

	// Service-level counters. Plain atomics read by GaugeFunc samplers at
	// export time — handler goroutines never touch the (single-threaded)
	// registry instruments directly.
	accepted         atomic.Uint64
	rejected         atomic.Uint64 // queue-full 429s
	refused          atomic.Uint64 // draining 503s
	badInput         atomic.Uint64 // 400s
	deadlineExceeded atomic.Uint64 // 504s: the propagated deadline passed before admission
	completed        atomic.Uint64
	canceled         atomic.Uint64
	timedOut         atomic.Uint64
	streamed         atomic.Uint64 // NDJSON event lines written

	// Supervision counters.
	checkpoints  atomic.Uint64 // checkpoint images written
	restores     atomic.Uint64 // attempts resumed from a checkpoint
	retries      atomic.Uint64 // attempts retried after a panic or hang
	workerPanics atomic.Uint64 // worker panics recovered by the supervisor
	recovered    atomic.Uint64 // journal-replayed jobs run to a terminal state
	recovering   atomic.Int64  // journal-replayed jobs not yet terminal

	// Migration counters.
	migratedOut atomic.Uint64 // jobs detached and shipped to a peer replica
	resumedIn   atomic.Uint64 // migration resumes accepted
	resumeDups  atomic.Uint64 // duplicate resume claims rejected (409)

	// Warm-pool state and counters. warm is nil unless Config.WarmPool.
	warm       *warmPool
	forks      atomic.Uint64 // jobs started by forking a template image
	warmHits   atomic.Uint64 // jobs that found their template already built
	warmMisses atomic.Uint64 // jobs that had to build (or rebuild) a template

	// Live-job registry: the latest checkpoint of every in-flight job, so
	// the cluster gateway can ship it to a peer (GET /v1/jobs/{id}/checkpoint).
	// Finished or detached jobs move to a small bounded export ring so a
	// gateway whose first fetch was corrupted in transit can refetch.
	liveMu      sync.Mutex
	live        map[uint64]*liveJob
	exports     map[uint64]*CheckpointExport
	exportOrder []uint64          // FIFO eviction for exports
	resumeKeys  map[string]uint64 // idempotency: migration key -> local job id

	// afterCheckpoint, when non-nil, runs on a job's worker right after each
	// checkpoint reaches the live registry, with the run's context. Only
	// tests set it, to hold a job at a known checkpoint.
	afterCheckpoint func(ctx context.Context, id uint64)

	journal *journal           // nil when Config.JournalPath is empty
	rec     *hostspan.Recorder // nil when Config.NoTracing
	jitter  *faultmesh.Jitter  // desynchronizes the supervisor's retry backoff

	// serverReg holds the service gauges; jobs holds the merged per-job
	// machine registries. jobMu serializes job merges against /metrics
	// renders (Registry.Merge locks against other merges, not readers).
	serverReg *telemetry.Registry
	jobMu     sync.Mutex
	jobs      *telemetry.Registry
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pool, err := fleet.NewPool(cfg.Workers, cfg.Backlog)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		pool:       pool,
		instanceID: newInstanceID(),
		startTime:  time.Now(),
		live:       make(map[uint64]*liveJob),
		exports:    make(map[uint64]*CheckpointExport),
		resumeKeys: make(map[string]uint64),
		serverReg:  telemetry.NewRegistry(),
		jobs:       telemetry.NewRegistry(),
	}
	if cfg.WarmPool {
		s.warm = newWarmPool(cfg.WarmPoolSize)
	}
	if !cfg.NoTracing {
		s.rec = hostspan.NewRecorder("replica:"+s.instanceID, cfg.TraceSpanCap)
	}
	// The backoff jitter is seeded from the instance identity: every
	// replica restarts with a new phase, so a fleet that dies together
	// never retries together.
	s.jitter = faultmesh.NewJitter(instanceSeed(s.instanceID))
	if cfg.JournalPath != "" {
		var disk DiskFaultInjector // a nil plane must stay a nil interface
		if cfg.Faults != nil {
			disk = cfg.Faults
		}
		jn, err := openJournal(cfg.JournalPath, cfg.JournalMaxBytes, cfg.Faults, disk)
		if err != nil {
			pool.Close()
			return nil, fmt.Errorf("serve: opening journal: %w", err)
		}
		jn.recoveryEvery = cfg.JournalRecoveryInterval
		s.journal = jn
		s.nextID.Store(jn.maxID())
		if pending := jn.unfinished(); len(pending) > 0 {
			s.recovering.Store(int64(len(pending)))
			go s.resumeJournal(pending)
		}
	}
	reg := func(name, help string, v *atomic.Uint64) {
		s.serverReg.GaugeFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	reg("splitmem_serve_jobs_accepted_total", "jobs admitted to the queue", &s.accepted)
	reg("splitmem_serve_jobs_rejected_total", "submissions rejected with 429 (queue full)", &s.rejected)
	reg("splitmem_serve_jobs_refused_total", "submissions refused with 503 (draining)", &s.refused)
	reg("splitmem_serve_jobs_bad_total", "submissions rejected with 400 (bad input)", &s.badInput)
	reg("splitmem_serve_deadline_exceeded_total", "submissions rejected with 504 (propagated deadline passed)", &s.deadlineExceeded)
	reg("splitmem_serve_jobs_completed_total", "jobs run to a terminal state", &s.completed)
	reg("splitmem_serve_jobs_canceled_total", "jobs ended by cancellation or disconnect", &s.canceled)
	reg("splitmem_serve_jobs_timeout_total", "jobs ended by their wall-clock limit", &s.timedOut)
	reg("splitmem_serve_stream_events_total", "NDJSON event lines written to clients", &s.streamed)
	reg("splitmem_serve_checkpoints_total", "checkpoint images written by the supervisor", &s.checkpoints)
	reg("splitmem_serve_restores_total", "job attempts resumed from a checkpoint", &s.restores)
	reg("splitmem_serve_retries_total", "job attempts retried after a panic or hang", &s.retries)
	reg("splitmem_serve_worker_panics_total", "worker panics recovered by the supervisor", &s.workerPanics)
	reg("splitmem_serve_jobs_recovered_total", "journal-replayed jobs run to a terminal state", &s.recovered)
	s.serverReg.GaugeFunc("splitmem_serve_jobs_recovering", "journal-replayed jobs not yet terminal",
		func() float64 { return float64(s.recovering.Load()) })
	s.serverReg.GaugeFunc("splitmem_serve_journal_torn_total", "torn or corrupt journal records detected",
		func() float64 { return float64(s.journal.tornRecords()) })
	s.serverReg.GaugeFunc("splitmem_serve_journal_degraded", "1 while the journal is in in-memory degraded mode",
		func() float64 {
			if s.journal.isDegraded() {
				return 1
			}
			return 0
		})
	s.serverReg.GaugeFunc("splitmem_serve_journal_degraded_seconds_total", "cumulative wall time the journal has spent degraded",
		func() float64 { return s.journal.degradedSeconds() })
	s.serverReg.GaugeFunc("splitmem_serve_journal_recoveries_total", "times a degraded journal restored durability",
		func() float64 { return float64(s.journal.recoveryCount()) })
	s.serverReg.GaugeFunc("splitmem_serve_pool_panics_total", "tasks that escaped the supervisor and died in the pool",
		func() float64 { return float64(s.pool.Panics()) })
	s.serverReg.GaugeFunc("splitmem_serve_queue_depth", "jobs admitted but not yet finished",
		func() float64 { return float64(s.pool.Depth()) })
	s.serverReg.GaugeFunc("splitmem_serve_workers", "size of the simulation worker pool",
		func() float64 { return float64(cfg.Workers) })

	reg("splitmem_serve_forks_total", "jobs started by forking a warm template image", &s.forks)
	reg("splitmem_serve_warm_hits_total", "jobs whose template image was already built", &s.warmHits)
	reg("splitmem_serve_warm_misses_total", "jobs that built a template image", &s.warmMisses)

	reg("splitmem_serve_jobs_migrated_out_total", "jobs detached and shipped to a peer replica", &s.migratedOut)
	reg("splitmem_serve_jobs_resumed_in_total", "migration resumes accepted", &s.resumedIn)
	reg("splitmem_serve_resume_duplicates_total", "duplicate resume claims rejected", &s.resumeDups)

	s.serverReg.GaugeFunc("splitmem_serve_hostspans_recorded_total", "host spans recorded into the trace ring",
		func() float64 { return float64(s.rec.Recorded()) })
	s.serverReg.GaugeFunc("splitmem_serve_hostspans_dropped_total", "host spans evicted from the trace ring",
		func() float64 { return float64(s.rec.Dropped()) })

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobsSubtree)
	mux.HandleFunc("/v1/traces/", s.handleTraces)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// DeadlineHeader carries a job's absolute deadline — unix milliseconds —
// end to end: client → gateway → every relay, migration resume, and
// checkpoint fetch. Any tier that sees the deadline already passed rejects
// with 504 deadline-exceeded instead of burning a worker on an answer
// nobody is waiting for; a replica admitting the job clamps its wall-clock
// budget to the time remaining.
const DeadlineHeader = "X-Splitmem-Deadline"

// ParseDeadline reads the deadline header. The zero time (and nil error)
// means no deadline was propagated.
func ParseDeadline(h http.Header) (time.Time, error) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}, fmt.Errorf("bad %s header %q: want positive unix milliseconds", DeadlineHeader, v)
	}
	return time.UnixMilli(ms), nil
}

// checkDeadline parses and enforces the propagated deadline before
// admission. It writes the rejection itself and reports whether the
// request may proceed; a zero returned time means no deadline.
func (s *Server) checkDeadline(w http.ResponseWriter, r *http.Request) (time.Time, bool) {
	deadline, err := ParseDeadline(r.Header)
	if err != nil {
		s.badInput.Add(1)
		httpError(w, http.StatusBadRequest, "bad-deadline", err.Error(), nil)
		return time.Time{}, false
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.deadlineExceeded.Add(1)
		httpError(w, http.StatusGatewayTimeout, "deadline-exceeded",
			"job deadline passed before admission", nil)
		return time.Time{}, false
	}
	return deadline, true
}

// JournalDegraded reports whether the journal is in in-memory degraded
// mode (persistent disk faults; durability suspended until recovery).
func (s *Server) JournalDegraded() bool { return s.journal.isDegraded() }

// JournalRecoveries reports how many times a degraded journal has
// restored durability.
func (s *Server) JournalRecoveries() uint64 { return s.journal.recoveryCount() }

// instanceSeed hashes an instance ID into a jitter seed.
func instanceSeed(id string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// newInstanceID returns a fresh random identity for this server process.
func newInstanceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock: uniqueness across restarts is what the
		// prober needs, not cryptographic strength.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// InstanceID returns this process's random instance identity (also reported
// on /healthz).
func (s *Server) InstanceID() string { return s.instanceID }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain stops admission: subsequent submissions get 503 + Retry-After
// while already-accepted jobs keep running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether admission is stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: admission stops, every accepted job runs to its
// terminal state (and its stream gets its terminal line), then the workers
// exit. Meant to be called after the HTTP listener has shut down — with
// net/http, Server.Shutdown already waits for in-flight handlers, each of
// which waits for its job, so Close returns quickly.
func (s *Server) Close() {
	s.BeginDrain()
	s.pool.Close()
	s.journal.close()
}

// CancelRunning cancels the pool's lifetime context: every running job stops
// within one scheduler timeslice with the "drained" reason in its terminal
// frame. The hard half of shutdown, for when the graceful drain's patience
// runs out; Close still waits for the (now canceled) jobs to finish.
func (s *Server) CancelRunning() { s.pool.Cancel() }

// Recovering reports journal-replayed jobs that have not yet reached a
// terminal state.
func (s *Server) Recovering() int64 { return s.recovering.Load() }

// resumeJournal re-runs jobs the previous process acknowledged but never
// finished. Each is decoded from its journaled submission body and resumed
// from its last checkpoint; one that no longer decodes (say the journal
// outlived a schema change) is retired with an error result rather than
// replayed forever. Submission respects the backlog: recovery competes with
// live traffic instead of stampeding past it.
func (s *Server) resumeJournal(pending []*journalJob) {
	for _, jj := range pending {
		req, err := DecodeJob(jj.Body)
		var cfg splitmem.Config
		var prog *splitmem.Program
		if err == nil {
			cfg, err = req.MachineConfig()
		}
		if err == nil {
			prog, err = req.Program()
		}
		if err != nil {
			res := JobResult{ID: jj.ID, Reason: "recovery-failed", Error: err.Error(), Recovered: true}
			if b, jerr := json.Marshal(&res); jerr == nil {
				s.journal.logDone(jj.ID, b)
			}
			s.recovering.Add(-1)
			continue
		}
		// Recovered jobs get a fresh trace: the pre-crash trace died with
		// the old ring, and the replay is a new causal episode anyway.
		var trace string
		if s.rec != nil {
			trace = hostspan.NewTraceID()
		}
		j := &job{
			id:     jj.ID,
			req:    req,
			cfg:    cfg,
			prog:   prog,
			ctx:    context.Background(), // the original client is long gone
			trace:  trace,
			resume: jj,
			done:   make(chan struct{}),
		}
		s.registerLive(j.id, req.Name, jj.Body, trace)
		s.rec.Instant(trace, "rep.admit", "job", strconv.FormatUint(j.id, 10), "recovered", "true")
		task := func(poolCtx context.Context) {
			defer close(j.done)
			s.runJob(poolCtx, j)
		}
		for !s.pool.TrySubmit(task) {
			if s.draining.Load() {
				// Shutdown before resubmission: the job stays in the journal
				// for the next incarnation. Not lost, just postponed.
				s.discardLive(j.id)
				s.recovering.Add(-1)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		go func(j *job) {
			<-j.done
			s.accountResult(&j.result)
			s.recovered.Add(1)
			s.recovering.Add(-1)
		}(j)
	}
}

// Depth reports jobs admitted but not yet finished.
func (s *Server) Depth() int { return s.pool.Depth() }

// Workers reports the effective worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Backlog reports the effective admission-queue capacity.
func (s *Server) Backlog() int { return s.cfg.Backlog }

// mergeJobTelemetry folds one finished machine's metrics into the service
// aggregate.
func (s *Server) mergeJobTelemetry(hub *telemetry.Hub) {
	if hub == nil {
		return
	}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs.Merge(hub.Registry())
}

// --- HTTP plumbing --------------------------------------------------------

// retryAfter derives the Retry-After value from the actual backlog — one
// unit of patience per queued-or-running job per worker — so every 429/503
// path gives the gateway (and any client) the same consistent backoff
// signal instead of a constant.
func (s *Server) retryAfter() string {
	return strconv.Itoa(1 + s.pool.Depth()/s.cfg.Workers)
}

// httpError writes a JSON error body. kind is the stable machine-readable
// discriminator documented in docs/SERVICE.md.
func httpError(w http.ResponseWriter, status int, kind, msg string, extra map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body := map[string]any{"error": kind, "message": msg}
	for k, v := range extra {
		body[k] = v
	}
	json.NewEncoder(w).Encode(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := http.StatusOK
	state := "ok"
	if s.recovering.Load() > 0 {
		state = "recovering" // serving, but journal replay is still in flight
	}
	if s.journal.isDegraded() {
		// Still 200: a degraded journal serves (that is the point), it just
		// is not durable. Routing tiers may deprioritize, not evict.
		state = "degraded"
	}
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	w.WriteHeader(status)
	s.liveMu.Lock()
	liveJobs := len(s.live)
	s.liveMu.Unlock()
	json.NewEncoder(w).Encode(map[string]any{
		"status":         state,
		"workers":        s.cfg.Workers,
		"backlog":        s.cfg.Backlog,
		"depth":          s.pool.Depth(),
		"build":          hostspan.Build(),
		"uptime_seconds": time.Since(s.startTime).Seconds(),
		// Per-replica identity: lets a cluster prober distinguish a
		// restarted replica (new instance id, same URL) from a live one.
		"instance": map[string]any{
			"id":         s.instanceID,
			"start_time": s.startTime.UTC().Format(time.RFC3339Nano),
			"uptime_ms":  time.Since(s.startTime).Milliseconds(),
		},
		"cluster": map[string]any{
			"live_jobs":         liveJobs,
			"migrated_out":      s.migratedOut.Load(),
			"resumed_in":        s.resumedIn.Load(),
			"resume_duplicates": s.resumeDups.Load(),
		},
		"recovery": map[string]any{
			"journal":                  s.journal != nil,
			"journal_degraded":         s.journal.isDegraded(),
			"journal_degraded_seconds": s.journal.degradedSeconds(),
			"journal_recoveries":       s.journal.recoveryCount(),
			"recovering":               s.recovering.Load(),
			"recovered":                s.recovered.Load(),
			"torn_records":             s.journal.tornRecords(),
			"worker_panics":            s.workerPanics.Load(),
			"retries":                  s.retries.Load(),
			"checkpoints":              s.checkpoints.Load(),
			"restores":                 s.restores.Load(),
		},
		"warm_pool": map[string]any{
			"enabled":     s.warm != nil,
			"templates":   s.warm.cachedTemplates(),
			"forks":       s.forks.Load(),
			"warm_hits":   s.warmHits.Load(),
			"warm_misses": s.warmMisses.Load(),
		},
		"tracing": map[string]any{
			"enabled":  s.rec != nil,
			"spans":    s.rec.Len(),
			"recorded": s.rec.Recorded(),
			"dropped":  s.rec.Dropped(),
		},
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Server gauges first, then the merged per-job machine metrics; the
	// mutex keeps the render from racing a worker's merge.
	if err := s.serverReg.WritePrometheus(w); err != nil {
		return
	}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	s.jobs.WritePrometheus(w)
}

// handleTraces serves GET /v1/traces/{id}: every host span this replica
// recorded under the given trace ID, as a JSON TraceDoc. The cluster
// gateway fans this out across replicas to assemble a migrated job's
// merged timeline.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method-not-allowed", "GET /v1/traces/{id}", nil)
		return
	}
	if s.rec == nil {
		httpError(w, http.StatusNotFound, "tracing-disabled", "host-span tracing is disabled on this replica", nil)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "bad-request", "expected /v1/traces/{id}", nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	hostspan.NewTraceDoc(id, s.rec.SpansFor(id)).WriteJSON(w)
}

// wantsStream reports whether the client asked for NDJSON streaming.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" || r.URL.Query().Get("stream") == "true" {
		return true
	}
	return r.Header.Get("Accept") == "application/x-ndjson"
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST a job object", nil)
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.refused.Add(1)
		httpError(w, http.StatusServiceUnavailable, "draining", "server is draining; resubmit elsewhere", nil)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		s.badInput.Add(1)
		httpError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error(), nil)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.badInput.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge, "too-large",
			fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes), nil)
		return
	}

	req, err := DecodeJob(body)
	var cfg splitmem.Config
	var prog *splitmem.Program
	if err == nil {
		cfg, err = req.MachineConfig()
	}
	if err == nil {
		prog, err = req.Program()
	}
	if err != nil {
		s.badInput.Add(1)
		var se *SubmitError
		if errors.As(err, &se) {
			extra := map[string]any{}
			if se.Line > 0 {
				extra["line"] = se.Line
			}
			httpError(w, http.StatusBadRequest, se.Kind, se.Err.Error(), extra)
		} else {
			httpError(w, http.StatusBadRequest, "bad-request", err.Error(), nil)
		}
		return
	}
	deadline, ok := s.checkDeadline(w, r)
	if !ok {
		return
	}

	// Trace identity: honor the gateway's X-Splitmem-Trace header so the
	// spans this replica records can be stitched to the gateway's; mint a
	// fresh ID for standalone submissions. Echoed back on the response so
	// direct clients learn their trace too.
	trace := r.Header.Get(hostspan.TraceHeader)
	if trace == "" && s.rec != nil {
		trace = hostspan.NewTraceID()
	}
	if trace != "" {
		w.Header().Set(hostspan.TraceHeader, trace)
	}

	j := &job{
		id:       s.nextID.Add(1),
		req:      req,
		cfg:      cfg,
		prog:     prog,
		ctx:      r.Context(),
		trace:    trace,
		deadline: deadline,
		done:     make(chan struct{}),
	}

	stream := wantsStream(r)
	var ndj *ndjsonWriter
	if stream {
		ndj = newNDJSONWriter(w, &s.streamed)
		j.sink = ndj
	}

	// Admission. The journal record lands (fsync'd) before TrySubmit so the
	// on-disk order is always submission-then-checkpoint, and before any
	// acknowledgment so a crash can never lose an acknowledged job.
	// TrySubmit never blocks: a full backlog is load the service must shed,
	// not hide in a growing queue.
	s.journal.logJob(j.id, body)
	s.registerLive(j.id, req.Name, body, trace)
	s.rec.Instant(trace, "rep.admit", "job", strconv.FormatUint(j.id, 10), "name", req.Name)
	j.enqueue = s.rec.Begin(trace, "rep.enqueue-wait", "job", strconv.FormatUint(j.id, 10))
	task := func(poolCtx context.Context) {
		defer close(j.done)
		s.runJob(poolCtx, j)
	}
	// The accepted line is the admission acknowledgment: everything after
	// it is the job's own event stream, terminated by exactly one result
	// line — even when the server drains mid-run.
	accepted := map[string]any{"type": "accepted", "id": j.id, "name": req.Name}
	if trace != "" {
		accepted["trace"] = trace
	}
	if !s.submit(task, ndj, accepted) {
		s.discardLive(j.id)
		s.rec.End(j.enqueue, "outcome", "shed")
		// Retire the journal record: a shed job was never acknowledged, so
		// the next incarnation must not replay it.
		if res, err := json.Marshal(&JobResult{ID: j.id, Reason: "shed"}); err == nil {
			s.journal.logDone(j.id, res)
		}
		if s.draining.Load() {
			w.Header().Set("Retry-After", s.retryAfter())
			s.refused.Add(1)
			httpError(w, http.StatusServiceUnavailable, "draining", "server is draining", nil)
			return
		}
		// Tell the client how long the backlog actually is, not a constant:
		// one unit of patience per queued-or-running job per worker, so a
		// deep queue pushes retries further out instead of stampeding back.
		w.Header().Set("Retry-After", s.retryAfter())
		s.rejected.Add(1)
		httpError(w, http.StatusTooManyRequests, "queue-full",
			"admission queue is full; retry after the indicated delay", nil)
		return
	}
	s.accepted.Add(1)

	if stream {
		<-j.done
		s.accountResult(&j.result)
		ndj.Result(&j.result)
		return
	}

	<-j.done
	s.accountResult(&j.result)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&j.result)
}

// submit offers task to the pool and, for a streaming job (ndj non-nil),
// writes the accepted line once the pool takes it. The writer stays locked
// from the offer until that line is out, so a worker whose first slice
// emits events at once cannot stream one ahead of the acknowledgment.
func (s *Server) submit(task fleet.Task, ndj *ndjsonWriter, accepted map[string]any) bool {
	if ndj == nil {
		return s.pool.TrySubmit(task)
	}
	ndj.mu.Lock()
	defer ndj.mu.Unlock()
	if !s.pool.TrySubmit(task) {
		return false
	}
	ndj.lineLocked(accepted)
	return true
}

// accountResult bumps the outcome counters for a finished job.
func (s *Server) accountResult(res *JobResult) {
	s.completed.Add(1)
	if res.Canceled {
		s.canceled.Add(1)
	}
	if res.TimedOut {
		s.timedOut.Add(1)
	}
}

// --- NDJSON streaming -----------------------------------------------------

// ndjsonWriter serializes stream lines to the client. Only the worker (and
// the handler before/after the worker owns the job) writes through it; the
// mutex makes the handoff safe regardless of flusher behavior.
type ndjsonWriter struct {
	mu      sync.Mutex
	w       io.Writer
	flush   http.Flusher
	lines   *atomic.Uint64
	started bool
}

func newNDJSONWriter(w http.ResponseWriter, lines *atomic.Uint64) *ndjsonWriter {
	n := &ndjsonWriter{w: w, lines: lines}
	if f, ok := w.(http.Flusher); ok {
		n.flush = f
	}
	return n
}

// Line writes one NDJSON object and flushes it to the client.
func (n *ndjsonWriter) Line(v any) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lineLocked(v)
}

// lineLocked is Line for a caller that holds n.mu.
func (n *ndjsonWriter) lineLocked(v any) {
	if !n.started {
		if hw, ok := n.w.(http.ResponseWriter); ok {
			hw.Header().Set("Content-Type", "application/x-ndjson")
			hw.Header().Set("Cache-Control", "no-store")
		}
		n.started = true
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	n.w.Write(b)
	io.WriteString(n.w, "\n")
	if n.flush != nil {
		n.flush.Flush()
	}
}

// Event implements eventSink: one line per kernel event, as it happens.
func (n *ndjsonWriter) Event(ev splitmem.Event) {
	n.Line(map[string]any{"type": "event", "event": ev})
	if n.lines != nil {
		n.lines.Add(1)
	}
}

// Result writes the terminal line of the stream.
func (n *ndjsonWriter) Result(res *JobResult) {
	n.Line(map[string]any{"type": "result", "result": res})
}
