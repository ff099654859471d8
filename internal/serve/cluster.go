package serve

// The replica half of the cluster protocol (the gateway half lives in
// internal/cluster): every in-flight job keeps its latest checkpoint image
// registered so a gateway can ship it to a peer, and two endpoints extend
// the service surface —
//
//	GET  /v1/jobs/{id}/checkpoint[?detach=1]  export the job's latest
//	     CRC'd snapshot image (plus the original submission body). With
//	     detach=1 the job is atomically detached: it stops with the typed
//	     "migrated" terminal frame and will not run here again, so exactly
//	     one replica owns a job at any instant.
//	POST /v1/jobs/resume[?stream=1]           resume a migrated job from a
//	     shipped checkpoint (or from scratch when none exists — the
//	     deterministic simulation reproduces the identical stream). The
//	     request's cursor seeds the event pump, so lines the client already
//	     received are never re-streamed: the NDJSON stream stitches across
//	     the migration on the EventsSince cursor machinery.
//
// Resume is idempotent per migration key: a duplicate claim is answered
// 409, which is how "two replicas claim the same migrated job" resolves to
// exactly one winner even when a gateway retry races a slow first attempt.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"splitmem"
	"splitmem/internal/telemetry/hostspan"
)

// maxExports bounds the retained checkpoint exports of detached jobs, kept
// so a gateway whose fetch was corrupted in transit can refetch after the
// job has already stopped here.
const maxExports = 64

// liveJob is the migration-facing state of one in-flight job: the original
// submission body, the latest checkpoint, and the cancel hook that detaches
// the run.
type liveJob struct {
	id    uint64
	name  string
	body  []byte
	trace string // host-span trace ID ("" when tracing is off)

	mu       sync.Mutex
	img      []byte // latest checkpoint image (nil before the first)
	cycles   uint64 // simulated cycles consumed at that checkpoint
	detached bool
	cancel   context.CancelCauseFunc // installed by the runner; nil while queued
}

// attach installs the runner's cancel hook and reports whether the job was
// detached while still queued (in which case the runner must stop
// immediately with the migrated frame instead of running a detached job).
func (lj *liveJob) attach(cancel context.CancelCauseFunc) (detached bool) {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	lj.cancel = cancel
	return lj.detached
}

// CheckpointExport is the wire form of a checkpoint fetch: everything a
// peer needs to resume the job, CRC'd end to end (the snapshot image
// carries its own trailer checksum; VerifySnapshot is the transfer gate).
type CheckpointExport struct {
	ID         uint64          `json:"id"`
	Name       string          `json:"name,omitempty"`
	Job        json.RawMessage `json:"job"`
	Checkpoint []byte          `json:"checkpoint,omitempty"` // base64 snapshot image
	Cycles     uint64          `json:"cycles,omitempty"`
	Detached   bool            `json:"detached"`
}

// registerLive adds a job to the live registry. Called before the job is
// offered to the pool so the runner's attach can never miss it.
func (s *Server) registerLive(id uint64, name string, body []byte, trace string) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	s.live[id] = &liveJob{id: id, name: name, body: body, trace: trace}
}

// discardLive removes a job that was never admitted (shed after
// registration) without retaining an export.
func (s *Server) discardLive(id uint64) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	delete(s.live, id)
}

// lookupLive returns the live entry for id, or nil.
func (s *Server) lookupLive(id uint64) *liveJob {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return s.live[id]
}

// liveCheckpoint records a job's latest checkpoint image.
func (s *Server) liveCheckpoint(id uint64, img []byte, cycles uint64) {
	lj := s.lookupLive(id)
	if lj == nil {
		return
	}
	lj.mu.Lock()
	lj.img, lj.cycles = img, cycles
	lj.mu.Unlock()
}

// finishLive retires a job from the live registry. Detached jobs leave a
// bounded export behind so a corrupted checkpoint transfer can be refetched
// after the source run has already stopped.
func (s *Server) finishLive(id uint64) {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	lj := s.live[id]
	delete(s.live, id)
	if lj == nil {
		return
	}
	lj.mu.Lock()
	detached := lj.detached
	exp := lj.exportLocked()
	lj.mu.Unlock()
	if !detached {
		return
	}
	s.exports[id] = exp
	s.exportOrder = append(s.exportOrder, id)
	for len(s.exportOrder) > maxExports {
		delete(s.exports, s.exportOrder[0])
		s.exportOrder = s.exportOrder[1:]
	}
}

// exportLocked snapshots the live entry as a wire export. Caller holds lj.mu.
func (lj *liveJob) exportLocked() *CheckpointExport {
	exp := &CheckpointExport{
		ID:       lj.id,
		Name:     lj.name,
		Job:      json.RawMessage(lj.body),
		Cycles:   lj.cycles,
		Detached: lj.detached,
	}
	if lj.img != nil {
		exp.Checkpoint = append([]byte(nil), lj.img...)
	}
	return exp
}

// exportCheckpoint fetches a job's latest checkpoint, detaching the run
// when asked. The detach is atomic under the entry's mutex: the first
// detach wins, cancels the run with the migrated cause, and bumps the
// counter; later fetches still see the export.
func (s *Server) exportCheckpoint(id uint64, detach bool) (*CheckpointExport, bool) {
	s.liveMu.Lock()
	lj := s.live[id]
	if lj == nil {
		exp, ok := s.exports[id]
		s.liveMu.Unlock()
		return exp, ok
	}
	s.liveMu.Unlock()

	lj.mu.Lock()
	var cancel context.CancelCauseFunc
	firstDetach := false
	if detach && !lj.detached {
		lj.detached = true
		firstDetach = true
		cancel = lj.cancel // nil while queued: the runner checks on attach
	}
	exp := lj.exportLocked()
	trace := lj.trace
	lj.mu.Unlock()
	if detach {
		exp.Detached = true
	}
	if cancel != nil {
		cancel(errMigrated)
	}
	if firstDetach {
		s.migratedOut.Add(1)
		s.rec.Instant(trace, "rep.detach", "job", strconv.FormatUint(id, 10))
	}
	s.rec.Instant(trace, "rep.checkpoint-export",
		"job", strconv.FormatUint(id, 10),
		"bytes", strconv.Itoa(len(exp.Checkpoint)),
		"cycles", strconv.FormatUint(exp.Cycles, 10))
	return exp, true
}

// MigratedOut reports jobs detached and shipped to a peer replica.
func (s *Server) MigratedOut() uint64 { return s.migratedOut.Load() }

// ResumedIn reports migration resumes accepted by this replica.
func (s *Server) ResumedIn() uint64 { return s.resumedIn.Load() }

// LiveJobs reports jobs currently registered as in flight (queued or
// running, not yet finished or detached). A draining daemon keeps its
// listener up until this reaches zero so a gateway can migrate the
// remainder off via checkpoint export.
func (s *Server) LiveJobs() int {
	s.liveMu.Lock()
	defer s.liveMu.Unlock()
	return len(s.live)
}

// --- HTTP surface ---------------------------------------------------------

// handleJobsSubtree routes /v1/jobs/... paths: the resume endpoint and the
// per-job checkpoint export.
func (s *Server) handleJobsSubtree(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if rest == "resume" {
		s.handleResume(w, r)
		return
	}
	if idStr, ok := strings.CutSuffix(rest, "/checkpoint"); ok {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err == nil {
			s.handleJobCheckpoint(w, r, id)
			return
		}
	}
	httpError(w, http.StatusNotFound, "not-found", "unknown job endpoint", nil)
}

// handleJobCheckpoint serves GET /v1/jobs/{id}/checkpoint. It works while
// draining on purpose — migration off a draining replica is exactly when
// the gateway calls it.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request, id uint64) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "method-not-allowed", "GET the checkpoint", nil)
		return
	}
	detach := r.URL.Query().Get("detach") == "1"
	exp, ok := s.exportCheckpoint(id, detach)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown-job", fmt.Sprintf("job %d is not in flight here", id), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(exp)
}

// handleResume serves POST /v1/jobs/resume: the migration submission path.
// It mirrors handleJobs — same admission queue, same journal durability,
// same 400 mapping for the embedded job body — plus the checkpoint CRC gate
// and the per-key idempotency claim.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "method-not-allowed", "POST a resume object", nil)
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", s.retryAfter())
		s.refused.Add(1)
		httpError(w, http.StatusServiceUnavailable, "draining", "server is draining; resume elsewhere", nil)
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

	rr, err := DecodeResume(body)
	var req *JobRequest
	var cfg splitmem.Config
	var prog *splitmem.Program
	if err == nil {
		req, err = DecodeJob(rr.Job)
	}
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
	// The transfer-integrity gate: a checkpoint that was corrupted on the
	// wire fails its own CRC here and is rejected before anything runs —
	// a corrupt image is refetched by the gateway, never resumed.
	if len(rr.Checkpoint) > 0 {
		if verr := splitmem.VerifySnapshot(rr.Checkpoint); verr != nil {
			s.badInput.Add(1)
			httpError(w, http.StatusBadRequest, "bad-checkpoint", verr.Error(), nil)
			return
		}
	}

	// Idempotency: claim the migration key before admission. The claim is
	// released only if this submission is shed, so a duplicate claim —
	// a gateway retry racing its own slow first attempt — loses with 409
	// and the job runs exactly once here.
	if rr.Key != "" {
		s.liveMu.Lock()
		if prev, dup := s.resumeKeys[rr.Key]; dup {
			s.liveMu.Unlock()
			s.resumeDups.Add(1)
			httpError(w, http.StatusConflict, "duplicate-resume",
				"migration key already claimed", map[string]any{"id": prev})
			return
		}
		s.resumeKeys[rr.Key] = 0
		s.liveMu.Unlock()
	}
	releaseKey := func() {
		if rr.Key == "" {
			return
		}
		s.liveMu.Lock()
		delete(s.resumeKeys, rr.Key)
		s.liveMu.Unlock()
	}

	id := s.nextID.Add(1)
	if rr.Key != "" {
		s.liveMu.Lock()
		s.resumeKeys[rr.Key] = id
		s.liveMu.Unlock()
	}

	// Trace continuity: the gateway forwards the job's original trace ID in
	// the header, so the spans this replica records join the same causal
	// timeline the source replica started.
	trace := r.Header.Get(hostspan.TraceHeader)
	if trace == "" && s.rec != nil {
		trace = hostspan.NewTraceID()
	}
	if trace != "" {
		w.Header().Set(hostspan.TraceHeader, trace)
	}

	j := &job{
		id:       id,
		req:      req,
		cfg:      cfg,
		prog:     prog,
		ctx:      r.Context(),
		done:     make(chan struct{}),
		cursor:   rr.Cursor,
		migrated: true,
		deadline: deadline,
		trace:    trace,
	}
	if len(rr.Checkpoint) > 0 {
		j.resume = &journalJob{ID: id, Body: rr.Job, Checkpoint: rr.Checkpoint, Cycles: rr.Cycles}
	}

	stream := wantsStream(r)
	var ndj *ndjsonWriter
	if stream {
		ndj = newNDJSONWriter(w, &s.streamed)
		j.sink = ndj
	}

	// Durability mirrors handleJobs: the journal holds the ORIGINAL job
	// body plus the shipped checkpoint, so a replica crash replays the
	// migrated job through the ordinary recovery path.
	s.journal.logJob(id, rr.Job)
	if len(rr.Checkpoint) > 0 {
		s.journal.logCheckpoint(id, rr.Cycles, rr.Checkpoint)
	}
	s.registerLive(id, req.Name, rr.Job, trace)
	s.rec.Instant(trace, "rep.resume",
		"job", strconv.FormatUint(id, 10),
		"key", rr.Key,
		"cursor", strconv.Itoa(rr.Cursor),
		"checkpoint_cycles", strconv.FormatUint(rr.Cycles, 10))
	j.enqueue = s.rec.Begin(trace, "rep.enqueue-wait", "job", strconv.FormatUint(id, 10))
	task := func(poolCtx context.Context) {
		defer close(j.done)
		s.runJob(poolCtx, j)
	}
	accepted := map[string]any{"type": "accepted", "id": id, "name": req.Name, "resumed": true}
	if trace != "" {
		accepted["trace"] = trace
	}
	if !s.submit(task, ndj, accepted) {
		s.discardLive(id)
		releaseKey()
		s.rec.End(j.enqueue, "outcome", "shed")
		if res, jerr := json.Marshal(&JobResult{ID: id, Reason: "shed"}); jerr == nil {
			s.journal.logDone(id, res)
		}
		if s.draining.Load() {
			w.Header().Set("Retry-After", s.retryAfter())
			s.refused.Add(1)
			httpError(w, http.StatusServiceUnavailable, "draining", "server is draining", nil)
			return
		}
		w.Header().Set("Retry-After", s.retryAfter())
		s.rejected.Add(1)
		httpError(w, http.StatusTooManyRequests, "queue-full",
			"admission queue is full; retry after the indicated delay", nil)
		return
	}
	s.accepted.Add(1)
	s.resumedIn.Add(1)

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
