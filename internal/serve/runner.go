package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"splitmem"
	"splitmem/internal/telemetry/hostspan"
)

// job is one admitted unit of work: the compiled request plus its delivery
// plumbing. The worker goroutine owns the machine; the handler goroutine
// only waits on done.
type job struct {
	id       uint64
	req      *JobRequest
	cfg      splitmem.Config
	prog     *splitmem.Program
	ctx      context.Context // request context: client disconnect cancels it
	sink     eventSink       // nil for synchronous jobs
	resume   *journalJob     // non-nil for jobs replayed from the journal or resumed from a shipped checkpoint
	cursor   int             // event lines already delivered to the client (migration stitch point)
	migrated bool            // job arrived via /v1/jobs/resume (cluster migration)
	deadline time.Time       // propagated X-Splitmem-Deadline (zero = none)
	trace    string          // host-span trace ID ("" when tracing is off)
	enqueue  hostspan.SpanID // rep.enqueue-wait span, opened at admission
	result   JobResult
	done     chan struct{}
}

// eventSink receives kernel events as the run produces them. Emit errors
// are deliberately ignored by the runner: a broken client stream must not
// abort the simulation (the job still completes and is accounted for).
type eventSink interface {
	Event(ev splitmem.Event)
}

// Cancellation causes. The old implementation funneled the drain signal and
// the client disconnect into one bare cancel() on a shared context, so a
// SIGTERM racing a disconnect produced an arbitrary, indistinguishable
// "canceled" — now each source cancels with its own cause, the first one
// wins atomically, and the final frame names it.
var (
	errClientGone = errors.New("client disconnected")
	errDrained    = errors.New("server draining")
	errJobExpired = errors.New("job wall clock expired")
	errDeadline   = errors.New("propagated deadline expired")
	errMigrated   = errors.New("job detached for migration")
)

// supervision is the retry state threaded through a job's attempts: the most
// recent checkpoint (image + cycles already charged against the budget) and
// the event-stream cursor, which persists across attempts so a replayed
// prefix is never double-streamed to the client.
type supervision struct {
	img    []byte
	cycles uint64
	cursor int
}

// runJob executes one job to its terminal state under supervision: attempts
// that die (worker panic) or hang (slice watchdog) are retried from the last
// checkpoint with exponential backoff, until the retry budget is spent and
// the job fails with the typed "failed-after-retries" reason. poolCtx is the
// worker pool's lifetime context (canceled only on hard shutdown).
func (s *Server) runJob(poolCtx context.Context, j *job) {
	start := time.Now()
	s.rec.End(j.enqueue, "outcome", "run")
	res := &j.result
	res.ID = j.id
	res.Name = j.req.Name

	timeout := time.Duration(j.req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	// The propagated deadline caps the wall budget: the client stops
	// waiting at that instant no matter what the job asked for.
	expireCause := errJobExpired
	if !j.deadline.IsZero() {
		if rem := time.Until(j.deadline); rem < timeout {
			timeout = rem
			expireCause = errDeadline
		}
	}
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}

	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(context.Canceled)
	stopClient := context.AfterFunc(j.ctx, func() { cancel(errClientGone) })
	defer stopClient()
	stopPool := context.AfterFunc(poolCtx, func() { cancel(errDrained) })
	defer stopPool()
	expire := time.AfterFunc(timeout, func() { cancel(expireCause) })
	defer expire.Stop()

	// Hook the run into the live registry so a gateway can detach it for
	// migration; a job detached while still queued stops before it starts.
	defer s.finishLive(j.id)
	if lj := s.lookupLive(j.id); lj != nil {
		if lj.attach(cancel) {
			cancel(errMigrated)
		}
	}

	sup := supervision{cursor: j.cursor}
	if j.resume != nil {
		sup.img, sup.cycles = j.resume.Checkpoint, j.resume.Cycles
		if !j.migrated {
			res.Recovered = true
		}
	}
	res.Migrated = j.migrated

	attempts := s.cfg.RetryBudget
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		runSpan := s.rec.Begin(j.trace, "rep.run",
			"job", strconv.FormatUint(j.id, 10), "attempt", strconv.Itoa(attempt))
		perr := s.runAttempt(ctx, j, &sup)
		if perr == nil {
			s.rec.End(runSpan, "reason", res.Reason)
			break // terminal result filled in
		}
		s.rec.End(runSpan, "error", perr.Error())
		if attempt >= attempts {
			res.Reason = "failed-after-retries"
			res.Error = perr.Error()
			res.Cycles = sup.cycles
			break
		}
		s.retries.Add(1)
		// Jittered exponential backoff: a worker-kill chaos storm (or a
		// genuinely sick host) restarts many attempts at once, and without
		// jitter they all re-land on the pool in the same instant.
		backoff := s.jitter.Scale(s.cfg.RetryBackoff << (attempt - 1))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			res.Cycles = sup.cycles
			finishCanceled(res, ctx)
		}
		if ctx.Err() != nil {
			break
		}
	}
	res.Wall = time.Since(start)
	s.rec.Instant(j.trace, "rep.result",
		"job", strconv.FormatUint(j.id, 10), "reason", res.Reason)
	if b, err := json.Marshal(res); err == nil {
		s.journal.logDone(j.id, b)
	}
}

// finishCanceled translates the cancellation cause into the result's
// terminal reason, keeping drain, disconnect, and timeout distinguishable.
func finishCanceled(res *JobResult, ctx context.Context) {
	switch context.Cause(ctx) {
	case errJobExpired:
		res.TimedOut = true
		res.Reason = "timeout"
	case errDeadline:
		res.TimedOut = true
		res.Reason = "deadline-exceeded"
	case errDrained:
		res.Canceled = true
		res.Reason = "drained"
	case errMigrated:
		// Detached for migration: a peer resumes from the shipped
		// checkpoint; this replica's stream ends with the typed frame the
		// gateway swallows.
		res.Canceled = true
		res.Reason = "migrated"
	default: // client disconnect (or its request context's own deadline)
		res.Canceled = true
		res.Reason = "canceled"
	}
}

// runAttempt runs the job from its latest checkpoint (or from scratch) to a
// terminal state, checkpointing as it goes. It returns nil when the job
// reached a terminal state — including cancellation and client-attributable
// load errors — and an error when the attempt died (panic) or hung
// (watchdog), in which case the supervisor decides whether to retry.
func (s *Server) runAttempt(ctx context.Context, j *job, sup *supervision) (err error) {
	res := &j.result
	defer func() {
		if r := recover(); r != nil {
			s.workerPanics.Add(1)
			err = fmt.Errorf("worker panic: %v", r)
		}
	}()

	budget := j.req.MaxCycles
	if budget == 0 {
		budget = s.cfg.DefaultMaxCycles
	}
	if budget > s.cfg.MaxCyclesCap {
		budget = s.cfg.MaxCyclesCap
	}

	// Build the machine: from the checkpoint image when one exists, from the
	// program otherwise. A checkpoint that fails to restore (a torn journal
	// image adopted before the tear was detected, or one written in an
	// older format by a build before an upgrade) falls back to a fresh
	// start — losing progress, never the job.
	var (
		m    *splitmem.Machine
		p    *splitmem.Process
		used uint64
	)
	// Release the machine's reference on any shared template frames when the
	// attempt ends, whichever path built it (forked machines hold a refcount
	// on their template's frame store; Close is a no-op for cold boots).
	defer func() {
		if m != nil {
			m.Close()
		}
	}()
	if sup.img != nil {
		rspan := s.rec.Begin(j.trace, "rep.restore",
			"cycles", strconv.FormatUint(sup.cycles, 10), "bytes", strconv.Itoa(len(sup.img)))
		img, rerr := splitmem.ReadImage(bytes.NewReader(sup.img))
		if rerr == nil {
			m, rerr = img.Boot()
		}
		if rerr == nil {
			used = sup.cycles
			s.restores.Add(1)
			s.rec.End(rspan)
		} else {
			sup.img, sup.cycles = nil, 0
			s.rec.End(rspan, "error", rerr.Error())
		}
	}
	if m == nil && s.warm != nil && j.ctx.Err() == nil {
		// Warm path: fork a machine off the job class's template image —
		// bit-identical to the cold boot below, minus the assemble/load/boot
		// cost. Any failure inside warmFork leaves m nil and the cold path
		// reproduces (and correctly attributes) the error.
		if wm, wp := s.warmFork(j); wm != nil {
			m, p = wm, wp
			if in := j.req.InputBytes(); len(in) > 0 {
				p.StdinWrite(in)
			}
			if !j.req.KeepStdin {
				p.StdinClose()
			}
		}
	}
	if m == nil {
		nm, nerr := splitmem.New(j.cfg)
		if nerr != nil {
			// The config was validated at admission; reaching here is internal.
			res.Reason = "internal-error"
			res.Error = nerr.Error()
			return nil
		}
		np, lerr := nm.LoadProgram(j.prog, j.req.Name)
		if lerr != nil {
			// Structurally valid images can still be unloadable (e.g. exhaust
			// physical memory): the client's input, the client's error.
			res.Reason = "load-error"
			res.Error = lerr.Error()
			return nil
		}
		m, p = nm, np
		if in := j.req.InputBytes(); len(in) > 0 {
			p.StdinWrite(in)
		}
		if !j.req.KeepStdin {
			p.StdinClose()
		}
	} else {
		rp, ok := m.Kernel().Process(1)
		if !ok {
			return fmt.Errorf("checkpoint restored without its root process")
		}
		p = rp
	}

	// Slice loop: run at most StreamSlice cycles at a time, forwarding the
	// events each slice emitted (EventsSince — the incremental API exists
	// for exactly this poller) so streamed detections leave the server
	// within one slice of the simulated moment they happened. The cursor
	// outlives the attempt: a retried attempt re-simulates the stretch since
	// the checkpoint, and pump skips everything already on the wire.
	pump := func() {
		if j.sink == nil {
			sup.cursor = m.EventSeq()
			return
		}
		if m.EventSeq() <= sup.cursor {
			return // replaying an already-streamed prefix
		}
		for _, ev := range m.EventsSince(sup.cursor) {
			j.sink.Event(ev)
		}
		sup.cursor = m.EventSeq()
	}

	var final splitmem.RunResult
	lastCkpt := used
	for {
		slice := s.cfg.StreamSlice
		if remaining := budget - used; slice > remaining {
			slice = remaining
		}
		sliceCtx := ctx
		var sliceCancel context.CancelFunc
		if s.cfg.WatchdogSlice > 0 {
			sliceCtx, sliceCancel = context.WithTimeout(ctx, s.cfg.WatchdogSlice)
		}
		sliceSpan := s.rec.Begin(j.trace, "rep.run-slice")
		final = m.RunContext(sliceCtx, slice)
		if sliceCancel != nil {
			sliceCancel()
		}
		used += final.Cycles
		s.rec.End(sliceSpan, "cycles", strconv.FormatUint(final.Cycles, 10))
		if s.cfg.Faults.KillWorker() {
			// Injected crash before this slice's events reach the wire: the
			// retry must replay and deliver them exactly once.
			panic("chaos: worker killed mid-slice")
		}
		pump()
		if final.Reason == splitmem.ReasonCanceled && ctx.Err() == nil {
			// Only the slice watchdog expired: the machine is hung (or the
			// slice is pathologically slow) but the job itself is still
			// wanted. Treat like a crash and retry from the checkpoint.
			return fmt.Errorf("watchdog: slice exceeded %v", s.cfg.WatchdogSlice)
		}
		if final.Reason != splitmem.ReasonBudget {
			break // all-done, deadlock, waiting-input, canceled, internal
		}
		if used >= budget {
			break // the job's own budget, not just a slice boundary
		}
		if ck := s.cfg.CheckpointCycles; ck > 0 && used-lastCkpt >= ck {
			ckSpan := s.rec.Begin(j.trace, "rep.checkpoint")
			if img, serr := m.Snapshot(); serr == nil {
				sup.img, sup.cycles = img, used
				lastCkpt = used
				s.checkpoints.Add(1)
				// The live registry gets the same image so a gateway can
				// ship it to a peer mid-run.
				s.liveCheckpoint(j.id, img, used)
				// A failed append costs durability, not correctness: the
				// in-memory image above still backs in-process retries.
				s.journal.logCheckpoint(j.id, used, img)
				s.rec.End(ckSpan,
					"bytes", strconv.Itoa(len(img)), "cycles", strconv.FormatUint(used, 10))
				if s.afterCheckpoint != nil {
					s.afterCheckpoint(ctx, j.id)
				}
			} else {
				s.rec.End(ckSpan, "error", serr.Error())
			}
		}
	}

	res.Reason = final.Reason.String()
	res.Cycles = used
	if final.Reason == splitmem.ReasonCanceled {
		finishCanceled(res, ctx)
	}
	if final.Reason == splitmem.ReasonInternalError {
		res.Error = final.Panic
	}
	res.Exited, res.ExitStatus = p.Exited()
	var sig splitmem.Signal
	res.Killed, sig = p.Killed()
	if res.Killed {
		res.Signal = sig.String()
	}
	res.ShellSpawned = p.ShellSpawned()
	res.Detections = len(m.EventsOf(splitmem.EvInjectionDetected))
	res.EventCount = m.EventSeq()
	res.Stdout = string(p.StdoutDrain())
	if j.sink == nil {
		res.Events = m.Events()
	}
	st := m.Stats()
	res.Stats = &st

	// Fold the machine's metrics into the service aggregate. Registry.Merge
	// is the one goroutine-safe registry entry point; the server's mutex
	// additionally serializes merges against /metrics renders.
	s.mergeJobTelemetry(m.Telemetry())
	return nil
}
