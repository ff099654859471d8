package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"splitmem"
	"splitmem/internal/serve"
)

// checkpointFetchRetries bounds refetches of a checkpoint whose CRC gate
// failed (corruption in transit). Past the budget the job resumes from
// scratch — losing progress, never correctness, and never running a
// corrupt image.
const checkpointFetchRetries = 3

// migrateOff detaches every gateway-owned job on a draining replica. The
// detach stops each job at the source with the typed "migrated" frame;
// the job's own relay goroutine observes it and completes the move. Jobs
// belonging to other clients of the replica are untouched.
func (g *Gateway) migrateOff(r *Replica) {
	for _, j := range g.jobsOn(r) {
		_, upstream := j.owner()
		if upstream == 0 {
			continue
		}
		g.detachUpstream(r, upstream, j)
	}
}

// sameJobBody reports whether an exported submission body belongs to the
// job being resumed. Upstream job IDs restart from 1 when a replica
// process restarts, so a fetch against a remembered ID can hit a
// DIFFERENT job on the reborn instance — a perfectly CRC-valid snapshot
// of the wrong program. The export echoes the original submission body;
// comparing it (compacted, so transport re-encoding can't alias) is the
// identity gate. A false negative only costs a scratch resume.
func sameJobBody(exported json.RawMessage, body []byte) bool {
	var a, b bytes.Buffer
	if json.Compact(&a, exported) != nil || json.Compact(&b, body) != nil {
		return bytes.Equal(exported, body)
	}
	return bytes.Equal(a.Bytes(), b.Bytes())
}

// noteStaleExport accounts one identity-gate rejection: the upstream ID
// resolved to somebody else's job (replica restarted and reissued the ID).
func (g *Gateway) noteStaleExport(r *Replica, upstreamID uint64, j *gwJob, exp *serve.CheckpointExport) {
	g.staleExport.Add(1)
	g.rec.Instant(j.trace, "gw.stale-export",
		"replica", r.Label, "upstream", fmt.Sprintf("%d", upstreamID))
	g.flightRecord("stale-checkpoint-export", map[string]any{
		"stage":    "fetch",
		"replica":  r.URL,
		"label":    r.Label,
		"trace":    j.trace,
		"upstream": upstreamID,
		"want_job": j.name,
		"got_job":  exp.Name,
	})
}

// detachUpstream issues the atomic detach fetch for one upstream job and
// returns its CRC-verified checkpoint. A corrupt transfer is refetched from
// the export ring (the detach already happened); exhausting the budget
// yields an empty spec — scratch resume, never a corrupt image. Not
// hedged: the detach is state-changing and must hit exactly one replica.
func (g *Gateway) detachUpstream(r *Replica, upstreamID uint64, j *gwJob) (*resumeSpec, bool) {
	for attempt := 0; attempt <= checkpointFetchRetries; attempt++ {
		exp, err := g.fetchExport(context.Background(), r, upstreamID, attempt == 0)
		if err != nil || exp == nil {
			return nil, false
		}
		if !sameJobBody(exp.Job, j.body) {
			// The replica restarted and the ID now names another job:
			// its checkpoint would resume the wrong program. Scratch.
			g.noteStaleExport(r, upstreamID, j, exp)
			return &resumeSpec{}, true
		}
		if len(exp.Checkpoint) == 0 {
			return &resumeSpec{}, true
		}
		if verr := splitmem.VerifyImage(exp.Checkpoint); verr != nil {
			g.noteCorruptCheckpoint(r, upstreamID, j.trace, len(exp.Checkpoint), exp.Cycles, verr)
			continue
		}
		return &resumeSpec{checkpoint: exp.Checkpoint, cycles: exp.Cycles}, true
	}
	return &resumeSpec{}, true
}

// noteCorruptCheckpoint accounts one CRC-gate rejection and leaves a
// flight-recorder dump naming the replica and checkpoint — chaos-injected
// corruption must produce a self-contained post-mortem artifact.
func (g *Gateway) noteCorruptCheckpoint(r *Replica, upstreamID uint64, trace string, size int, cycles uint64, verr error) {
	g.corruptFetch.Add(1)
	g.rec.Instant(trace, "gw.corrupt-checkpoint",
		"replica", r.Label, "upstream", fmt.Sprintf("%d", upstreamID))
	g.flightRecord("checkpoint-crc-mismatch", map[string]any{
		"stage":      "fetch",
		"replica":    r.URL,
		"label":      r.Label,
		"trace":      trace,
		"checkpoint": fmt.Sprintf("upstream job %d (%d bytes, %d cycles)", upstreamID, size, cycles),
		"upstream":   upstreamID,
		"bytes":      size,
		"cycles":     cycles,
		"error":      verr.Error(),
	})
}

// fetchCheckpoint retrieves the freshest CRC-valid checkpoint for a job
// that has already been detached (or whose replica died). Corrupt
// transfers are refetched up to checkpointFetchRetries times; a dead or
// checkpoint-less source yields an empty spec, which resumes the job from
// scratch with the cursor suppressing the already-streamed prefix.
//
// When the job has migrated before, the fetch is HEDGED: the previous
// hop's export ring (which still holds that hop's last checkpoint —
// older, but CRC-valid) races the current owner's, with the primary
// given a Config.HedgeDelay head start. First valid non-empty checkpoint
// wins and the loser is canceled. A crashed or slow-loris'd owner costs
// one HedgeDelay instead of a full timeout-and-retry ladder; the price of
// a hedge win is re-running from an older cycle count, never correctness
// (determinism plus the client cursor dedupe the replayed prefix).
func (g *Gateway) fetchCheckpoint(rep *Replica, j *gwJob) *resumeSpec {
	_, upstream := j.owner()
	prevRep, prevUp := j.prevOwner()

	type arm struct {
		rep      *Replica
		upstream uint64
		delay    time.Duration
	}
	var arms []arm
	if upstream != 0 {
		arms = append(arms, arm{rep, upstream, 0})
	}
	if prevRep != nil && prevRep != rep && prevUp != 0 {
		arms = append(arms, arm{prevRep, prevUp, g.cfg.HedgeDelay})
	}
	switch len(arms) {
	case 0:
		return &resumeSpec{} // never admitted anywhere: scratch resume
	case 1:
		spec := g.fetchVerified(context.Background(), arms[0].rep, arms[0].upstream, j)
		if spec == nil {
			spec = &resumeSpec{}
		}
		return spec
	}

	g.hedgedFetches.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type armResult struct {
		idx  int
		spec *resumeSpec
	}
	results := make(chan armResult, len(arms))
	for i, a := range arms {
		go func(i int, a arm) {
			if a.delay > 0 {
				t := time.NewTimer(a.delay)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					results <- armResult{i, nil}
					return
				}
			}
			results <- armResult{i, g.fetchVerified(ctx, a.rep, a.upstream, j)}
		}(i, a)
	}
	var fallback *resumeSpec
	for range arms {
		r := <-results
		if r.spec != nil && len(r.spec.checkpoint) > 0 {
			if r.idx == 0 {
				g.hedgeLosses.Add(1)
			} else {
				g.hedgeWins.Add(1)
			}
			g.rec.Instant(j.trace, "gw.hedge",
				"winner", arms[r.idx].rep.Label, "arm", strconv.Itoa(r.idx))
			return r.spec
		}
		if fallback == nil && r.spec != nil {
			fallback = r.spec
		}
	}
	if fallback == nil {
		fallback = &resumeSpec{}
	}
	return fallback
}

// fetchVerified runs the retry-until-valid fetch loop against one
// replica's export ring. nil means the context was canceled (the other
// hedge arm won); an empty spec means the source is gone or has no
// checkpoint — scratch resume.
func (g *Gateway) fetchVerified(ctx context.Context, rep *Replica, upstream uint64, j *gwJob) *resumeSpec {
	for attempt := 0; attempt <= checkpointFetchRetries; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		exp, err := g.fetchExport(ctx, rep, upstream, false)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil || exp == nil {
			return &resumeSpec{} // source gone: scratch resume
		}
		if !sameJobBody(exp.Job, j.body) {
			// Replica restarted; the ID was reissued to another job. Its
			// snapshot is CRC-valid but of the WRONG PROGRAM — resuming it
			// silently replaces the job's execution. Scratch resume instead:
			// determinism plus the client cursor replay the lost progress.
			g.noteStaleExport(rep, upstream, j, exp)
			return &resumeSpec{}
		}
		if len(exp.Checkpoint) == 0 {
			return &resumeSpec{} // no checkpoint yet: scratch resume
		}
		if verr := splitmem.VerifyImage(exp.Checkpoint); verr != nil {
			// The transfer was corrupted on the wire (or by the chaos
			// injector standing in for the wire). The CRC gate catches it;
			// refetch. NEVER resume a corrupt image. An intact image in
			// another format version is shipped as is: the target either
			// reads it or restarts the job from cycle 0.
			g.noteCorruptCheckpoint(rep, upstream, j.trace, len(exp.Checkpoint), exp.Cycles, verr)
			continue
		}
		return &resumeSpec{checkpoint: exp.Checkpoint, cycles: exp.Cycles}
	}
	return &resumeSpec{}
}

// fetchExport performs one checkpoint-export GET. The chaos injector gets
// a chance to corrupt the image in transit — the caller's CRC gate must
// catch it.
func (g *Gateway) fetchExport(ctx context.Context, r *Replica, upstreamID uint64, detach bool) (*serve.CheckpointExport, error) {
	url := fmt.Sprintf("%s/v1/jobs/%d/checkpoint", r.URL, upstreamID)
	if detach {
		url += "?detach=1"
	}
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("checkpoint fetch: status %d", resp.StatusCode)
	}
	var exp serve.CheckpointExport
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		return nil, err
	}
	g.chaos.CorruptCheckpoint(exp.Checkpoint)
	return &exp, nil
}
