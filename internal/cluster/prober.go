package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"time"
)

// healthzBody is the slice of a replica's /healthz the prober reads.
type healthzBody struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Backlog  int    `json:"backlog"`
	Depth    int    `json:"depth"`
	Instance struct {
		ID string `json:"id"`
	} `json:"instance"`
	Tracing struct {
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`
	} `json:"tracing"`
	Recovery struct {
		WorkerPanics uint64 `json:"worker_panics"`
	} `json:"recovery"`
}

// probeLoop polls every replica until the gateway closes.
func (g *Gateway) probeLoop() {
	defer g.probeWG.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.probeCtx.Done():
			return
		case <-t.C:
			for _, r := range g.replicas {
				g.probeOnce(r)
			}
		}
	}
}

// probeOnce probes one replica and updates its state. A replica that
// transitions to draining gets its gateway-owned jobs detached for
// migration; one that comes back with a new instance ID is counted as a
// restart and re-admitted.
func (g *Gateway) probeOnce(r *Replica) {
	ctx, cancel := context.WithTimeout(g.probeCtx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL+"/healthz", nil)
	if err != nil {
		g.probeFailed(r)
		return
	}
	start := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		g.probeFailed(r)
		return
	}
	defer resp.Body.Close()
	var h healthzBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		// A draining replica answers 503 but still carries a well-formed
		// body; only an unparseable response is a failed probe.
		g.probeFailed(r)
		return
	}
	g.observeProbeRTT(time.Since(start))

	r.mu.Lock()
	prev := r.state
	r.probes++
	firstProbe := r.probes == 1
	r.failures = 0
	if h.Instance.ID != "" && r.instanceID != "" && h.Instance.ID != r.instanceID {
		r.restarts++
	}
	r.instanceID = h.Instance.ID
	r.workers = h.Workers
	r.backlog = h.Backlog
	r.depth = h.Depth
	r.spansRecorded = h.Tracing.Recorded
	r.spansDropped = h.Tracing.Dropped
	panicsBefore := r.workerPanics
	r.workerPanics = h.Recovery.WorkerPanics
	switch {
	case h.Status == "draining":
		r.state = StateDraining
	case h.Workers > 0 && h.Depth >= h.Workers+h.Backlog:
		// Admission queue effectively full: submissions would shed. Keep it
		// routable as a last resort only.
		r.state = StateDegraded
	default:
		r.state = StateUp
	}
	cur := r.state
	r.mu.Unlock()
	// A successful probe is the breaker's recovery signal: an open breaker
	// half-opens (probe-driven recovery), a half-open one re-closes.
	r.br.noteProbeSuccess()

	if cur != prev {
		g.noteTransition(r, prev, cur)
	}
	if !firstProbe && h.Recovery.WorkerPanics > panicsBefore {
		// A replica worker panicked since the last probe: a recoverable
		// fault, but exactly what the flight recorder is for.
		g.flightRecord("worker-panic", map[string]any{
			"replica":       r.URL,
			"label":         r.Label,
			"worker_panics": h.Recovery.WorkerPanics,
		})
	}

	if cur == StateDraining {
		// The migration trigger: detach every gateway job on the draining
		// replica. Each relay goroutine sees its job's migrated frame and
		// carries the checkpoint to a peer. This runs on EVERY draining
		// observation, not just the transition: a job whose accepted frame
		// was still in flight during the first sweep is caught by the next
		// one (detaching an already-detached job is a no-op).
		go g.migrateOff(r)
	}
}

func (g *Gateway) probeFailed(r *Replica) {
	r.mu.Lock()
	prev := r.state
	r.probes++
	r.failures++
	if r.failures >= g.cfg.FailThreshold {
		r.state = StateDown
	}
	cur := r.state
	r.mu.Unlock()
	r.br.noteFailure()
	if cur != prev {
		g.noteTransition(r, prev, cur)
	}
}

// noteStreamFailureOn routes a relay-observed stream break through the
// failure detector and records any resulting state transition exactly as
// a failed probe would — a crash detected by a breaking relay deserves
// the same incident-timeline entry and flight-recorder dump.
func (g *Gateway) noteStreamFailureOn(r *Replica) {
	prev, cur := r.noteStreamFailure(g.cfg.FailThreshold)
	if cur != prev {
		g.noteTransition(r, prev, cur)
	}
}

// noteTransition records a replica state change as a process-level span
// and, when the change is a death, a flight-recorder dump: the prober is
// the gateway's failure detector, so its transitions are the cluster's
// incident timeline.
func (g *Gateway) noteTransition(r *Replica, prev, cur State) {
	g.rec.Instant("", "gw.probe-transition",
		"replica", r.Label, "url", r.URL, "from", prev.String(), "to", cur.String())
	if cur == StateDown {
		g.flightRecord("replica-down", map[string]any{
			"replica": r.URL,
			"label":   r.Label,
			"from":    prev.String(),
		})
	}
}
