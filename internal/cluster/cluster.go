// Package cluster implements the gateway tier of the splitmem serve
// cluster: one HTTP front door over N splitmem-serve replicas, providing
// consistent-hash job routing, backlog-aware load balancing, health
// probing with replica state tracking, typed retry of idempotent
// submissions, and snapshot-based live migration of in-flight jobs off
// draining or crashed replicas.
//
// The replica half of the protocol lives in internal/serve (the
// /v1/jobs/{id}/checkpoint export and /v1/jobs/resume endpoints); this
// package is the client of that protocol. The contract the two halves
// uphold together:
//
//   - Every job the gateway acknowledges reaches exactly one terminal
//     result line, through replica drains, crashes, and restarts.
//   - A migrated job's stitched event stream is byte-identical to an
//     uninterrupted single-node run: the deterministic simulation plus the
//     EventsSince cursor make replayed prefixes skippable, so the client
//     never sees a duplicated or missing event line.
//   - A checkpoint corrupted in transit is caught by the machine image's
//     own trailer CRC and refetched — a corrupt image is never resumed.
//   - A migrated job runs on exactly one replica at a time: detach is
//     atomic first-wins on the source, and resume is idempotent per
//     migration key on the target (duplicates get 409).
package cluster

import (
	"fmt"
	"sync"
)

// State is a replica's availability as seen by the gateway's prober.
type State int32

const (
	// StateUp: probing healthy, admission queue has room.
	StateUp State = iota
	// StateDegraded: responding, but the admission queue is near capacity —
	// routed to only when no Up replica can take the job.
	StateDegraded
	// StateDraining: SIGTERM'd (503 + "draining" on /healthz). No new work;
	// in-flight gateway jobs are live-migrated off it.
	StateDraining
	// StateDown: failed FailThreshold consecutive probes (or its streams
	// are breaking). Not routed to until a probe succeeds again.
	StateDown
)

// String returns the state's wire name.
func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Replica is one splitmem-serve backend and the gateway's view of it.
type Replica struct {
	URL string // base URL, no trailing slash; also the ring identity

	// Label is the stable metrics identity ("r0", "r1", ...), assigned by
	// replica slot at gateway construction. Unlike the instance ID it
	// survives process restarts, so federated series are continuous across
	// a rolling restart.
	Label string

	// br is the replica's circuit breaker: a faster, finer-grained gate
	// than the probed State, fed by relay outcomes as well as probes.
	br *breaker

	mu         sync.Mutex
	state      State
	instanceID string // from /healthz; changes on process restart
	workers    int
	backlog    int
	depth      int
	failures   int // consecutive probe/stream failures
	restarts   int // instance-ID changes observed (process restarts)
	probes     uint64

	// Observability counters mirrored from the replica's /healthz.
	spansRecorded uint64 // host spans the replica has recorded
	spansDropped  uint64 // host spans its ring evicted
	workerPanics  uint64 // worker panics its supervisor recovered
}

// State returns the replica's current state.
func (r *Replica) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Restarts returns how many instance-ID changes the prober has observed.
func (r *Replica) Restarts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restarts
}

// InstanceID returns the replica's last-probed process identity.
func (r *Replica) InstanceID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.instanceID
}

// Breaker returns the replica's circuit-breaker state name
// ("closed", "open", "half-open").
func (r *Replica) Breaker() string { return r.br.current().String() }

// snapshotView is the /healthz row for one replica.
type snapshotView struct {
	URL          string `json:"url"`
	Label        string `json:"label"`
	State        string `json:"state"`
	Breaker      string `json:"breaker"`
	Instance     string `json:"instance,omitempty"`
	Depth        int    `json:"depth"`
	Workers      int    `json:"workers"`
	Restarts     int    `json:"restarts"`
	Spans        uint64 `json:"spans_recorded"`
	SpansDropped uint64 `json:"spans_dropped"`
	WorkerPanics uint64 `json:"worker_panics"`
}

func (r *Replica) view() snapshotView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return snapshotView{
		URL:          r.URL,
		Label:        r.Label,
		State:        r.state.String(),
		Breaker:      r.br.current().String(),
		Instance:     r.instanceID,
		Depth:        r.depth,
		Workers:      r.workers,
		Restarts:     r.restarts,
		Spans:        r.spansRecorded,
		SpansDropped: r.spansDropped,
		WorkerPanics: r.workerPanics,
	}
}

// noteStreamFailure feeds a relay-observed stream break into the same
// failure detector the prober uses, so a crashed replica stops receiving
// traffic before the next probe tick. It returns the before/after states
// so the gateway can record the transition.
func (r *Replica) noteStreamFailure(threshold int) (prev, cur State) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev = r.state
	r.failures++
	if r.failures >= threshold && r.state != StateDraining {
		r.state = StateDown
	}
	return prev, r.state
}
