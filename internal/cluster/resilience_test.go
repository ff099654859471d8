package cluster

// Unit tests for the resilience machinery this package layers under the
// relay loop: the per-replica circuit breaker's state machine, the flight
// recorder's disk-cap rotation, retry jitter spread, the hedged checkpoint
// fetch, and the job-identity gate that rejects stale exports from a
// restarted replica.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitmem"
	"splitmem/internal/chaos"
	"splitmem/internal/serve"
)

// TestBreakerStateMachine walks the three-state machine through every
// documented transition: threshold trip, the two paths out of open (lazy
// cooldown and probe success), the half-open trial, and the trip-refresh
// that keeps a still-failing replica from half-opening on the clock alone.
func TestBreakerStateMachine(t *testing.T) {
	var transitions []string
	br := newBreaker(3, 300*time.Millisecond, func(from, to breakerState) {
		transitions = append(transitions, fmt.Sprintf("%s->%s", from, to))
	})

	// Closed: failures below the threshold stay closed; a success resets
	// the count so stale failures never accumulate into a trip.
	br.noteFailure()
	br.noteFailure()
	br.noteProbeSuccess()
	br.noteFailure()
	br.noteFailure()
	if got := br.current(); got != breakerClosed {
		t.Fatalf("below threshold: state %v, want closed", got)
	}
	br.noteFailure() // third consecutive: trip
	if got := br.current(); got != breakerOpen {
		t.Fatalf("at threshold: state %v, want open", got)
	}
	if br.allow() {
		t.Fatal("open breaker allowed traffic before the cooldown")
	}

	// Open: failures refresh the trip time, so the cooldown clock restarts
	// and the replica must go quiet before it half-opens.
	time.Sleep(50 * time.Millisecond)
	br.noteFailure()
	time.Sleep(50 * time.Millisecond)
	if br.allow() {
		t.Fatal("refreshed trip half-opened on the original clock")
	}

	// Cooldown path out of open: allow() lazily moves open to half-open and
	// admits the one trial; a failure during the trial re-opens immediately.
	time.Sleep(350 * time.Millisecond)
	if !br.allow() {
		t.Fatal("cooldown elapsed but the breaker stayed open")
	}
	if got := br.current(); got != breakerHalfOpen {
		t.Fatalf("after cooldown: state %v, want half-open", got)
	}
	br.noteFailure()
	if got := br.current(); got != breakerOpen {
		t.Fatalf("half-open failure: state %v, want open", got)
	}

	// Probe path out of open: one good probe is host evidence, not data-path
	// evidence — half-open first, and only the second signal re-closes.
	br.noteProbeSuccess()
	if got := br.current(); got != breakerHalfOpen {
		t.Fatalf("probe success from open: state %v, want half-open", got)
	}
	br.noteProbeSuccess()
	if got := br.current(); got != breakerClosed {
		t.Fatalf("second probe success: state %v, want closed", got)
	}

	// A relay success re-closes from ANY state: the data path itself worked.
	br.noteFailure()
	br.noteFailure()
	br.noteFailure()
	br.noteSuccess()
	if got := br.current(); got != breakerClosed {
		t.Fatalf("relay success from open: state %v, want closed", got)
	}

	want := []string{
		"closed->open", "open->half-open", "half-open->open",
		"open->half-open", "half-open->closed",
		"closed->open", "open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d: %s, want %s (all: %v)", i, transitions[i], want[i], transitions)
		}
	}
}

// TestFlightRecorderRotation pins the disk cap: rotation prunes oldest-first
// past the count cap and the byte cap, and never deletes the newest dump
// even when it alone exceeds the caps.
func TestFlightRecorderRotation(t *testing.T) {
	dir := t.TempDir()
	mkdump := func(i, size int) string {
		name := fmt.Sprintf("flight-20260101T0000%02d.000-%04d-test.json", i, i)
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
		return name
	}
	surviving := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, e.Name())
		}
		return out
	}

	// Count cap: six dumps, cap three — the three oldest go.
	fr := newFlightRecorder(dir, 16, 3, 1<<20)
	var names []string
	for i := 0; i < 6; i++ {
		names = append(names, mkdump(i, 100))
	}
	// A non-dump file must never be touched by rotation.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	fr.rotate()
	got := surviving()
	if len(got) != 4 { // three newest dumps + notes.txt
		t.Fatalf("after count rotation: %v", got)
	}
	for _, want := range append(names[3:], "notes.txt") {
		found := false
		for _, g := range got {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("rotation deleted %s; surviving: %v", want, got)
		}
	}

	// Byte cap: total 3x400 bytes against a 900-byte cap — the oldest goes
	// even though the count cap (3) is satisfied.
	fr = newFlightRecorder(dir, 16, 16, 900)
	for _, n := range names[3:] {
		if err := os.WriteFile(filepath.Join(dir, n), make([]byte, 400), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fr.rotate()
	if got := surviving(); len(got) != 3 { // two newest dumps + notes.txt
		t.Fatalf("after byte rotation: %v", got)
	}

	// The newest dump survives even when it alone busts both caps.
	fr = newFlightRecorder(dir, 16, 1, 10)
	fr.rotate()
	got = surviving()
	if len(got) != 2 {
		t.Fatalf("after final rotation: %v", got)
	}
	for _, g := range got {
		if g != names[5] && g != "notes.txt" {
			t.Fatalf("newest dump did not survive: %v", got)
		}
	}
}

// TestJitterSpread asserts the anti-stampede property every backoff site
// relies on: Scale(d) draws uniformly from [d/2, d) with real spread (not a
// constant, not a couple of values), deterministically per seed, and two
// seeds disagree on the phase.
func TestJitterSpread(t *testing.T) {
	const d = 100 * time.Millisecond
	j := chaos.NewJitter(7)
	distinct := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		got := j.Scale(d)
		if got < d/2 || got >= d {
			t.Fatalf("draw %d: %v outside [%v, %v)", i, got, d/2, d)
		}
		distinct[got] = true
	}
	if len(distinct) < 900 {
		t.Fatalf("1000 draws produced only %d distinct delays — not enough spread to break retry lockstep", len(distinct))
	}

	// Same seed, same schedule; different seed, different phase.
	a, b, c := chaos.NewJitter(7), chaos.NewJitter(7), chaos.NewJitter(8)
	same, diff := true, false
	for i := 0; i < 64; i++ {
		x := a.Scale(d)
		if x != b.Scale(d) {
			same = false
		}
		if x != c.Scale(d) {
			diff = true
		}
	}
	if !same {
		t.Fatal("equal seeds diverged")
	}
	if !diff {
		t.Fatal("different seeds drew an identical 64-draw schedule")
	}

	// Nil source and degenerate delays pass through untouched.
	var nilJ *chaos.Jitter
	if got := nilJ.Scale(d); got != d {
		t.Fatalf("nil jitter scaled %v to %v", d, got)
	}
	if got := j.Scale(0); got != 0 {
		t.Fatalf("zero delay scaled to %v", got)
	}
}

// hedgeSnapshot builds a small valid machine image for checkpoint-transport
// tests (the CRC gate verifies it like a real checkpoint).
func hedgeSnapshot(t *testing.T) []byte {
	t.Helper()
	m, err := splitmem.New(splitmem.Config{Protection: splitmem.ProtSplit, PhysBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.LoadAsm(longSpin, "hedge-fixture"); err != nil {
		t.Fatal(err)
	}
	m.Run(10_000)
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// exportHandler serves one upstream job's checkpoint export.
func exportHandler(id uint64, body []byte, img []byte, delay time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		json.NewEncoder(w).Encode(&serve.CheckpointExport{
			ID: id, Job: json.RawMessage(body), Checkpoint: img, Cycles: 10_000,
		})
	}
}

// hedgeGateway hand-builds the minimal Gateway the fetch path touches: no
// prober, no tracing, no flight recorder — just the client, the timeouts,
// and the hedge counters under test.
func hedgeGateway() *Gateway {
	return &Gateway{
		cfg:    Config{ProbeTimeout: 10 * time.Second, HedgeDelay: 5 * time.Millisecond},
		client: http.DefaultClient,
	}
}

// TestHedgedFetchPrevHopWins pins the hedge: when the current owner's
// export endpoint is wedged (slow-loris, crash, partition), the previous
// hop's ring answers after one HedgeDelay and its CRC-valid checkpoint
// wins — no timeout-and-retry ladder.
func TestHedgedFetchPrevHopWins(t *testing.T) {
	body := []byte(`{"name": "hedge-job", "source": "x"}`)
	img := hedgeSnapshot(t)

	primary := httptest.NewServer(exportHandler(5, body, img, 3*time.Second))
	defer primary.Close()
	prev := httptest.NewServer(exportHandler(7, body, img, 0))
	defer prev.Close()

	g := hedgeGateway()
	repPrimary := &Replica{URL: primary.URL, Label: "r0"}
	repPrev := &Replica{URL: prev.URL, Label: "r1"}

	j := &gwJob{id: 1, name: "hedge-job", body: body}
	j.setOwner(repPrev, 7)
	j.clearOwner() // archives r1/7 as the previous hop
	j.setOwner(repPrimary, 5)

	start := time.Now()
	spec := g.fetchCheckpoint(repPrimary, j)
	elapsed := time.Since(start)
	if spec == nil || len(spec.checkpoint) == 0 {
		t.Fatal("hedged fetch returned no checkpoint")
	}
	if err := splitmem.VerifyImage(spec.checkpoint); err != nil {
		t.Fatalf("winning checkpoint fails the CRC gate: %v", err)
	}
	if elapsed >= 3*time.Second {
		t.Fatalf("hedge waited out the wedged primary: %v", elapsed)
	}
	if got := g.hedgedFetches.Load(); got != 1 {
		t.Fatalf("hedgedFetches=%d, want 1", got)
	}
	if wins, losses := g.hedgeWins.Load(), g.hedgeLosses.Load(); wins != 1 || losses != 0 {
		t.Fatalf("hedgeWins=%d hedgeLosses=%d, want 1/0", wins, losses)
	}
}

// TestHedgedFetchPrimaryWins is the quiet-cluster complement: a healthy
// primary answers inside the hedge delay and the secondary arm never
// produces the winner.
func TestHedgedFetchPrimaryWins(t *testing.T) {
	body := []byte(`{"name": "hedge-job", "source": "x"}`)
	img := hedgeSnapshot(t)

	primary := httptest.NewServer(exportHandler(5, body, img, 0))
	defer primary.Close()
	prev := httptest.NewServer(exportHandler(7, body, img, 3*time.Second))
	defer prev.Close()

	g := hedgeGateway()
	repPrimary := &Replica{URL: primary.URL, Label: "r0"}
	repPrev := &Replica{URL: prev.URL, Label: "r1"}

	j := &gwJob{id: 1, name: "hedge-job", body: body}
	j.setOwner(repPrev, 7)
	j.clearOwner()
	j.setOwner(repPrimary, 5)

	spec := g.fetchCheckpoint(repPrimary, j)
	if spec == nil || len(spec.checkpoint) == 0 {
		t.Fatal("hedged fetch returned no checkpoint")
	}
	if wins := g.hedgeWins.Load(); wins != 0 {
		t.Fatalf("healthy primary lost the hedge (wins=%d)", wins)
	}
	if losses := g.hedgeLosses.Load(); losses != 1 {
		t.Fatalf("hedgeLosses=%d, want 1", losses)
	}
}

// TestStaleExportRejected pins the job-identity gate: upstream IDs restart
// from 1 when a replica restarts, so a remembered ID can resolve to a
// DIFFERENT job's perfectly CRC-valid checkpoint. The gate must reject it
// on the exported submission body and fall back to a scratch resume —
// resuming the wrong program would silently replace the job's execution.
func TestStaleExportRejected(t *testing.T) {
	img := hedgeSnapshot(t)
	stranger := []byte(`{"name": "somebody-else", "source": "y"}`)

	srv := httptest.NewServer(exportHandler(5, stranger, img, 0))
	defer srv.Close()

	g := hedgeGateway()
	rep := &Replica{URL: srv.URL, Label: "r0"}
	j := &gwJob{id: 1, name: "victim", body: []byte(`{"name": "victim", "source": "x"}`), trace: "t1"}
	j.setOwner(rep, 5)

	spec := g.fetchCheckpoint(rep, j)
	if spec == nil {
		t.Fatal("single-arm fetch returned nil")
	}
	if len(spec.checkpoint) != 0 {
		t.Fatal("identity gate let a stale export through: got another job's checkpoint")
	}
	if got := g.staleExport.Load(); got != 1 {
		t.Fatalf("staleExport=%d, want 1", got)
	}

	// Whitespace-only re-encoding of the SAME body must still match: the
	// gate compares compacted JSON, not raw bytes.
	spaced := []byte("{\n  \"name\": \"victim\",\n  \"source\": \"x\"\n}")
	srv2 := httptest.NewServer(exportHandler(5, spaced, img, 0))
	defer srv2.Close()
	rep2 := &Replica{URL: srv2.URL, Label: "r1"}
	j.setOwner(rep2, 5)
	spec = g.fetchCheckpoint(rep2, j)
	if spec == nil || len(spec.checkpoint) == 0 {
		t.Fatal("identity gate rejected the job's own re-encoded body")
	}
	if got := g.staleExport.Load(); got != 1 {
		t.Fatalf("staleExport=%d after matching fetch, want still 1", got)
	}
}
