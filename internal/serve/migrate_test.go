package serve_test

// Replica-side tests of the cluster migration surface: checkpoint export
// and detach, resume-from-snapshot (and from scratch) with the event-cursor
// stitch, idempotent resume keys, the checkpoint CRC transfer gate, and the
// extended /healthz identity. The gateway-level tests live in
// internal/cluster; these prove the replica protocol in isolation.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"splitmem/internal/serve"
)

// longSpinSrc burns enough cycles for several stream slices and
// checkpoints, then exits 9. The count is sized so the job stays alive for
// hundreds of milliseconds even with cheap sparse-frame snapshots, giving
// the checkpoint pollers below a real window to catch it mid-flight.
const longSpinSrc = `
_start:
    mov ecx, 3000000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 9
    mov eax, 1
    int 0x80
`

// migLine is one decoded NDJSON frame, keeping the raw event bytes so
// stitched streams can be compared byte for byte against the oracle.
type migLine struct {
	Type    string           `json:"type"`
	ID      uint64           `json:"id"`
	Name    string           `json:"name"`
	Resumed bool             `json:"resumed"`
	Event   json.RawMessage  `json:"event"`
	Result  *serve.JobResult `json:"result"`
}

// readMigStream consumes a whole NDJSON response.
func readMigStream(t *testing.T, r io.Reader) []migLine {
	t.Helper()
	var lines []migLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l migLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func TestHealthzIdentity(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Instance struct {
			ID        string `json:"id"`
			StartTime string `json:"start_time"`
		} `json:"instance"`
		Cluster struct {
			LiveJobs    int    `json:"live_jobs"`
			MigratedOut uint64 `json:"migrated_out"`
		} `json:"cluster"`
		Recovery struct {
			Journal     bool   `json:"journal"`
			Checkpoints uint64 `json:"checkpoints"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Instance.ID == "" || h.Instance.ID != s.InstanceID() {
		t.Fatalf("healthz instance id %q, InstanceID() %q", h.Instance.ID, s.InstanceID())
	}
	if _, err := time.Parse(time.RFC3339Nano, h.Instance.StartTime); err != nil {
		t.Fatalf("unparseable start_time %q: %v", h.Instance.StartTime, err)
	}
	if h.Recovery.Journal {
		t.Fatal("journal reported enabled on a journal-less server")
	}
}

// TestDrainRetryAfterBacklogDerived pins satellite 1: the draining 503 path
// carries the same backlog-derived Retry-After formula as the 429 path, not
// a constant.
func TestDrainRetryAfterBacklogDerived(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{Workers: 1, Backlog: 8})

	// Occupy the worker and fill some backlog so depth/workers > 5 — a
	// value the old hardcoded "5" could never exceed.
	var open []io.Closer
	defer func() {
		for _, c := range open {
			c.Close()
		}
	}()
	for i := 0; i < 7; i++ {
		resp, err := submit(t, ts.URL+"/v1/jobs?stream=1", map[string]any{
			"name": fmt.Sprintf("hold-%d", i), "source": spinSrc, "timeout_ms": 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, resp.Body)
		// Wait for the accepted line so the job is really admitted.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatalf("hold job %d: %v", i, err)
		}
	}
	if d := s.Depth(); d < 6 {
		t.Fatalf("depth %d, want >= 6", d)
	}

	s.BeginDrain()
	resp, err := submit(t, ts.URL+"/v1/jobs", map[string]any{"name": "late", "source": exitSrc})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	// Retry-After must equal 1 + depth/workers; with depth >= 6 and one
	// worker that is at least 7 — a value the old hardcoded "5" never hit.
	ra := resp.Header.Get("Retry-After")
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil {
		t.Fatalf("unparseable Retry-After %q: %v", ra, err)
	}
	if secs < 6 {
		t.Fatalf("Retry-After %q, want >= 6 with depth %d and 1 worker", ra, s.Depth())
	}
}

// TestCheckpointExportAndDetach runs a long job, exports its checkpoint
// mid-flight, detaches it, and checks the source stream ends with the typed
// "migrated" frame.
func TestCheckpointExportAndDetach(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{
		Workers:          1,
		StreamSlice:      50_000,
		CheckpointCycles: 50_000,
	})

	resp, err := submit(t, ts.URL+"/v1/jobs?stream=1", map[string]any{
		"name": "migrate-me", "source": longSpinSrc, "timeout_ms": 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var acc migLine
	if err := json.Unmarshal([]byte(first), &acc); err != nil || acc.Type != "accepted" {
		t.Fatalf("first line %q", first)
	}

	// Wait for a checkpoint to exist, then export without detaching.
	var exp serve.CheckpointExport
	deadline := time.Now().Add(10 * time.Second)
	for {
		cr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoint", ts.URL, acc.ID))
		if err != nil {
			t.Fatal(err)
		}
		if cr.StatusCode == http.StatusOK {
			if err := json.NewDecoder(cr.Body).Decode(&exp); err != nil {
				t.Fatal(err)
			}
			cr.Body.Close()
			if len(exp.Checkpoint) > 0 {
				break
			}
		} else {
			cr.Body.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if exp.Detached {
		t.Fatal("plain export must not detach")
	}
	if len(exp.Job) == 0 || exp.Cycles == 0 {
		t.Fatalf("export missing body or cycles: %+v", exp)
	}

	// Now detach: the job stops with the migrated frame.
	cr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoint?detach=1", ts.URL, acc.ID))
	if err != nil {
		t.Fatal(err)
	}
	var dexp serve.CheckpointExport
	if err := json.NewDecoder(cr.Body).Decode(&dexp); err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if !dexp.Detached {
		t.Fatal("detach export not marked detached")
	}

	lines := readMigStream(t, br)
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Result == nil || last.Result.Reason != "migrated" {
		t.Fatalf("terminal frame %+v, want reason migrated", last)
	}

	// The export survives job teardown (bounded ring) for refetch.
	cr, err = http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoint", ts.URL, acc.ID))
	if err != nil {
		t.Fatal(err)
	}
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("refetch after detach: status %d", cr.StatusCode)
	}
	cr.Body.Close()

	// Unknown jobs 404.
	cr, err = http.Get(ts.URL + "/v1/jobs/999999/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	if cr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", cr.StatusCode)
	}
	cr.Body.Close()
}

// TestResumeFromCheckpointMatchesOracle migrates a job by hand — run on
// server A, detach with its checkpoint, resume on server B — and requires
// the stitched event stream plus result to be identical to an uninterrupted
// single-node run of the same job.
func TestResumeFromCheckpointMatchesOracle(t *testing.T) {
	cfg := serve.Config{Workers: 2, StreamSlice: 50_000, CheckpointCycles: 50_000}
	srvA, tsA := newTestServer(t, cfg)
	_, tsB := newTestServer(t, cfg)
	_, tsO := newTestServer(t, cfg)
	parked := serve.ParkAfterFirstCheckpoint(srvA)

	body := map[string]any{"name": "oracle-job", "source": longSpinSrc, "timeout_ms": 20000}

	// Oracle: the uninterrupted run.
	oresp, err := submit(t, tsO.URL+"/v1/jobs?stream=1", body)
	if err != nil {
		t.Fatal(err)
	}
	olines := readMigStream(t, oresp.Body)
	oresp.Body.Close()
	oresult := olines[len(olines)-1].Result
	if oresult == nil || oresult.Reason != "all-done" {
		t.Fatalf("oracle result %+v", olines[len(olines)-1])
	}

	// Interrupted run on A.
	resp, err := submit(t, tsA.URL+"/v1/jobs?stream=1", body)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var acc migLine
	json.Unmarshal([]byte(first), &acc)

	// A holds the job at its first checkpoint; detach it there and drain
	// A's stream to find the final cursor (event lines delivered before the
	// migration).
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no checkpoint appeared on A")
	}
	var exp serve.CheckpointExport
	cr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoint?detach=1", tsA.URL, acc.ID))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(cr.Body).Decode(&exp)
	cr.Body.Close()
	if len(exp.Checkpoint) == 0 {
		t.Fatal("A's detached export carries no checkpoint")
	}
	alines := readMigStream(t, br)
	resp.Body.Close()
	if last := alines[len(alines)-1]; last.Result == nil || last.Result.Reason != "migrated" {
		t.Fatalf("A's terminal frame %+v, want migrated", alines[len(alines)-1])
	}
	var aEvents []json.RawMessage
	for _, l := range alines {
		if l.Type == "event" {
			aEvents = append(aEvents, l.Event)
		}
	}

	// Resume on B with the shipped checkpoint and A's cursor.
	rr := map[string]any{
		"job":        json.RawMessage(mustJSON(t, body)),
		"checkpoint": exp.Checkpoint,
		"cycles":     exp.Cycles,
		"cursor":     len(aEvents),
		"key":        "test-migration-1",
	}
	bresp, err := submit(t, tsB.URL+"/v1/jobs/resume?stream=1", rr)
	if err != nil {
		t.Fatal(err)
	}
	blines := readMigStream(t, bresp.Body)
	bresp.Body.Close()
	if blines[0].Type != "accepted" || !blines[0].Resumed {
		t.Fatalf("B's first frame %+v, want resumed accepted", blines[0])
	}
	bresult := blines[len(blines)-1].Result
	if bresult == nil {
		t.Fatalf("B's stream had no result")
	}
	if !bresult.Migrated {
		t.Fatal("B's result not marked migrated")
	}
	var bEvents []json.RawMessage
	for _, l := range blines {
		if l.Type == "event" {
			bEvents = append(bEvents, l.Event)
		}
	}

	// Stitch: A's events then B's events must equal the oracle's events
	// byte for byte, with no duplicates at the seam.
	var oEvents []json.RawMessage
	for _, l := range olines {
		if l.Type == "event" {
			oEvents = append(oEvents, l.Event)
		}
	}
	stitched := append(append([]json.RawMessage{}, aEvents...), bEvents...)
	if len(stitched) != len(oEvents) {
		t.Fatalf("stitched %d events, oracle %d", len(stitched), len(oEvents))
	}
	for i := range stitched {
		if !bytes.Equal(stitched[i], oEvents[i]) {
			t.Fatalf("event %d differs:\n  stitched: %s\n  oracle:   %s", i, stitched[i], oEvents[i])
		}
	}

	// Result: the deterministic fields must match the oracle exactly.
	if bresult.Reason != oresult.Reason || bresult.Cycles != oresult.Cycles ||
		bresult.Exited != oresult.Exited || bresult.ExitStatus != oresult.ExitStatus ||
		bresult.Detections != oresult.Detections || bresult.EventCount != oresult.EventCount ||
		bresult.Stdout != oresult.Stdout {
		t.Fatalf("migrated result differs from oracle:\n  got:  %+v\n  want: %+v", bresult, oresult)
	}
}

// TestResumeIdempotentKey pins the exactly-once claim: the same migration
// key is accepted once and answered 409 the second time.
func TestResumeIdempotentKey(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2})
	rr := map[string]any{
		"job": json.RawMessage(mustJSON(t, map[string]any{"name": "dup", "source": exitSrc})),
		"key": "dup-key-1",
	}
	resp, err := submit(t, ts.URL+"/v1/jobs/resume", rr)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first resume: status %d", resp.StatusCode)
	}
	resp, err = submit(t, ts.URL+"/v1/jobs/resume", rr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate resume: status %d, want 409", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	if e.Error != "duplicate-resume" {
		t.Fatalf("duplicate resume error kind %q", e.Error)
	}
}

// TestResumeRejectsCorruptCheckpoint pins the transfer-integrity gate: a
// bit-flipped image fails the snapshot CRC with the typed bad-checkpoint
// kind and never runs.
func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	cfg := serve.Config{Workers: 1, StreamSlice: 50_000, CheckpointCycles: 50_000}
	_, tsA := newTestServer(t, cfg)
	_, tsB := newTestServer(t, cfg)

	resp, err := submit(t, tsA.URL+"/v1/jobs?stream=1", map[string]any{
		"name": "victim", "source": longSpinSrc, "timeout_ms": 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	first, _ := br.ReadString('\n')
	var acc migLine
	json.Unmarshal([]byte(first), &acc)
	var exp serve.CheckpointExport
	deadline := time.Now().Add(10 * time.Second)
	for len(exp.Checkpoint) == 0 {
		cr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d/checkpoint", tsA.URL, acc.ID))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(cr.Body).Decode(&exp)
		cr.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		if len(exp.Checkpoint) == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	resp.Body.Close() // disconnect; A cancels the job

	// Flip one bit mid-image: the CRC must catch it.
	exp.Checkpoint[len(exp.Checkpoint)/2] ^= 0x40
	rr := map[string]any{
		"job":        exp.Job,
		"checkpoint": exp.Checkpoint,
		"cycles":     exp.Cycles,
	}
	bresp, err := submit(t, tsB.URL+"/v1/jobs/resume", rr)
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt checkpoint: status %d, want 400", bresp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(bresp.Body).Decode(&e)
	if e.Error != "bad-checkpoint" {
		t.Fatalf("corrupt checkpoint error kind %q", e.Error)
	}
}

// TestResumeFromScratchDedupesCursor resumes a job with no checkpoint but a
// nonzero cursor: the deterministic re-run must suppress the already-seen
// event prefix.
func TestResumeFromScratchDedupesCursor(t *testing.T) {
	cfg := serve.Config{Workers: 2, StreamSlice: 50_000}
	_, ts := newTestServer(t, cfg)

	body := mustJSON(t, map[string]any{"name": "scratch", "source": exitSrc})

	// Uninterrupted run for the event count.
	resp, err := submit(t, ts.URL+"/v1/jobs?stream=1", map[string]any{"name": "scratch", "source": exitSrc})
	if err != nil {
		t.Fatal(err)
	}
	base := readMigStream(t, resp.Body)
	resp.Body.Close()
	var baseEvents int
	for _, l := range base {
		if l.Type == "event" {
			baseEvents++
		}
	}
	if baseEvents == 0 {
		t.Fatal("baseline produced no events; test needs at least one")
	}

	// Resume from scratch with cursor=1: exactly the first event line is
	// suppressed.
	rr := map[string]any{"job": json.RawMessage(body), "cursor": 1}
	resp, err = submit(t, ts.URL+"/v1/jobs/resume?stream=1", rr)
	if err != nil {
		t.Fatal(err)
	}
	lines := readMigStream(t, resp.Body)
	resp.Body.Close()
	var gotEvents int
	for _, l := range lines {
		if l.Type == "event" {
			gotEvents++
		}
	}
	if gotEvents != baseEvents-1 {
		t.Fatalf("scratch resume with cursor=1 streamed %d events, want %d", gotEvents, baseEvents-1)
	}
	res := lines[len(lines)-1].Result
	if res == nil || res.Reason != "all-done" || res.EventCount != base[len(base)-1].Result.EventCount {
		t.Fatalf("scratch resume result %+v, baseline %+v", res, base[len(base)-1].Result)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
