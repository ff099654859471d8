package cluster

// Edge-of-the-protocol tests: the windows where exactly-once is easiest to
// lose. Each test drives the public HTTP surface and compares outcomes
// against a single-node oracle where determinism makes that meaningful.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"splitmem/internal/faultmesh"
	"splitmem/internal/serve"
)

// awaitOwnerIdx waits until some gateway job has an upstream owner and
// returns that node's index.
func awaitOwnerIdx(t *testing.T, h *Harness, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		h.Gateway.jobsMu.Lock()
		for _, j := range h.Gateway.jobs {
			if rep, up := j.owner(); rep != nil && up != 0 {
				h.Gateway.jobsMu.Unlock()
				for i, r := range h.Gateway.Replicas() {
					if r == rep {
						return i
					}
				}
				t.Fatal("owner replica not in gateway set")
			}
		}
		h.Gateway.jobsMu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no job ever got an upstream owner")
	return -1
}

// oracleRun executes a job on a standalone node and returns its stream.
func oracleRun(t *testing.T, cfg serve.Config, body map[string]any) []gwLine {
	t.Helper()
	node, err := newNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node.close()
	resp := postJob(t, node.URL()+"/v1/jobs?stream=1", body)
	defer resp.Body.Close()
	return readLines(t, resp.Body)
}

// assertMatchesOracle byte-compares the event stream and the deterministic
// result fields against the oracle's run.
func assertMatchesOracle(t *testing.T, lines, oracle []gwLine) {
	t.Helper()
	var got, want []json.RawMessage
	for _, l := range lines {
		if l.Type == "event" {
			got = append(got, l.Event)
		}
	}
	for _, l := range oracle {
		if l.Type == "event" {
			want = append(want, l.Event)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("stream has %d events, oracle %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("event %d differs:\n  got:  %s\n  want: %s", i, got[i], want[i])
		}
	}
	gres, ores := lines[len(lines)-1].Result, oracle[len(oracle)-1].Result
	if gres == nil || ores == nil {
		t.Fatalf("missing terminal result (got %v, oracle %v)", gres, ores)
	}
	if gres.Reason != ores.Reason || gres.ExitStatus != ores.ExitStatus ||
		gres.Cycles != ores.Cycles || gres.EventCount != ores.EventCount ||
		gres.Detections != ores.Detections || gres.Stdout != ores.Stdout {
		t.Fatalf("deterministic result fields differ:\n  got:  %+v\n  want: %+v", gres, ores)
	}
}

// TestReplicaDiesBeforeFirstEvent kills a job's replica right after the
// accepted line, before the job has streamed anything. The gateway can
// salvage no checkpoint from a dead process; the job must re-run from
// scratch elsewhere and the client stream must still be complete and
// oracle-identical.
func TestReplicaDiesBeforeFirstEvent(t *testing.T) {
	h, err := NewHarness(3, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	body := map[string]any{"name": "early-death", "source": longSpin, "timeout_ms": 30000}
	oracle := oracleRun(t, fastCfg(), body)

	resp := postJob(t, h.URL()+"/v1/jobs?stream=1", body)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var acc gwLine
	json.Unmarshal([]byte(first), &acc)
	if acc.Type != "accepted" {
		t.Fatalf("first line %q", first)
	}

	// The accepted line reached us, so the gateway knows its owner. Crash it
	// before the job has a checkpoint worth exporting.
	h.Nodes[awaitOwnerIdx(t, h, 5*time.Second)].Kill()

	lines := append([]gwLine{acc}, readLines(t, br)...)
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Result == nil {
		t.Fatalf("no terminal result; last line %+v", last)
	}
	if last.Result.Reason != "all-done" || last.Result.ExitStatus != 9 {
		t.Fatalf("recovered result %+v", last.Result)
	}
	if !last.Result.Migrated {
		t.Fatal("result not marked migrated")
	}
	if h.Gateway.ScratchResumes() == 0 {
		t.Fatal("expected a scratch resume — a dead replica has no checkpoint to export")
	}
	assertMatchesOracle(t, lines, oracle)
}

// dropOnce is a man-in-the-middle transport: the first resume POST reaches
// the replica (admission happens, the key is claimed, the job starts) but
// the response is discarded and replaced with a transport error — the
// classic "was it admitted?" ambiguity.
type dropOnce struct {
	base http.RoundTripper
	used atomic.Bool
	hits atomic.Int64
}

func (d *dropOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.base.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/v1/jobs/resume") {
		return resp, err
	}
	if resp.StatusCode != http.StatusOK || !d.used.CompareAndSwap(false, true) {
		return resp, err
	}
	d.hits.Add(1)
	// Wait for the accepted line so admission is a fact, then lose the
	// response the way a dying connection would.
	br := bufio.NewReader(resp.Body)
	br.ReadString('\n')
	resp.Body.Close()
	return nil, fmt.Errorf("simulated connection loss after admission")
}

// TestDuplicateResumeReclaim proves the exactly-once disambiguation: when a
// submission is admitted but the gateway never learns it, the same-key retry
// collides (409), and the orphan — running with nobody listening — is
// reclaimed by detach and finished elsewhere. The client sees one accepted
// line and one result.
func TestDuplicateResumeReclaim(t *testing.T) {
	gcfg := fastGW()
	mitm := &dropOnce{base: http.DefaultTransport}
	gcfg.HTTP = &http.Client{Transport: mitm}
	h, err := NewHarness(3, fastCfg(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	body := map[string]any{"name": "dup-claim", "source": longSpin, "timeout_ms": 30000}
	oracle := oracleRun(t, fastCfg(), body)

	resp := postJob(t, h.URL()+"/v1/jobs?stream=1", body)
	lines := readLines(t, resp.Body)
	resp.Body.Close()
	if mitm.hits.Load() != 1 {
		t.Fatalf("mitm intercepted %d requests, want 1", mitm.hits.Load())
	}

	var accepted, results int
	for _, l := range lines {
		switch l.Type {
		case "accepted":
			accepted++
		case "result":
			results++
		}
	}
	if accepted != 1 || results != 1 {
		t.Fatalf("client saw %d accepted and %d result lines, want exactly 1 each", accepted, results)
	}
	last := lines[len(lines)-1]
	if last.Result.Reason != "all-done" || last.Result.ExitStatus != 9 || !last.Result.Migrated {
		t.Fatalf("reclaimed result %+v", last.Result)
	}
	assertMatchesOracle(t, lines, oracle)

	// Exactly one replica must have refused the duplicate claim.
	dups := uint64(0)
	for _, n := range h.Nodes {
		r, err := http.Get(n.URL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var hb struct {
			Cluster struct {
				ResumeDuplicates uint64 `json:"resume_duplicates"`
			} `json:"cluster"`
		}
		json.NewDecoder(r.Body).Decode(&hb)
		r.Body.Close()
		dups += hb.Cluster.ResumeDuplicates
	}
	if dups != 1 {
		t.Fatalf("cluster saw %d duplicate resume claims, want exactly 1", dups)
	}
}

// TestDrainDuringMigration drains the job's owner, then immediately drains a
// second replica so the migration's first-choice target may itself be going
// away mid-hop. The job must still land on the last healthy replica with a
// complete, oracle-identical stream.
func TestDrainDuringMigration(t *testing.T) {
	h, err := NewHarness(3, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	body := map[string]any{"name": "double-drain", "source": longSpin, "timeout_ms": 30000}
	oracle := oracleRun(t, fastCfg(), body)

	resp := postJob(t, h.URL()+"/v1/jobs?stream=1", body)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, _ := br.ReadString('\n')
	var acc gwLine
	json.Unmarshal([]byte(first), &acc)
	if acc.Type != "accepted" {
		t.Fatalf("first line %q", first)
	}

	owner := awaitOwnerIdx(t, h, 5*time.Second)
	h.Nodes[owner].Drain()
	// Drain one more node before the hop can settle; exactly one stays up.
	second := (owner + 1) % 3
	h.Nodes[second].Drain()

	lines := append([]gwLine{acc}, readLines(t, br)...)
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Result == nil ||
		last.Result.Reason != "all-done" || last.Result.ExitStatus != 9 {
		t.Fatalf("result after double drain: %+v", last.Result)
	}
	if !last.Result.Migrated {
		t.Fatal("result not marked migrated")
	}
	assertMatchesOracle(t, lines, oracle)
}

// TestGatewayReplacementOverLiveReplicas restarts the gateway tier itself:
// a second gateway instance over the same replicas must come up routable
// (its first probe sweep is synchronous), carry a distinct identity so its
// migration keys can never collide with its predecessor's, and serve jobs.
func TestGatewayReplacementOverLiveReplicas(t *testing.T) {
	h, err := NewHarness(2, fastCfg(), fastGW())
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	resp := postJob(t, h.URL()+"/v1/jobs", map[string]any{"name": "before", "source": exitSrc})
	var res serve.JobResult
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Reason != "all-done" {
		t.Fatalf("pre-replacement job %+v", res)
	}

	gcfg := fastGW()
	for _, n := range h.Nodes {
		gcfg.Replicas = append(gcfg.Replicas, n.URL())
	}
	gw2, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	front2 := httptest.NewServer(gw2.Handler())
	defer front2.Close()

	if gw2.InstanceID() == h.Gateway.InstanceID() {
		t.Fatal("replacement gateway reused the old instance identity")
	}
	for i, r := range gw2.Replicas() {
		if r.State() != StateUp {
			t.Fatalf("replica %d not up in replacement gateway: %v", i, r.State())
		}
	}
	resp = postJob(t, front2.URL+"/v1/jobs", map[string]any{"name": "after", "source": exitSrc})
	json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if res.Reason != "all-done" || res.ExitStatus != 7 {
		t.Fatalf("post-replacement job %+v", res)
	}
}

// TestChaosCheckpointCorruptionCaught forces every checkpoint transfer to be
// corrupted in transit. The CRC gate must reject each one (counted), the
// refetch budget must exhaust, and the job must finish via scratch resume —
// correct, never resumed from a bad image.
func TestChaosCheckpointCorruptionCaught(t *testing.T) {
	gcfg := fastGW()
	gcfg.Faults = faultmesh.New(faultmesh.Config{Seed: 7, CheckpointCorrupt: 1.0})
	h, err := NewHarness(3, fastCfg(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	body := map[string]any{"name": "corrupt-wire", "source": longSpin, "timeout_ms": 30000}
	oracle := oracleRun(t, fastCfg(), body)

	resp := postJob(t, h.URL()+"/v1/jobs?stream=1", body)
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, _ := br.ReadString('\n')
	var acc gwLine
	json.Unmarshal([]byte(first), &acc)
	if acc.Type != "accepted" {
		t.Fatalf("first line %q", first)
	}
	h.Nodes[awaitOwnerIdx(t, h, 5*time.Second)].Drain()

	lines := append([]gwLine{acc}, readLines(t, br)...)
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Result == nil ||
		last.Result.Reason != "all-done" || last.Result.ExitStatus != 9 {
		t.Fatalf("result under checkpoint corruption: %+v", last.Result)
	}
	if h.Gateway.CorruptFetches() == 0 {
		t.Fatal("CRC gate never fired despite 100% corruption")
	}
	if h.Gateway.ScratchResumes() == 0 {
		t.Fatal("job should have fallen back to a scratch resume")
	}
	assertMatchesOracle(t, lines, oracle)
}
