package serve

// Crash-recovery integration tests, white-box so they can craft journals the
// way a crashed server leaves them. The claims under test:
//
//   - a worker killed mid-job (chaos) is restarted from its last checkpoint
//     and the job's final result is identical to an undisturbed run;
//   - a job acknowledged before a whole-process crash is replayed from the
//     journal on the next startup and runs to the same terminal result —
//     zero acknowledged-then-lost jobs;
//   - a retry budget spent on a job that keeps dying yields the typed
//     failed-after-retries result, and the server survives to run the next
//     job normally;
//   - hard shutdown (CancelRunning) and client disconnect are
//     distinguishable in the job's terminal frame.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"splitmem"
	"splitmem/internal/faultmesh"
)

// loopSrc burns ~2M cycles across many stream slices, then exits 5 — long
// enough for several checkpoints, short enough for -race.
const loopSrc = `
_start:
    mov ecx, 300000
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 5
    mov eax, 1
    int 0x80
`

const spinForeverSrc = `
_start:
loop:
    jmp loop
`

func bootServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func submitSync(t *testing.T, url, body string) JobResult {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res JobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWorkerPanicRecovery is the acceptance test for in-process supervision:
// chaos kills the worker mid-slice, repeatedly, and the supervised job must
// still finish with a result indistinguishable from an undisturbed run.
func TestWorkerPanicRecovery(t *testing.T) {
	body := fmt.Sprintf(`{"name": "loop", "source": %q, "timeout_ms": 30000}`, loopSrc)
	slices := Config{Workers: 1, StreamSlice: 100_000, CheckpointCycles: 100_000}

	_, cleanTS := bootServer(t, slices)
	want := submitSync(t, cleanTS.URL, body)
	if want.Reason != "all-done" || want.ExitStatus != 5 {
		t.Fatalf("clean run: %+v", want)
	}

	chaosCfg := slices
	chaosCfg.JournalPath = filepath.Join(t.TempDir(), "jobs.journal")
	chaosCfg.RetryBudget = 64
	chaosCfg.RetryBackoff = time.Millisecond
	chaosCfg.Faults = faultmesh.New(faultmesh.Config{Seed: 42, WorkerKill: 0.35})
	s, chaosTS := bootServer(t, chaosCfg)
	got := submitSync(t, chaosTS.URL, body)

	if got.Reason != "all-done" || got.ExitStatus != want.ExitStatus {
		t.Fatalf("chaotic run diverged: %+v", got)
	}
	if got.Cycles != want.Cycles || got.EventCount != want.EventCount ||
		got.Detections != want.Detections || got.Stdout != want.Stdout {
		t.Fatalf("restored run not identical to clean run:\nclean %+v\nchaos %+v", want, got)
	}
	if got.Attempts < 2 {
		t.Fatalf("chaos never killed the worker (attempts=%d); the test proved nothing", got.Attempts)
	}
	if s.workerPanics.Load() == 0 || s.restores.Load() == 0 || s.retries.Load() == 0 {
		t.Fatalf("supervision counters flat: panics=%d restores=%d retries=%d",
			s.workerPanics.Load(), s.restores.Load(), s.retries.Load())
	}

	// Zero acknowledged-then-lost: the journal holds the job's terminal
	// result, durably.
	s.Close()
	done := readDoneResults(t, chaosCfg.JournalPath)
	var logged JobResult
	if err := json.Unmarshal(done[got.ID], &logged); err != nil {
		t.Fatalf("no durable terminal result for job %d: %v", got.ID, err)
	}
	if logged.Reason != "all-done" || logged.Cycles != want.Cycles {
		t.Fatalf("journaled result diverged: %+v", logged)
	}
}

// TestWorkerPanicRecoveryConcurrent is the worker-kill cell with four
// workers drawing kills from one fault plane at once: every concurrent job
// must still match an undisturbed run. NoTracing matters: the span
// recorder's lock would otherwise order the workers' draws and hide an
// unsynchronized fault stream from the race detector.
func TestWorkerPanicRecoveryConcurrent(t *testing.T) {
	body := fmt.Sprintf(`{"name": "loop", "source": %q, "timeout_ms": 30000}`, loopSrc)
	slices := Config{Workers: 4, StreamSlice: 100_000, CheckpointCycles: 100_000, NoTracing: true}

	_, cleanTS := bootServer(t, slices)
	want := submitSync(t, cleanTS.URL, body)

	chaosCfg := slices
	chaosCfg.RetryBudget = 64
	chaosCfg.RetryBackoff = time.Millisecond
	chaosCfg.Faults = faultmesh.New(faultmesh.Config{Seed: 42, WorkerKill: 0.35})
	s, chaosTS := bootServer(t, chaosCfg)

	got := make([]JobResult, chaosCfg.Workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(chaosTS.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&got[i]); err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, g := range got {
		if g.Reason != "all-done" || g.ExitStatus != want.ExitStatus || g.Cycles != want.Cycles ||
			g.EventCount != want.EventCount || g.Detections != want.Detections || g.Stdout != want.Stdout {
			t.Fatalf("job %d not identical to the clean run:\nclean %+v\nchaos %+v", i, want, g)
		}
	}
	if kills := chaosCfg.Faults.Stats().Process.WorkerKills; kills == 0 || s.workerPanics.Load() != kills {
		t.Fatalf("worker kills=%d panics=%d: want equal and nonzero", kills, s.workerPanics.Load())
	}
}

// TestJournalRecoveryAcrossRestart crafts the journal a crashed server
// leaves behind — an acknowledged job plus a mid-run checkpoint, no terminal
// record — and proves a fresh server replays it to the exact result the
// uninterrupted run produces.
func TestJournalRecoveryAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	body := fmt.Sprintf(`{"name": "resume", "source": %q}`, loopSrc)

	// The uninterrupted truth, from the same machine pipeline the runner
	// uses.
	req, err := DecodeJob([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := req.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := req.Program()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := splitmem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := clean.LoadProgram(prog, req.Name)
	if err != nil {
		t.Fatal(err)
	}
	cp.StdinClose()
	cleanRes := clean.Run(0)
	if cleanRes.Reason != splitmem.ReasonAllDone {
		t.Fatalf("clean run: %v", cleanRes.Reason)
	}
	_, cleanStatus := cp.Exited()

	// The "crashed server": job acknowledged, one checkpoint written partway
	// in, then nothing.
	m, err := splitmem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadProgram(prog, req.Name)
	if err != nil {
		t.Fatal(err)
	}
	p.StdinClose()
	part := m.Run(400_000)
	if part.Reason != splitmem.ReasonBudget {
		t.Fatalf("partial run ended early: %v", part.Reason)
	}
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	jn, err := openJournal(path, 64<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const jobID = 7
	if err := jn.logJob(jobID, []byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := jn.logCheckpoint(jobID, part.Cycles, img); err != nil {
		t.Fatal(err)
	}
	jn.close()

	// Restart: the new server must notice, replay, and finish the job.
	s, err := New(Config{Workers: 2, StreamSlice: 100_000, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for s.Recovering() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("journal replay never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.recovered.Load() != 1 {
		t.Fatalf("recovered=%d want 1", s.recovered.Load())
	}
	if s.restores.Load() == 0 {
		t.Fatal("replay did not resume from the checkpoint image")
	}
	s.Close()

	done := readDoneResults(t, path)
	var res JobResult
	if err := json.Unmarshal(done[jobID], &res); err != nil {
		t.Fatalf("no terminal result for replayed job: %v", err)
	}
	if !res.Recovered {
		t.Fatalf("result not marked recovered: %+v", res)
	}
	if res.Reason != "all-done" || res.ExitStatus != cleanStatus || res.Cycles != cleanRes.Cycles {
		t.Fatalf("replayed result diverged from uninterrupted run:\nwant cycles=%d status=%d\ngot  %+v",
			cleanRes.Cycles, cleanStatus, res)
	}

	// And the journal is quiescent: nothing left to replay next time.
	jn2, err := openJournal(path, 64<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if len(jn2.unfinished()) != 0 {
		t.Fatalf("journal still carries %d unfinished jobs", len(jn2.unfinished()))
	}
}

// TestRetryExhaustion: a job whose worker dies every single slice must fail
// with the typed reason after exactly RetryBudget attempts — and the server
// must shrug it off and run the next job normally.
func TestRetryExhaustion(t *testing.T) {
	cfg := Config{
		Workers:          1,
		StreamSlice:      100_000,
		CheckpointCycles: 100_000,
		RetryBudget:      2,
		RetryBackoff:     time.Millisecond,
		Faults:           faultmesh.New(faultmesh.Config{Seed: 9, WorkerKill: 1}),
	}
	s, ts := bootServer(t, cfg)
	body := fmt.Sprintf(`{"name": "doomed", "source": %q, "timeout_ms": 30000}`, loopSrc)
	res := submitSync(t, ts.URL, body)
	if res.Reason != "failed-after-retries" || res.Attempts != 2 {
		t.Fatalf("result %+v", res)
	}
	if res.Error == "" {
		t.Fatal("failed-after-retries without the fatal error")
	}
	if s.workerPanics.Load() != 2 {
		t.Fatalf("panics=%d want 2", s.workerPanics.Load())
	}
	// The pool's crash domain held: its workers never saw the panics.
	if s.pool.Panics() != 0 {
		t.Fatalf("panic escaped the supervisor into the pool: %d", s.pool.Panics())
	}
}

// TestDrainedVsDisconnectReasons: the two ways a job can be canceled from
// outside must name themselves distinguishably in the terminal frame.
func TestDrainedVsDisconnectReasons(t *testing.T) {
	t.Run("drained", func(t *testing.T) {
		s, ts := bootServer(t, Config{Workers: 1})
		body := fmt.Sprintf(`{"name": "spin", "source": %q, "timeout_ms": 30000}`, spinForeverSrc)
		resp, err := http.Post(ts.URL+"/v1/jobs?stream=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"accepted"`) {
			t.Fatalf("not accepted: %q %v", line, err)
		}
		s.CancelRunning()
		for {
			line, err := br.ReadString('\n')
			if strings.Contains(line, `"result"`) {
				var l struct {
					Result *JobResult `json:"result"`
				}
				if jerr := json.Unmarshal([]byte(line), &l); jerr != nil || l.Result == nil {
					t.Fatalf("bad result line %q: %v", line, jerr)
				}
				if l.Result.Reason != "drained" || !l.Result.Canceled {
					t.Fatalf("hard-stop reason %q (canceled=%v), want drained", l.Result.Reason, l.Result.Canceled)
				}
				return
			}
			if err != nil {
				t.Fatal("stream ended without a result line")
			}
		}
	})

	t.Run("disconnect", func(t *testing.T) {
		s, ts := bootServer(t, Config{Workers: 1})
		ctx, cancel := context.WithCancel(context.Background())
		body := fmt.Sprintf(`{"name": "spin", "source": %q, "timeout_ms": 30000}`, spinForeverSrc)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?stream=1",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		if line, err := br.ReadString('\n'); err != nil || !strings.Contains(line, `"accepted"`) {
			t.Fatalf("not accepted: %q %v", line, err)
		}
		cancel()
		resp.Body.Close()
		deadline := time.Now().Add(10 * time.Second)
		for s.Depth() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("job still running after disconnect")
			}
			time.Sleep(5 * time.Millisecond)
		}
		// The handler accounts the outcome after the job leaves the pool;
		// Close blocks until that handler has returned.
		ts.Close()
		// The client is gone, so read the reason off the server's own record.
		if r := s.canceled.Load(); r != 1 {
			t.Fatalf("canceled_total=%d want 1", r)
		}
		if s.timedOut.Load() != 0 {
			t.Fatal("disconnect misclassified as timeout")
		}
	})
}

// TestHealthzRecoveryState: /healthz exposes the supervision counters.
func TestHealthzRecoveryState(t *testing.T) {
	cfg := Config{
		Workers:          1,
		StreamSlice:      100_000,
		CheckpointCycles: 100_000,
		RetryBudget:      64,
		RetryBackoff:     time.Millisecond,
		JournalPath:      filepath.Join(t.TempDir(), "jobs.journal"),
		Faults:           faultmesh.New(faultmesh.Config{Seed: 42, WorkerKill: 0.35}),
	}
	_, ts := bootServer(t, cfg)
	body := fmt.Sprintf(`{"name": "loop", "source": %q, "timeout_ms": 30000}`, loopSrc)
	if res := submitSync(t, ts.URL, body); res.Reason != "all-done" {
		t.Fatalf("result %+v", res)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status   string `json:"status"`
		Recovery struct {
			Journal      bool   `json:"journal"`
			WorkerPanics uint64 `json:"worker_panics"`
			Checkpoints  uint64 `json:"checkpoints"`
			Restores     uint64 `json:"restores"`
			Retries      uint64 `json:"retries"`
		} `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Recovery.Journal || h.Recovery.Checkpoints == 0 {
		t.Fatalf("healthz recovery state: %+v", h)
	}
	if h.Recovery.WorkerPanics == 0 || h.Recovery.Restores == 0 || h.Recovery.Retries == 0 {
		t.Fatalf("healthz supervision counters flat: %+v", h)
	}
}
