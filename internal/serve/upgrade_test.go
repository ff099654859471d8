package serve

// Upgrade tests: a checkpoint written by a build on the other side of a
// machine-state format change must cost a job its progress, never the job.
// testdata/legacy_checkpoint.snap is legacyBody's checkpoint at cycle
// 400,000 in the inline-frames snapshot format (version 2) that the Image
// format replaced. Its CRC is intact, so it passes the transfer gate; its
// restore fails, and the job reruns from cycle 0 to the cold-run result.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"splitmem"
)

var legacyBody = fmt.Sprintf(`{"name": "legacy", "source": %q, "config": {"phys_bytes": 1048576}}`, loopSrc)

// legacyCheckpoint loads the fixture and checks it is what the tests claim:
// intact bytes of another format version.
func legacyCheckpoint(t *testing.T) []byte {
	t.Helper()
	img, err := os.ReadFile(filepath.Join("testdata", "legacy_checkpoint.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := splitmem.VerifyImage(img); err != nil {
		t.Fatalf("fixture fails the transfer gate: %v", err)
	}
	if _, err := splitmem.ReadImage(bytes.NewReader(img)); !errors.Is(err, splitmem.ErrSnapshotVersion) {
		t.Fatalf("fixture read error %v, want ErrSnapshotVersion", err)
	}
	return img
}

// coldLegacyResult runs legacyBody undisturbed.
func coldLegacyResult(t *testing.T) JobResult {
	t.Helper()
	_, ts := bootServer(t, Config{Workers: 1, StreamSlice: 100_000})
	want := submitSync(t, ts.URL, legacyBody)
	if want.Reason != "all-done" || want.ExitStatus != 5 {
		t.Fatalf("cold run: %+v", want)
	}
	return want
}

// checkRestartedFromScratch requires a failed restore that was recorded on
// its rep.restore span and a result equal to the cold run's.
func checkRestartedFromScratch(t *testing.T, s *Server, got, want JobResult) {
	t.Helper()
	if s.restores.Load() != 0 {
		t.Fatalf("a foreign-format checkpoint restored (%d restores)", s.restores.Load())
	}
	var restoreErr string
	for _, sp := range s.rec.Spans() {
		if sp.Name == "rep.restore" {
			restoreErr = sp.Attrs["error"]
		}
	}
	if restoreErr == "" {
		t.Fatal("no rep.restore span ended with an error attribute")
	}
	if got.Reason != want.Reason || got.ExitStatus != want.ExitStatus || got.Cycles != want.Cycles ||
		got.EventCount != want.EventCount || got.Stdout != want.Stdout {
		t.Fatalf("job did not rerun to the cold-run result:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestJournalReplaysLegacyCheckpoint: a journal left by the previous build,
// holding an acknowledged job and its old-format checkpoint, is replayed by
// this one: the job is adopted and finishes from scratch.
func TestJournalReplaysLegacyCheckpoint(t *testing.T) {
	want := coldLegacyResult(t)
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jn, err := openJournal(path, 64<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const jobID = 3
	if err := jn.logJob(jobID, []byte(legacyBody)); err != nil {
		t.Fatal(err)
	}
	if err := jn.logCheckpoint(jobID, 400_000, legacyCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	jn.close()

	s, err := New(Config{Workers: 1, StreamSlice: 100_000, JournalPath: path})
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
	s.Close()

	var got JobResult
	if err := json.Unmarshal(readDoneResults(t, path)[jobID], &got); err != nil {
		t.Fatalf("no terminal result for the replayed job: %v", err)
	}
	if !got.Recovered {
		t.Fatalf("result not marked recovered: %+v", got)
	}
	checkRestartedFromScratch(t, s, got, want)
}

// TestResumeLegacyCheckpoint: a migration that ships an old-format
// checkpoint to this build is admitted, not refused as corrupt, and the job
// finishes from scratch.
func TestResumeLegacyCheckpoint(t *testing.T) {
	want := coldLegacyResult(t)
	s, ts := bootServer(t, Config{Workers: 1, StreamSlice: 100_000})
	body, err := json.Marshal(ResumeRequest{
		Job:        json.RawMessage(legacyBody),
		Checkpoint: legacyCheckpoint(t),
		Cycles:     400_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/resume", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status %d, want 200", resp.StatusCode)
	}
	var got JobResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	checkRestartedFromScratch(t, s, got, want)
}
