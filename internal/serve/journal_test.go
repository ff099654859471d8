package serve

// White-box tests for the crash-recovery journal: round-trip, torn-tail
// tolerance, compaction bounds, and injected torn writes.

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"splitmem/internal/faultmesh"
	"splitmem/internal/snapshot"
)

func tempJournal(t *testing.T, maxBytes int64, tears *faultmesh.Plane) (*journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := openJournal(path, maxBytes, tears, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, path
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := tempJournal(t, 1<<20, nil)
	body1 := []byte(`{"source": "one"}`)
	body2 := []byte(`{"source": "two"}`)
	img := []byte("pretend-snapshot-image")
	if err := j.logJob(1, body1); err != nil {
		t.Fatal(err)
	}
	if err := j.logJob(2, body2); err != nil {
		t.Fatal(err)
	}
	if err := j.logCheckpoint(1, 5000, img); err != nil {
		t.Fatal(err)
	}
	if err := j.logDone(2, []byte(`{"reason":"all-done"}`)); err != nil {
		t.Fatal(err)
	}
	j.close()

	j2, err := openJournal(path, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if j2.tornRecords() != 0 {
		t.Fatalf("clean journal reports %d torn records", j2.tornRecords())
	}
	if got := j2.maxID(); got != 2 {
		t.Fatalf("maxID=%d want 2", got)
	}
	un := j2.unfinished()
	if len(un) != 1 || un[0].ID != 1 {
		t.Fatalf("unfinished=%+v want exactly job 1", un)
	}
	if string(un[0].Body) != string(body1) || string(un[0].Checkpoint) != string(img) || un[0].Cycles != 5000 {
		t.Fatalf("job 1 replayed wrong: %+v", un[0])
	}
}

func TestJournalTornTail(t *testing.T) {
	j, path := tempJournal(t, 1<<20, nil)
	if err := j.logJob(1, []byte(`{"source": "x"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.logCheckpoint(1, 42, []byte("img")); err != nil {
		t.Fatal(err)
	}
	j.close()

	// Simulate a crash mid-write: a whole frame header but only part of the
	// payload it promises.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	f.Write(hdr[:])
	f.Write([]byte("only a few bytes"))
	f.Close()

	j2, err := openJournal(path, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j2.tornRecords() != 1 {
		t.Fatalf("torn=%d want 1", j2.tornRecords())
	}
	un := j2.unfinished()
	if len(un) != 1 || un[0].Cycles != 42 {
		t.Fatalf("records before the tear lost: %+v", un)
	}
	// The tail was truncated, so the journal must accept appends again and
	// replay cleanly on the next open.
	if err := j2.logDone(1, []byte(`{"reason":"all-done"}`)); err != nil {
		t.Fatal(err)
	}
	j2.close()
	j3, err := openJournal(path, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.close()
	if j3.tornRecords() != 0 || len(j3.unfinished()) != 0 {
		t.Fatalf("post-truncation journal not clean: torn=%d unfinished=%d",
			j3.tornRecords(), len(j3.unfinished()))
	}
}

func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	j, path := tempJournal(t, 1<<20, nil)
	j.logJob(1, []byte(`{"source": "x"}`))
	j.logJob(2, []byte(`{"source": "y"}`))
	j.close()

	// Flip one payload byte of the second record; its CRC must catch it and
	// replay must stop there, keeping the first record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := 8 + binary.LittleEndian.Uint32(raw[0:4])
	raw[first+8+4] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := openJournal(path, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if j2.tornRecords() != 1 {
		t.Fatalf("torn=%d want 1", j2.tornRecords())
	}
	un := j2.unfinished()
	if len(un) != 1 || un[0].ID != 1 {
		t.Fatalf("unfinished=%+v want only job 1", un)
	}
}

func TestJournalCompaction(t *testing.T) {
	const maxBytes = 8 << 10
	j, path := tempJournal(t, maxBytes, nil)
	if err := j.logJob(1, []byte(`{"source": "keep"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.logJob(2, []byte(`{"source": "finish"}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.logDone(2, []byte(`{"reason":"all-done"}`)); err != nil {
		t.Fatal(err)
	}
	img := make([]byte, 1024)
	for i := 0; i < 64; i++ {
		img[0] = byte(i)
		if err := j.logCheckpoint(1, uint64(i+1)*1000, img); err != nil {
			t.Fatal(err)
		}
	}
	// 64 KiB of checkpoints went through an 8 KiB budget: compaction must
	// have kept the file bounded (budget + at most one oversized append).
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > maxBytes+2*1100 {
		t.Fatalf("journal grew to %d bytes despite %d budget", fi.Size(), maxBytes)
	}
	j.close()

	j2, err := openJournal(path, maxBytes, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	un := j2.unfinished()
	if len(un) != 1 || un[0].ID != 1 || un[0].Cycles != 64000 {
		t.Fatalf("compaction lost state: %+v", un)
	}
	if un[0].Checkpoint[0] != 63 {
		t.Fatal("compaction kept a stale checkpoint image")
	}
	if j2.maxID() < 1 {
		t.Fatalf("maxID=%d", j2.maxID())
	}
}

func TestJournalChaosTear(t *testing.T) {
	tears := faultmesh.New(faultmesh.Config{Seed: 1, JournalTear: 1})
	j, path := tempJournal(t, 1<<20, tears)
	if err := j.logJob(1, []byte(`{"source": "x"}`)); err == nil {
		t.Fatal("torn write injected but append reported success")
	}
	if j.tornRecords() == 0 {
		t.Fatal("injected tear not counted")
	}
	j.close()

	// The torn record is exactly what a crash mid-write leaves: the next
	// open detects it, truncates, and carries on.
	j2, err := openJournal(path, 1<<20, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if j2.tornRecords() != 1 {
		t.Fatalf("torn=%d want 1", j2.tornRecords())
	}
	if len(j2.unfinished()) != 0 {
		t.Fatal("torn record half-adopted")
	}
	if err := j2.logJob(2, []byte(`{"source": "y"}`)); err != nil {
		t.Fatal(err)
	}
}

// readDoneResults scans a journal file directly and returns the result JSON
// of every done record, keyed by job id — the audit-trail view a test uses
// to prove an acknowledged job's terminal result survived a restart.
func readDoneResults(t *testing.T, path string) map[uint64][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64][]byte)
	for off := 0; off+8 <= len(raw); {
		length := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		if off+8+length > len(raw) {
			break
		}
		payload := raw[off+8 : off+8+length]
		r := snapshot.NewReader(payload)
		if kind := r.U8(); kind == recDone {
			id := r.U64()
			out[id] = r.Bytes32()
		}
		off += 8 + length
	}
	return out
}
