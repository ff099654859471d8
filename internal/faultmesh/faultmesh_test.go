package faultmesh

// Unit tests for the fault plane's classes. The load-bearing property is
// the determinism contract: equal seeds and configs must produce identical
// fault schedules, because a failing chaos campaign is only debuggable if
// its seed reproduces it. The rest pins each fault class's observable
// behavior at the HTTP client boundary.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// meshBackend serves a fixed deterministic body so any mesh-side mutation
// (truncation, corruption) is visible as a byte diff.
func meshBackend(t *testing.T, hits *atomic.Int64) (*httptest.Server, []byte) {
	t.Helper()
	body := make([]byte, 8<<10)
	for i := range body {
		body[i] = byte(i * 31)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv, body
}

// outcome normalizes one request's observable result so two runs can be
// compared: transport error class, status, and the exact bytes received
// before any error.
func outcome(client *http.Client, url string) string {
	resp, err := client.Get(url)
	if err != nil {
		switch {
		case errors.Is(err, ErrInjectedReset):
			return "reset"
		case errors.Is(err, ErrInjectedPartition):
			return "partition"
		default:
			return "err:" + err.Error()
		}
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	tag := fmt.Sprintf("status=%d bytes=%d sum=%d", resp.StatusCode, len(b), checksum(b))
	if rerr != nil {
		if errors.Is(rerr, ErrInjectedReset) {
			return tag + " midreset"
		}
		return tag + " readerr:" + rerr.Error()
	}
	return tag
}

func checksum(b []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// TestMeshDeterministic is the acceptance check: two meshes with equal
// seeds and configs, fed an identical request sequence, inject an
// identical fault schedule — same per-request outcomes, same counters.
func TestMeshDeterministic(t *testing.T) {
	srv, _ := meshBackend(t, nil)
	cfg := Config{
		Seed:           77,
		Latency:        0.1,
		LatencyMin:     time.Microsecond,
		LatencyMax:     50 * time.Microsecond,
		Reset:          0.1,
		ResetMid:       0.1,
		Partition:      0.05,
		PartitionLen:   3,
		Asymmetric:     0.5,
		SlowLoris:      0.05,
		SlowLorisDelay: time.Microsecond,
		Truncate:       0.1,
		CorruptHeader:  0.1,
		Corrupt:        0.1,
	}
	const reqs = 300
	run := func() ([]string, Stats) {
		m := New(cfg)
		client := m.Client()
		outs := make([]string, reqs)
		for i := range outs {
			outs[i] = outcome(client, srv.URL)
		}
		return outs, m.Stats()
	}
	outA, statsA := run()
	outB, statsB := run()
	if statsA != statsB {
		t.Fatalf("same seed, different fault counters:\n  A: %+v\n  B: %+v", statsA, statsB)
	}
	if statsA == (Stats{}) {
		t.Fatalf("fault schedule injected nothing over %d requests: %+v", reqs, statsA)
	}
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("request %d diverged between equal-seed runs:\n  A: %s\n  B: %s", i, outA[i], outB[i])
		}
	}

	// A different seed must produce a different schedule (with these rates,
	// a 300-request collision is astronomically unlikely — and determinism
	// would make any collision permanent, so this also guards against the
	// seed being ignored).
	cfg.Seed = 78
	outC, _ := run()
	same := true
	for i := range outA {
		if outA[i] != outC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 77 and 78 produced identical %d-request schedules: seed is not wired in", reqs)
	}
}

// TestMeshPartition pins partition-window semantics: a symmetric window
// swallows requests before delivery, an asymmetric window delivers them
// (they take effect on the replica) but loses every response.
func TestMeshPartition(t *testing.T) {
	t.Run("symmetric", func(t *testing.T) {
		var hits atomic.Int64
		srv, _ := meshBackend(t, &hits)
		m := New(Config{Seed: 1, Partition: 1, PartitionLen: 4, Asymmetric: 0})
		client := m.Client()
		for i := 0; i < 5; i++ {
			if _, err := client.Get(srv.URL); !errors.Is(err, ErrInjectedPartition) {
				t.Fatalf("request %d: want injected partition, got %v", i, err)
			}
		}
		if hits.Load() != 0 {
			t.Fatalf("symmetric partition delivered %d requests to the backend", hits.Load())
		}
		if s := m.Stats(); s.Mesh.PartitionDrops != 5 || s.Mesh.PartitionWindows == 0 {
			t.Fatalf("unexpected partition stats: %+v", s)
		}
	})
	t.Run("asymmetric", func(t *testing.T) {
		var hits atomic.Int64
		srv, _ := meshBackend(t, &hits)
		m := New(Config{Seed: 1, Partition: 1, PartitionLen: 4, Asymmetric: 1})
		client := m.Client()
		for i := 0; i < 5; i++ {
			if _, err := client.Get(srv.URL); !errors.Is(err, ErrInjectedPartition) {
				t.Fatalf("request %d: want injected partition, got %v", i, err)
			}
		}
		if hits.Load() != 5 {
			t.Fatalf("asymmetric partition should deliver requests: backend saw %d of 5", hits.Load())
		}
	})
}

// TestMeshBodyFaults pins the response-body wrappers: truncation ends the
// body early with a clean EOF, corruption flips exactly one bit, and
// CorruptPaths confines corruption to matching paths.
func TestMeshBodyFaults(t *testing.T) {
	t.Run("truncate", func(t *testing.T) {
		srv, body := meshBackend(t, nil)
		m := New(Config{Seed: 3, Truncate: 1})
		resp, err := m.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			t.Fatalf("truncation must be a clean EOF, got %v", rerr)
		}
		if len(got) >= len(body) {
			t.Fatalf("truncation did not shorten the body: got %d of %d bytes", len(got), len(body))
		}
		if !bytes.Equal(got, body[:len(got)]) {
			t.Fatal("truncated prefix does not match the original body")
		}
	})
	t.Run("corrupt-path-gating", func(t *testing.T) {
		srv, body := meshBackend(t, nil)
		m := New(Config{Seed: 3, Corrupt: 1, CorruptPaths: []string{"/checkpoint"}})
		client := m.Client()

		resp, err := client.Get(srv.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, body) {
			t.Fatal("corruption fired on a path outside CorruptPaths")
		}

		resp, err = client.Get(srv.URL + "/v1/cluster/checkpoint/7")
		if err != nil {
			t.Fatal(err)
		}
		got, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		diff := 0
		for i := range got {
			if got[i] != body[i] {
				diff++
			}
		}
		if len(got) != len(body) || diff != 1 {
			t.Fatalf("body corruption should flip one byte in place: len %d vs %d, %d bytes differ",
				len(got), len(body), diff)
		}
		if m.Stats().Mesh.BodyCorruptions != 1 {
			t.Fatalf("stats: %+v", m.Stats())
		}
	})
	t.Run("midreset", func(t *testing.T) {
		srv, body := meshBackend(t, nil)
		m := New(Config{Seed: 3, ResetMid: 1})
		resp, err := m.Client().Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		got, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !errors.Is(rerr, ErrInjectedReset) {
			t.Fatalf("mid-body reset must surface as the injected reset, got %v", rerr)
		}
		if len(got) >= len(body) {
			t.Fatalf("mid-body reset after the whole body: %d bytes", len(got))
		}
	})
}

// TestMeshQuiesce: a quiesced plane is a clean wire, a healthy disk and a
// calm host at once; Resume picks every schedule back up.
func TestMeshQuiesce(t *testing.T) {
	srv, body := meshBackend(t, nil)
	m := New(Config{Seed: 9, Reset: 1, WorkerKill: 1, JournalTear: 1, CheckpointCorrupt: 1,
		ENOSPC: 1, SyncFail: 1, ReadCorrupt: 1})
	client := m.Client()
	if _, err := client.Get(srv.URL); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected reset before quiesce, got %v", err)
	}
	m.Quiesce()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatalf("quiesced mesh must pass traffic, got %v", err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got, body) {
		t.Fatal("quiesced mesh mutated the body")
	}
	if m.KillWorker() || m.TearJournal() || m.CorruptCheckpoint([]byte{1}) || m.OnRead([]byte{1}) {
		t.Fatal("quiesced plane fired a process, gateway or read fault")
	}
	if n, err := m.BeforeWrite(8); n != 8 || err != nil || m.BeforeSync() != nil {
		t.Fatal("quiesced plane fired a disk fault")
	}
	m.Resume()
	if _, err := client.Get(srv.URL); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("resumed mesh must inject again, got %v", err)
	}
	if !m.KillWorker() || !m.TearJournal() || !m.CorruptCheckpoint([]byte{1}) || m.BeforeSync() == nil {
		t.Fatal("resumed plane did not inject again")
	}
}

// TestDiskFaults pins the disk injector: equal seeds give equal schedules,
// an ENOSPC event fails a whole burst of writes (what pushes a journal
// past its degradation threshold), and Quiesce heals the disk.
func TestDiskFaults(t *testing.T) {
	t.Run("deterministic", func(t *testing.T) {
		cfg := Config{Seed: 5, ENOSPC: 0.2, ENOSPCBurst: 3, ShortWrite: 0.2, SyncFail: 0.2, ReadCorrupt: 0.5}
		run := func() ([]string, Stats) {
			d := New(cfg)
			var outs []string
			for i := 0; i < 200; i++ {
				allow, err := d.BeforeWrite(100)
				outs = append(outs, fmt.Sprintf("w:%d:%v", allow, err))
				outs = append(outs, fmt.Sprintf("s:%v", d.BeforeSync()))
				p := []byte{0xAA, 0xBB, 0xCC, 0xDD}
				d.OnRead(p)
				outs = append(outs, fmt.Sprintf("r:%x", p))
			}
			return outs, d.Stats()
		}
		outA, statsA := run()
		outB, statsB := run()
		if statsA != statsB {
			t.Fatalf("same seed, different disk stats:\n  A: %+v\n  B: %+v", statsA, statsB)
		}
		if ds := statsA.Disk; ds.ENOSPCs == 0 || ds.ShortWrites == 0 || ds.SyncFails == 0 || ds.ReadCorruptions == 0 {
			t.Fatalf("schedule left a fault class cold: %+v", statsA)
		}
		for i := range outA {
			if outA[i] != outB[i] {
				t.Fatalf("disk op %d diverged between equal-seed runs: %s vs %s", i, outA[i], outB[i])
			}
		}
	})
	t.Run("enospc-burst", func(t *testing.T) {
		d := New(Config{Seed: 5, ENOSPC: 1, ENOSPCBurst: 3})
		for i := 0; i < 3; i++ {
			allow, err := d.BeforeWrite(64)
			if allow != 0 || !errors.Is(err, ErrInjectedENOSPC) {
				t.Fatalf("burst write %d: want (0, ENOSPC), got (%d, %v)", i, allow, err)
			}
		}
		if got := d.Stats().Disk.ENOSPCs; got != 3 {
			t.Fatalf("burst of 3 recorded %d ENOSPCs", got)
		}
	})
	t.Run("quiesce", func(t *testing.T) {
		d := New(Config{Seed: 5, ENOSPC: 1, SyncFail: 1})
		d.Quiesce()
		if allow, err := d.BeforeWrite(64); allow != 64 || err != nil {
			t.Fatalf("quiesced disk must allow writes, got (%d, %v)", allow, err)
		}
		if err := d.BeforeSync(); err != nil {
			t.Fatalf("quiesced disk must allow fsync, got %v", err)
		}
	})
}
