package faultmesh

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/http"
	"slices"
	"testing"
	"time"
)

// TestClusterEnabled: the zero config injects nothing, settings that are
// not rates enable nothing, and every class's rate enables the plane on
// its own.
func TestClusterEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	inert := Config{Seed: 3, LatencyMin: time.Millisecond, LatencyMax: time.Second, PartitionLen: 2,
		SlowLorisDelay: time.Millisecond, SlowLorisBytes: 8, CorruptPaths: []string{"/x"}, ENOSPCBurst: 2}
	if inert.Enabled() {
		t.Fatal("a config without rates reports enabled")
	}
	for i, c := range []Config{
		{WorkerKill: 0.1}, {JournalTear: 0.1}, {CheckpointCorrupt: 0.1},
		{Latency: 0.1}, {Reset: 0.1}, {ResetMid: 0.1}, {Partition: 0.1}, {SlowLoris: 0.1},
		{Truncate: 0.1}, {CorruptHeader: 0.1}, {Corrupt: 0.1},
		{ENOSPC: 0.1}, {ShortWrite: 0.1}, {SyncFail: 0.1}, {ReadCorrupt: 0.1},
	} {
		if !c.Enabled() {
			t.Fatalf("rate %d reports disabled: %+v", i, c)
		}
	}
}

// TestClusterNilSafe: a nil plane is a valid "no faults" plane for every
// class.
func TestClusterNilSafe(t *testing.T) {
	var p *Plane
	if p.KillWorker() || p.TearJournal() || p.CorruptCheckpoint([]byte{1, 2, 3}) || p.OnRead([]byte{1}) {
		t.Fatal("nil plane fired")
	}
	if n, err := p.BeforeWrite(64); n != 64 || err != nil {
		t.Fatalf("nil plane write: (%d, %v)", n, err)
	}
	if err := p.BeforeSync(); err != nil {
		t.Fatalf("nil plane sync: %v", err)
	}
	if p.Transport(nil) != http.DefaultTransport {
		t.Fatal("nil plane wrapped the transport")
	}
	p.Quiesce()
	p.Resume()
	if p.Draw() != 0 || p.Stats() != (Stats{}) {
		t.Fatal("nil plane drew or counted")
	}
}

// Equal seeds must make identical checkpoint-corruption decisions;
// different seeds must diverge over 10k draws at rate 0.5.
func TestClusterDeterministicStream(t *testing.T) {
	decisions := func(seed uint64) []bool {
		p := New(Config{Seed: seed, CheckpointCorrupt: 0.5})
		out := make([]bool, 10_000)
		img := make([]byte, 8)
		for j := range out {
			out[j] = p.CorruptCheckpoint(img)
		}
		return out
	}
	a, b, c := decisions(7), decisions(7), decisions(8)
	if !slices.Equal(a, b) {
		t.Fatal("equal seeds diverged")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds agree on all 10k draws")
	}
}

// CorruptCheckpoint must change exactly one bit, never touch an empty
// image, and count only actual corruptions.
func TestCorruptCheckpointFlipsOneBit(t *testing.T) {
	p := New(Config{Seed: 42, CheckpointCorrupt: 1})
	img := bytes.Repeat([]byte{0xAA}, 512)
	orig := append([]byte(nil), img...)
	if !p.CorruptCheckpoint(img) {
		t.Fatal("rate-1 corruption did not fire")
	}
	diff := 0
	for i := range img {
		for b := 0; b < 8; b++ {
			if (img[i]^orig[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bits, want exactly 1", diff)
	}
	if p.CorruptCheckpoint(nil) {
		t.Fatal("corrupted an empty image")
	}
	if got := p.Stats().Gateway.CheckpointCorruptions; got != 1 {
		t.Fatalf("corruption counter %d, want 1", got)
	}
}

// Each class has a private stream: enabling and exercising every other
// class must not change the process class's decisions under the same seed.
func TestClusterStreamIndependent(t *testing.T) {
	srv, _ := meshBackend(t, nil)
	seq := func(others bool) []bool {
		cfg := Config{Seed: 99, WorkerKill: 0.5}
		if others {
			cfg.CheckpointCorrupt, cfg.Latency, cfg.LatencyMax = 0.5, 0.5, time.Millisecond
			cfg.ENOSPC, cfg.SyncFail, cfg.ReadCorrupt = 0.5, 0.5, 0.5
		}
		p := New(cfg)
		client := p.Client()
		out := make([]bool, 200)
		for j := range out {
			if others {
				p.CorruptCheckpoint(make([]byte, 4))
				p.BeforeWrite(8)
				p.BeforeSync()
				p.OnRead(make([]byte, 4))
				p.Draw()
				if resp, err := client.Get(srv.URL); err == nil {
					resp.Body.Close()
				}
			}
			out[j] = p.KillWorker()
		}
		return out
	}
	a, b := seq(false), seq(true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("process decision %d perturbed by the other classes", i)
		}
	}
}

// TestPlaneScheduleGolden pins the first 1,000 decisions of every class,
// Jitter and the conductor stream to digests taken from the injectors the
// plane replaced (HostInjector, ClusterInjector, Mesh, DiskFaults, the
// previous Jitter and the campaign conductor's private stream), for five
// seeds: a seed logged by an older campaign or chaos cell replays the same
// fault schedule. A digest changes only if a class's salt, draw order or
// decision arithmetic does.
func TestPlaneScheduleGolden(t *testing.T) {
	seeds := []uint64{0, 1, 7, 42, 99}
	golden := map[string][5]string{
		"process":   {"845797f6b9a34855", "8d380d57c8ce9bff", "25622b2bcf76045e", "1cb4c7c94adcdcca", "19a504fcd18362d2"},
		"gateway":   {"b749d8d79828e8c0", "af4cbbdddd3f4334", "1dcbc6cc8f480c8b", "357fc774f7395e45", "02f1e00c1cd087cb"},
		"mesh":      {"87af9c2b56b7c93e", "98b4d60bf7b40850", "ccb1f0b2731fe04a", "bc08c6c439f226bc", "d559aa2e6b255e58"},
		"disk":      {"efe7b9563325cfff", "7357bbdc6018c18c", "5706f705ff32515a", "e4fd628874217472", "5f0c4e7ccc8ef013"},
		"jitter":    {"d9ec455077b985cc", "ec54e220cf196d58", "3f859b7c5f6b5a54", "19daf22a75936b36", "c9edc45e74f35bd8"},
		"conductor": {"8cfa69829066804b", "d7439036f7283bc8", "b9d278b66beb013a", "024e84eec8076de4", "c6c0233b2fe01426"},
	}
	digest := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	schedules := map[string]func(seed uint64) string{
		// Worker kills and journal tears share the process stream, so they
		// are drawn interleaved.
		"process": func(seed uint64) string {
			h := sha256.New()
			p := New(Config{Seed: seed, WorkerKill: 0.35, JournalTear: 0.25})
			for i := 0; i < 1000; i++ {
				k := p.KillWorker()
				fmt.Fprintf(h, "%t %t\n", k, p.TearJournal())
			}
			return digest(h)
		},
		// Image lengths 0..96: the flip position is drawn for empty images too.
		"gateway": func(seed uint64) string {
			h := sha256.New()
			p := New(Config{Seed: seed, CheckpointCorrupt: 0.5})
			for i := 0; i < 1000; i++ {
				img := make([]byte, i%97)
				fired := p.CorruptCheckpoint(img)
				fmt.Fprintf(h, "%t %x\n", fired, img)
			}
			return digest(h)
		},
		// Every plan field, 1,000 requests on each of two links, with
		// checkpoint and non-checkpoint paths for the corruption gate.
		"mesh": func(seed uint64) string {
			h := sha256.New()
			p := New(Config{
				Seed: seed, Latency: 0.3, LatencyMin: time.Millisecond, LatencyMax: 20 * time.Millisecond,
				Reset: 0.1, ResetMid: 0.2, Partition: 0.03, PartitionLen: 3, Asymmetric: 0.5,
				SlowLoris: 0.2, Truncate: 0.2, CorruptHeader: 0.2, Corrupt: 0.3,
				CorruptPaths: []string{"/checkpoint"},
			})
			hosts := []string{"replica-a:8086", "replica-b:8086"}
			for i := 0; i < 2000; i++ {
				host, path := hosts[i%2], "/v1/jobs"
				if i%3 == 0 {
					path = "/v1/cluster/checkpoint/7"
				}
				req, err := http.NewRequest(http.MethodGet, "http://"+host+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				pl := p.plan(req)
				fmt.Fprintf(h, "%s %t %t %d %t %t %d %t %t %d %t %t %d %d\n", host,
					pl.partition, pl.partitionAsym, pl.latency, pl.reset, pl.resetMid, pl.resetMidAfter,
					pl.slow, pl.truncate, pl.truncateAfter, pl.corruptHeader, pl.corrupt, pl.corruptOff, pl.corruptBit)
			}
			return digest(h)
		},
		// Writes (with ENOSPC bursts), syncs and reads share the disk stream.
		"disk": func(seed uint64) string {
			h := sha256.New()
			p := New(Config{Seed: seed, ENOSPC: 0.05, ENOSPCBurst: 3, ShortWrite: 0.1, SyncFail: 0.1, ReadCorrupt: 0.3})
			for i := 0; i < 1000; i++ {
				allow, werr := p.BeforeWrite(100)
				serr := p.BeforeSync()
				rec := []byte("0123456789abcdef")
				r := p.OnRead(rec)
				fmt.Fprintf(h, "%d %v %v %t %x\n", allow, werr, serr, r, rec)
			}
			return digest(h)
		},
		"jitter": func(seed uint64) string {
			h := sha256.New()
			j := NewJitter(seed)
			for i := 0; i < 1000; i++ {
				fmt.Fprintf(h, "%d\n", j.Scale(100*time.Millisecond))
			}
			return digest(h)
		},
		"conductor": func(seed uint64) string {
			h := sha256.New()
			p := New(Config{Seed: seed})
			for i := 0; i < 1000; i++ {
				fmt.Fprintf(h, "%d\n", p.Draw())
			}
			return digest(h)
		},
	}
	for class, want := range golden {
		for i, seed := range seeds {
			if got := schedules[class](seed); got != want[i] {
				t.Errorf("%s seed %d: schedule digest %s, want %s", class, seed, got, want[i])
			}
		}
	}
}
