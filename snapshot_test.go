package splitmem_test

// Checkpoint unit tests: a Snapshot read back with ReadImage and booted
// round-trips, corruption in any byte is detected before any state is
// adopted, and the decoder survives arbitrary hostile images (FuzzRestore).
// The full architectural-equivalence proof lives in oracle_test.go
// (TestOracleSnapshot*).

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"splitmem"
	"splitmem/internal/workloads"
)

func snapshotFixture(t testing.TB) []byte {
	prog, ok := workloads.Lookup("syscall")
	if !ok {
		t.Fatal("syscall workload missing from catalog")
	}
	m, err := splitmem.New(splitmem.Config{
		Protection:     splitmem.ProtSplit,
		RandomizeStack: true,
		Seed:           11,
		TraceDepth:     16,
		PhysBytes:      4 << 20, // small RAM keeps the image fuzzer-sized
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.LoadAsm(prog.Src, prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Input != "" {
		p.StdinWrite([]byte(prog.Input))
		p.StdinClose()
	}
	m.Run(200_000) // park mid-run with split pages, TLB state, events
	img, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// restore boots a machine from checkpoint bytes: ReadImage, then Boot.
func restore(b []byte) (*splitmem.Machine, error) {
	img, err := splitmem.ReadImage(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return img.Boot()
}

// TestSnapshotRoundTrip: a machine booted from Snapshot(m) re-serializes
// byte-identically and its continued run finishes like the original.
func TestSnapshotRoundTrip(t *testing.T) {
	img := snapshotFixture(t)
	m, err := restore(img)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	img2, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatalf("restored machine re-serializes differently: %d vs %d bytes", len(img2), len(img))
	}
	res := m.Run(0)
	if res.Reason != splitmem.ReasonAllDone {
		t.Fatalf("restored machine did not finish: %v", res.Reason)
	}
	p, ok := m.Kernel().Process(1)
	if !ok {
		t.Fatal("pid 1 missing after restore")
	}
	if exited, status := p.Exited(); !exited || status != 0 {
		t.Fatalf("restored workload exited=%v status=%d", exited, status)
	}
}

// TestSnapshotDeterministic: two snapshots of the same parked machine are
// byte-identical (the image is a pure function of machine state).
func TestSnapshotDeterministic(t *testing.T) {
	a := snapshotFixture(t)
	b := snapshotFixture(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical machines serialize differently: %d vs %d bytes", len(a), len(b))
	}
}

// TestSnapshotRejectsCorruption: every single-byte flip anywhere in the
// image must be caught by the checksum, and truncation/version skew map to
// their typed sentinels.
func TestSnapshotRejectsCorruption(t *testing.T) {
	img := snapshotFixture(t)

	// Bit flips across the image (sampled; the CRC covers every byte).
	for off := 0; off < len(img); off += 1 + len(img)/97 {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x40
		if _, err := restore(mut); err == nil {
			t.Fatalf("corruption at offset %d went undetected", off)
		}
	}

	// Truncations at every framing-relevant prefix length.
	for _, n := range []int{0, 4, 8, 11, len(img) / 2, len(img) - 1} {
		if _, err := restore(img[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}

	// Version skew with a recomputed (valid) checksum.
	mut := append([]byte(nil), img...)
	mut[8] = 0xFF // version word follows the 8-byte magic
	patchChecksum(mut)
	_, err := restore(mut)
	if !errors.Is(err, splitmem.ErrSnapshotVersion) {
		t.Fatalf("version skew produced %v, want ErrSnapshotVersion", err)
	}

	// Bad magic: corruption when the checksum disagrees, a foreign format
	// (another build's checkpoint, say) when it matches.
	mut = append([]byte(nil), img...)
	mut[0] = 'X'
	if _, err := restore(mut); !errors.Is(err, splitmem.ErrSnapshotCorrupt) {
		t.Fatalf("bad magic produced %v, want ErrSnapshotCorrupt", err)
	}
	patchChecksum(mut)
	if _, err := restore(mut); !errors.Is(err, splitmem.ErrSnapshotVersion) {
		t.Fatalf("foreign magic produced %v, want ErrSnapshotVersion", err)
	}
}

// patchChecksum rewrites the trailing CRC so structural mutations survive
// the integrity check and exercise the decoder proper.
func patchChecksum(img []byte) {
	body := img[:len(img)-4]
	sum := crc32.ChecksumIEEE(body)
	img[len(img)-4] = byte(sum)
	img[len(img)-3] = byte(sum >> 8)
	img[len(img)-2] = byte(sum >> 16)
	img[len(img)-1] = byte(sum >> 24)
}

// FuzzRestore: the checkpoint decoder (ReadImage + Boot) must never panic,
// hang, or over-allocate on hostile input — corrupt, truncated,
// version-skewed, or CRC-repaired structurally-invalid images all fail with
// an error.
func FuzzRestore(f *testing.F) {
	img := snapshotFixture(f)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add([]byte("S86IMG\x00\x01"))
	f.Add([]byte{})
	// A CRC-valid but structurally mutated seed steers the fuzzer past the
	// checksum into the section decoders.
	mut := append([]byte(nil), img...)
	if len(mut) > 64 {
		mut[40] ^= 0xFF
		patchChecksum(mut)
	}
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := restore(data)
		if err != nil {
			return
		}
		defer m.Close()
		// A decodable image must yield a machine that can serialize itself.
		if _, err := m.Snapshot(); err != nil {
			t.Fatalf("restored machine cannot re-snapshot: %v", err)
		}
	})
}

// parkedWorkload loads the cataloged workload name under split memory and
// runs it for budget cycles, parking it at a timeslice boundary the way a
// checkpointing replica does.
func parkedWorkload(tb testing.TB, name string, budget uint64) *splitmem.Machine {
	return parkedWorkloadWith(tb, name, budget, splitmem.Config{Protection: splitmem.ProtSplit})
}

// parkedWorkloadWith is parkedWorkload on a machine built from cfg.
func parkedWorkloadWith(tb testing.TB, name string, budget uint64, cfg splitmem.Config) *splitmem.Machine {
	tb.Helper()
	prog, ok := workloads.Lookup(name)
	if !ok {
		tb.Fatalf("%s workload missing from catalog", name)
	}
	m, err := splitmem.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := m.LoadAsm(prog.Src, prog.Name)
	if err != nil {
		tb.Fatal(err)
	}
	if prog.Input != "" {
		p.StdinWrite([]byte(prog.Input))
		p.StdinClose()
	}
	if res := m.Run(budget); res.Reason != splitmem.ReasonBudget {
		tb.Fatalf("%s stopped with %v before %d cycles", name, res.Reason, budget)
	}
	return m
}

// TestSnapshotAllocs: a checkpoint sizes its buffers once. Snapshot of gzip
// parked at 3M cycles (a 969 KB image) allocates 16 times. Growing the
// image buffer by appending, one reallocation per doubling, took it to 61;
// leaving only the image writer's up-front sizing out takes it to 27;
// sizing the metadata writer for its allocator section alone, so the
// sections after it grew it by appending, took it to 23.
func TestSnapshotAllocs(t *testing.T) {
	m := parkedWorkload(t, "gzip", 3_000_000)
	defer m.Close()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > snapshotAllocBound {
		t.Fatalf("Snapshot allocated %.0f times, bound %d", allocs, snapshotAllocBound)
	}
}

// snapshotAllocBound is TestSnapshotAllocs's limit.
const snapshotAllocBound = 16

// BenchmarkSnapshot times one checkpoint (Machine.Snapshot) of gzip parked
// at 3M and 10M cycles and of nbench at 3M, reporting bytes per second of
// image written and allocations per checkpoint.
func BenchmarkSnapshot(b *testing.B) {
	for _, c := range []struct {
		name   string
		budget uint64
	}{
		{"gzip", 3_000_000},
		{"gzip", 10_000_000},
		{"nbench", 3_000_000},
	} {
		b.Run(fmt.Sprintf("%s/%dM", c.name, c.budget/1_000_000), func(b *testing.B) {
			m := parkedWorkload(b, c.name, c.budget)
			defer m.Close()
			img, err := m.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if img, err = m.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
			snapshotSink = img
		})
	}
}

var snapshotSink []byte
