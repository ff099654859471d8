package splitmem_test

// Tests for the machine size limits Validate and the Image reader share,
// and for what the configured sizes cost: a machine, its Image and its
// checkpoints cost what the guest touched, not PhysBytes or TraceDepth.

import (
	"errors"
	"runtime"
	"testing"

	"splitmem"
)

// TestConfigSizeLimits: every size field is valid at its limit and
// ErrBadConfig one past it, from Validate and from New alike. These are
// the limits past which the Image reader calls an image corrupt, so a
// machine New accepts never writes a checkpoint that cannot be resumed.
func TestConfigSizeLimits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
		set   func(*splitmem.Config, int)
	}{
		{"ITLBSize", 1 << 20, func(c *splitmem.Config, v int) { c.ITLBSize = v }},
		{"DTLBSize", 1 << 20, func(c *splitmem.Config, v int) { c.DTLBSize = v }},
		{"PhysBytes", 1 << 30, func(c *splitmem.Config, v int) { c.PhysBytes = v }},
		{"TraceDepth", 1 << 24, func(c *splitmem.Config, v int) { c.TraceDepth = v }},
		{"TelemetrySpanCap", 1 << 24, func(c *splitmem.Config, v int) { c.TelemetrySpanCap = v }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cfg splitmem.Config
			tc.set(&cfg, tc.limit)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("Validate() at the limit %d = %v, want nil", tc.limit, err)
			}
			tc.set(&cfg, tc.limit+1)
			if err := cfg.Validate(); !errors.Is(err, splitmem.ErrBadConfig) {
				t.Fatalf("Validate() at %d = %v, want ErrBadConfig", tc.limit+1, err)
			}
			if _, err := splitmem.New(cfg); !errors.Is(err, splitmem.ErrBadConfig) {
				t.Fatalf("New() at %d = %v, want ErrBadConfig", tc.limit+1, err)
			}
		})
	}
}

// TestTraceDepthIsABound: TraceDepth bounds the execution-trace ring
// rather than preallocating it. New+Close of a split-memory machine with
// telemetry and a 1<<20-entry trace allocates at most 64 KiB more than the
// same machine with no trace; preallocating the ring (and the engine's
// copy of it for detection events) cost 67 MB.
func TestTraceDepthIsABound(t *testing.T) {
	const reps = 4
	cost := func(depth int) uint64 {
		cfg := splitmem.Config{Protection: splitmem.ProtSplit, Telemetry: true, TraceDepth: depth}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			m, err := splitmem.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Close()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	cost(0) // warm up one-time package state
	base, deep := cost(0), cost(1<<20)
	t.Logf("New+Close allocates %d B with no trace, %d B with TraceDepth 1<<20", base, deep)
	if deep > base+64<<10 {
		t.Fatalf("TraceDepth 1<<20 costs %d B more than no trace, bound 64 KiB", deep-base)
	}
}

// TestImageSizeIgnoresPhysBytes: nbench parked at 3M cycles, with 5 frames
// in use, writes an Image of the same length at PhysBytes 16 MiB, 64 MiB
// and 1 GiB, under 32 KiB. An allocator section holding a free list and
// per-frame state for every frame made it 249 KB at 64 MiB and 3.7 MB at
// 1 GiB.
func TestImageSizeIgnoresPhysBytes(t *testing.T) {
	var sizes []int
	for _, phys := range []int{16 << 20, 64 << 20, 1 << 30} {
		m := parkedWorkloadWith(t, "nbench", 3_000_000, splitmem.Config{Protection: splitmem.ProtSplit, PhysBytes: phys})
		img, err := m.Snapshot()
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(img))
	}
	t.Logf("Image bytes at 16 MiB, 64 MiB, 1 GiB: %v", sizes)
	if sizes[0] != sizes[1] || sizes[1] != sizes[2] || sizes[0] >= 32<<10 {
		t.Fatalf("Image bytes at 16 MiB, 64 MiB, 1 GiB: %v, want one length under 32 KiB", sizes)
	}
}

// TestSnapshotSizeIgnoresTraceDepth: a 3-instruction program's Snapshot
// has the same length at TraceDepth 16 and 1<<20. Writing every slot of
// the ring, filled or not, made it 28.6 MB at 1<<20.
func TestSnapshotSizeIgnoresTraceDepth(t *testing.T) {
	const src = `
_start:
    mov ebx, 0
    mov eax, 1
    int 0x80
`
	var sizes []int
	for _, depth := range []int{16, 1 << 20} {
		m, err := splitmem.New(splitmem.Config{Protection: splitmem.ProtSplit, TraceDepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.LoadAsm(src, "exit"); err != nil {
			t.Fatal(err)
		}
		if res := m.Run(0); res.Reason != splitmem.ReasonAllDone {
			t.Fatalf("run ended with %v", res.Reason)
		}
		img, err := m.Snapshot()
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(img))
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("Snapshot bytes at TraceDepth 16 and 1<<20: %v, want equal", sizes)
	}
}

// TestForkCostIgnoresPhysBytes: a job forked from an nbench template Image
// (Boot, Run 200k cycles, Close) allocates at most 16 KiB more at
// PhysBytes 1 GiB than at 16 MiB. Copying the allocator's per-frame arrays
// on the first store, and indexing compiled blocks and the private overlay
// by every frame, cost megabytes per job at 1 GiB.
func TestForkCostIgnoresPhysBytes(t *testing.T) {
	const reps = 4
	cost := func(phys int) uint64 {
		tmpl := parkedWorkloadWith(t, "nbench", 10_000, splitmem.Config{Protection: splitmem.ProtSplit, PhysBytes: phys})
		defer tmpl.Close()
		img, err := tmpl.Image()
		if err != nil {
			t.Fatal(err)
		}
		job := func() {
			m, err := img.Boot()
			if err != nil {
				t.Fatal(err)
			}
			if res := m.Run(200_000); res.Reason != splitmem.ReasonBudget {
				t.Fatalf("forked job ended with %v", res.Reason)
			}
			m.Close()
		}
		job() // warm up one-time package state
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			job()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	small, large := cost(16<<20), cost(1<<30)
	t.Logf("a forked nbench job allocates %d B at 16 MiB, %d B at 1 GiB", small, large)
	if large > small+16<<10 {
		t.Fatalf("a forked nbench job allocates %d B more at 1 GiB than at 16 MiB, bound 16 KiB", large-small)
	}
}
