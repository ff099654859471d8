package splitmem_test

// Tests for the machine size limits Validate and the Image reader share,
// and for what a deep execution trace costs a machine that never fills it.

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
