package splitmem

// The v2 client API: context-aware execution, typed configuration and
// input errors, and incremental event consumption. These exist because the
// splitmem-serve analysis service needs them — a network service must map
// failures to client-vs-server faults with errors.Is/As, cancel jobs on
// deadline or disconnect, and stream events without re-copying the log —
// but they are plain library surface, usable without the service.

import (
	"context"
	"errors"
	"fmt"

	"splitmem/internal/asm"
	"splitmem/internal/kernel"
	"splitmem/internal/loader"
	"splitmem/internal/mem"
)

// ErrBadConfig is the sentinel wrapped by every Config.Validate rejection.
// errors.Is(err, ErrBadConfig) on a New failure distinguishes "the caller
// asked for an impossible machine" from an internal construction failure.
var ErrBadConfig = errors.New("splitmem: bad config")

// ErrBadImage is loader.ErrBadImage re-exported: the sentinel wrapped by
// every LoadBinary rejection of a malformed or hostile SELF image.
var ErrBadImage = loader.ErrBadImage

// AsmError is asm.Error re-exported: the typed source-level failure
// (line number + message) returned by Assemble and LoadAsm. Pull it out
// with errors.As to report the offending line to the program's author.
type AsmError = asm.Error

// ReasonCanceled is returned by RunContext when its context is canceled or
// its deadline expires; see kernel.ReasonCanceled.
const ReasonCanceled = kernel.ReasonCanceled

// rate01 checks one chaos per-event probability.
func rate01(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%w: chaos rate %s = %v outside [0, 1]", ErrBadConfig, name, v)
	}
	return nil
}

// Machine size limits, shared by Validate and the Image reader (which
// calls an image past them corrupt), so that every machine New accepts
// writes checkpoints ReadImage can boot.
const (
	maxPhysBytes = 1 << 30
	maxTLBSize   = 1 << 20 // ITLBSize, DTLBSize
	maxRingCap   = 1 << 24 // TraceDepth, TelemetrySpanCap
)

// checkSizes rejects a size field that is negative or past its limit.
func (cfg Config) checkSizes() error {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"ITLBSize", cfg.ITLBSize, maxTLBSize}, {"DTLBSize", cfg.DTLBSize, maxTLBSize},
		{"PhysBytes", cfg.PhysBytes, maxPhysBytes},
		{"TraceDepth", cfg.TraceDepth, maxRingCap}, {"TelemetrySpanCap", cfg.TelemetrySpanCap, maxRingCap},
	} {
		if f.v < 0 {
			return fmt.Errorf("%w: negative %s %d", ErrBadConfig, f.name, f.v)
		}
		if f.v > f.max {
			return fmt.Errorf("%w: %s %d exceeds the limit %d", ErrBadConfig, f.name, f.v, f.max)
		}
	}
	return nil
}

// Validate checks the configuration for values no machine can honor. New
// calls it first, so a Config that survives Validate either boots or fails
// for an internal reason; services can therefore map ErrBadConfig to a
// client error and everything else from New to a server error.
func (cfg Config) Validate() error {
	if cfg.Protection < ProtNone || cfg.Protection > ProtSplitNX {
		return fmt.Errorf("%w: unknown protection %d", ErrBadConfig, int(cfg.Protection))
	}
	if cfg.Response < Break || cfg.Response > Recovery {
		return fmt.Errorf("%w: unknown response mode %d", ErrBadConfig, int(cfg.Response))
	}
	if cfg.SplitFraction < 0 || cfg.SplitFraction > 1 {
		return fmt.Errorf("%w: SplitFraction %v outside [0, 1]", ErrBadConfig, cfg.SplitFraction)
	}
	if n := len(cfg.ForensicShellcode); n > int(mem.PageSize) {
		return fmt.Errorf("%w: ForensicShellcode is %d bytes; it must fit one %d-byte code twin",
			ErrBadConfig, n, mem.PageSize)
	}
	if err := cfg.checkSizes(); err != nil {
		return err
	}
	if cfg.PhysBytes > 0 && cfg.PhysBytes < int(mem.PageSize) {
		return fmt.Errorf("%w: PhysBytes %d smaller than one %d-byte page",
			ErrBadConfig, cfg.PhysBytes, mem.PageSize)
	}
	c := cfg.Chaos
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"ITLBEvict", c.ITLBEvict}, {"DTLBEvict", c.DTLBEvict},
		{"TLBFlush", c.TLBFlush}, {"StaleTLB", c.StaleTLB},
		{"SpuriousDebug", c.SpuriousDebug}, {"DoubleFault", c.DoubleFault},
		{"BitFlip", c.BitFlip}, {"Preempt", c.Preempt},
	} {
		if err := rate01(r.name, r.v); err != nil {
			return err
		}
	}
	return nil
}

// RunContext is Run with cancellation and deadlines: when ctx is canceled
// or its deadline passes, the scheduler returns ReasonCanceled at the next
// timeslice boundary — within one timeslice of simulated work — with guest
// state consistent, so the machine may be resumed by a later Run call. See
// kernel.Kernel.RunContext for the polling contract.
func (m *Machine) RunContext(ctx context.Context, maxCycles uint64) RunResult {
	res := m.kern.RunContext(ctx, maxCycles)
	if res.Reason == ReasonInternalError {
		res.Trace = m.TraceTail()
	}
	return res
}

// EventSeq returns the machine's lifetime event count — the cursor an
// incremental reader passes to EventsSince.
func (m *Machine) EventSeq() int { return m.kern.EventSeq() }

// EventsSince returns the retained kernel events with lifetime sequence
// number >= n without copying the log; pollers and NDJSON streamers call
// it with the cursor from their previous EventSeq instead of re-reading
// Events() whole. The slice aliases the log and is valid until the next
// event is emitted.
func (m *Machine) EventsSince(n int) []Event { return m.kern.EventsSince(n) }
