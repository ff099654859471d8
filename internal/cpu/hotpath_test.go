package cpu

import (
	"testing"

	"splitmem/internal/isa"
)

// newBothMachine runs the hot loop nop; jmp with both fast paths on, warmed
// until a compiled block has been entered, and returns its code frame.
func newBothMachine(tb testing.TB) (*Machine, uint32) {
	tb.Helper()
	m, _ := newTestMachineCfg(tb, Config{PhysBytes: 1 << 20, DecodeCache: true, Superblocks: true},
		selfLoop(isa.Instr{Op: isa.OpNop}))
	m.SetSliceEnd(^uint64(0))
	warmLoop(tb, m)
	return m, m.Pagetable().Get(codeVPN).Frame()
}

// reSplit is one split-engine re-restriction as the engine sees it: the
// frame is dropped, and the guest fetches from it again, which refills the
// predecode line and re-heats the superblock entry point.
func reSplit(m *Machine, frame uint32) {
	m.DropDecodeFrame(frame)
	m.Ctx.EIP = codeBase
	m.Step()
}

// TestReSplitAllocFree: dropping a frame and refetching from it reuses the
// frame's predecode and superblock state in place.
func TestReSplitAllocFree(t *testing.T) {
	m, frame := newBothMachine(t)
	hits0, inv0 := m.Stats.DecodeHits, m.Stats.DecodeInvalidations
	allocs := testing.AllocsPerRun(100, func() { reSplit(m, frame) })
	if allocs != 0 {
		t.Fatalf("re-split cycle allocated %.1f times", allocs)
	}
	if m.Stats.DecodeHits != hits0 {
		t.Fatal("a fetch after a drop hit the predecode cache")
	}
	if m.Stats.DecodeInvalidations != inv0+101 {
		t.Fatalf("invalidations=%d want %d (one per drop)", m.Stats.DecodeInvalidations, inv0+101)
	}
}

// BenchmarkTranslate times the fetch and data translations on a TLB hit, and
// a fetch translation that misses and walks the pagetable.
func BenchmarkTranslate(b *testing.B) {
	m, _ := newTestMachineCfg(b, Config{PhysBytes: 1 << 20}, nil)
	var sink uint32
	b.Run("fetch-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pa, _ := m.Translate(codeBase, AccFetch)
			sink += pa
		}
	})
	b.Run("read-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pa, _ := m.Translate(dataBase, AccRead)
			sink += pa
		}
	})
	b.Run("fetch-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.ITLB.Invalidate(codeVPN)
			pa, _ := m.Translate(codeBase, AccFetch)
			sink += pa
		}
	})
	_ = sink
}

// BenchmarkReSplit times one re-restriction cycle of a hot code frame: the
// drop and the refetch that refills the frame's fast-path state.
func BenchmarkReSplit(b *testing.B) {
	m, frame := newBothMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reSplit(m, frame)
	}
}
