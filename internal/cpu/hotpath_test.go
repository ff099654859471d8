package cpu

import (
	"testing"

	"splitmem/internal/isa"
)

// newHotMachine runs the hot loop nop; jmp with the superblock engine on,
// warmed until a compiled block has been entered, and returns its code frame.
func newHotMachine(tb testing.TB) (*Machine, uint32) {
	tb.Helper()
	m, _ := newTestMachineCfg(tb, Config{PhysBytes: 1 << 20, Superblocks: true},
		selfLoop(isa.Instr{Op: isa.OpNop}))
	m.SetSliceEnd(^uint64(0))
	warmLoop(tb, m)
	return m, m.Pagetable().Get(codeVPN).Frame()
}

// reSplit is one split-engine re-restriction as the engine sees it: the
// frame is dropped, and the guest fetches from it again, which re-heats the
// superblock entry point.
func reSplit(m *Machine, frame uint32) {
	m.DropDecodeFrame(frame)
	m.Ctx.EIP = codeBase
	m.Step()
}

// TestReSplitAllocFree: dropping a frame and refetching from it reuses the
// frame's superblock state in place. Only the first drop discards a block
// and counts an invalidation; each later cycle finds the entry point merely
// re-heated by one fetch, and the drop must forget that heat too, or the
// 101 refetches would compile the loop again.
func TestReSplitAllocFree(t *testing.T) {
	m, frame := newHotMachine(t)
	s0 := m.Stats
	allocs := testing.AllocsPerRun(100, func() { reSplit(m, frame) })
	if allocs != 0 {
		t.Fatalf("re-split cycle allocated %.1f times", allocs)
	}
	if m.Stats.SuperblockInvalidations != s0.SuperblockInvalidations+1 {
		t.Fatalf("invalidations=%d want %d (the warmed block only)",
			m.Stats.SuperblockInvalidations, s0.SuperblockInvalidations+1)
	}
	if m.Stats.SuperblockEntered != s0.SuperblockEntered || m.Stats.SuperblockCompiled != s0.SuperblockCompiled {
		t.Fatalf("a fetch after a drop entered (%d -> %d) or compiled (%d -> %d) a block",
			s0.SuperblockEntered, m.Stats.SuperblockEntered, s0.SuperblockCompiled, m.Stats.SuperblockCompiled)
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
// drop and the refetch that re-heats the frame's entry point.
func BenchmarkReSplit(b *testing.B) {
	m, frame := newHotMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reSplit(m, frame)
	}
}

// BenchmarkDispatch times compiled-code dispatch per retired instruction,
// driven the way the scheduler drives it (StepSlice under a 10,000-cycle
// slice), on three shapes: one long straight-line block looping on itself,
// a loop of two blocks on one page, and a loop that calls a function on the
// next page and returns.
func BenchmarkDispatch(b *testing.B) {
	alu := []isa.Instr{
		{Op: isa.OpAddImm, R1: isa.EAX, Imm: 3},
		{Op: isa.OpXor, R1: isa.EDX, R2: isa.EAX},
		{Op: isa.OpSubImm, R1: isa.ECX, Imm: 1},
		{Op: isa.OpMov, R1: isa.ESI, R2: isa.EDX},
	}
	var line []isa.Instr
	for i := 0; i < 8; i++ {
		line = append(line, alu...)
	}
	twoBlocks := func() []byte {
		first := asmBytes(alu...)
		j := isa.Instr{Op: isa.OpJmp} // rel32 0: falls into the second block
		code := isa.Encode(first, j)
		code = append(code, asmBytes(alu...)...)
		back := isa.Instr{Op: isa.OpJmp}
		back.Imm = rel32(codeBase+uint32(len(code)), isa.Len(back), codeBase)
		return isa.Encode(code, back)
	}
	callNear, callFar := callProg()
	for _, c := range []struct {
		name      string
		near, far []byte
	}{
		{"straight-line", selfLoop(line...), nil},
		{"same-page-loop", twoBlocks(), nil},
		{"cross-page-call", callNear, callFar},
	} {
		b.Run(c.name, func(b *testing.B) {
			m, _ := newChainMachine(b, true, c.near, c.far)
			run := func(n uint64) {
				for end := m.Stats.Instructions + n; m.Stats.Instructions < end; {
					m.SetSliceEnd(m.Cycles + 10000)
					for m.Cycles < m.sliceEnd {
						if m.StepSlice() != StepOK {
							b.Fatalf("stopped at EIP=%#x", m.Ctx.EIP)
						}
					}
				}
			}
			run(100 * sbHotThreshold * 64) // compile every block
			b.ReportAllocs()
			b.ResetTimer()
			i0 := m.Stats.Instructions
			run(uint64(b.N))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.Stats.Instructions-i0), "ns/instr")
		})
	}
}
