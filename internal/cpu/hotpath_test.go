package cpu

import (
	"bytes"
	"testing"

	"splitmem/internal/isa"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
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

// TestHotPathAllocFree: a compiled block of load, store, push and pop
// whose data accesses all hit the DTLB runs without allocating.
func TestHotPathAllocFree(t *testing.T) {
	m, _ := newTestMachineCfg(t, Config{PhysBytes: 1 << 20, Superblocks: true}, selfLoop(
		isa.Instr{Op: isa.OpLoad, R1: isa.EDX, R2: isa.EBX},
		isa.Instr{Op: isa.OpAddImm, R1: isa.EDX, Imm: 1},
		isa.Instr{Op: isa.OpStore, R1: isa.EBX, R2: isa.EDX, Imm: 4},
		isa.Instr{Op: isa.OpPush, R1: isa.EDX},
		isa.Instr{Op: isa.OpPop, R1: isa.ECX},
	))
	m.Ctx.R[isa.EBX] = dataBase
	run := func() {
		m.SetSliceEnd(m.Cycles + 10000)
		for m.Cycles < m.sliceEnd {
			if m.StepSlice() != StepOK {
				t.Fatalf("stopped at EIP=%#x", m.Ctx.EIP)
			}
		}
	}
	for m.Stats.SuperblockEntered == 0 {
		run()
	}
	run()
	_, misses0, _, _ := m.DTLB.Stats()
	ent0, acc0 := m.Stats.SuperblockEntered, m.Stats.DataAccesses
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("a slice of compiled loads, stores, pushes and pops allocated %.1f times", allocs)
	}
	if _, misses, _, _ := m.DTLB.Stats(); misses != misses0 {
		t.Fatalf("%d DTLB misses in the measured slices, want none", misses-misses0)
	}
	if m.Stats.SuperblockEntered == ent0 || m.Stats.DataAccesses == acc0 {
		t.Fatal("the measured slices ran no compiled data accesses")
	}
}

// TestUncheckedLoopLockStep: the unchecked dispatch loop and the checked
// one retire the same stream. The same program runs on two engine
// machines, one with a no-op trace hook, which forces every block through
// the checked loop, one without, and at every slice boundary both hold the
// identical context, cycle count, Stats (host counters included) and TLB
// state. The program loads, stores, pushes and pops, calls across a page,
// stores into its own code frame mid-block every 64th iteration (a write-
// generation side exit), and faults on a demand-mapped page every 8th;
// slices alternate between long and 1-60 cycles, so blocks both fit and
// cross the bound.
func TestUncheckedLoopLockStep(t *testing.T) {
	const lazyBase = 0x00100000 // demand-mapped: a new page every 8 iterations
	smcAt, dataAt := uint32(codeBase+0x800), uint32(dataBase+8)
	near := asmBytes(
		isa.Instr{Op: isa.OpAddImm, R1: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX},
		isa.Instr{Op: isa.OpLoad, R1: isa.EDX, R2: isa.EBX},
		isa.Instr{Op: isa.OpPush, R1: isa.EDX},
		isa.Instr{Op: isa.OpPop, R1: isa.ECX},
		// ebp = smcAt on every 64th iteration, dataAt otherwise: the
		// compiled block then stores into its own frame mid-block.
		isa.Instr{Op: isa.OpMov, R1: isa.EBP, R2: isa.EAX},
		isa.Instr{Op: isa.OpAndImm, R1: isa.EBP, Imm: 63},
		isa.Instr{Op: isa.OpAddImm, R1: isa.EBP, Imm: 63},
		isa.Instr{Op: isa.OpShr, R1: isa.EBP, Imm: 6},
		isa.Instr{Op: isa.OpXorImm, R1: isa.EBP, Imm: 1},
		isa.Instr{Op: isa.OpMulImm, R1: isa.EBP, Imm: smcAt - dataAt},
		isa.Instr{Op: isa.OpAddImm, R1: isa.EBP, Imm: dataAt},
		isa.Instr{Op: isa.OpStore, R1: isa.EBP, R2: isa.EAX},
		isa.Instr{Op: isa.OpLoad, R1: isa.ESI, R2: isa.EDI}, // faults on a fresh page
		isa.Instr{Op: isa.OpAddImm, R1: isa.EDI, Imm: 512},
		isa.Instr{Op: isa.OpAndImm, R1: isa.EDI, Imm: lazyBase | 0x3FE00},
	)
	call := isa.Instr{Op: isa.OpCall}
	call.Imm = rel32(codeBase+uint32(len(near)), isa.Len(call), farBase)
	near = isa.Encode(near, call)
	near = isa.Encode(near, isa.Instr{Op: isa.OpXor, R1: isa.ECX, R2: isa.EDX})
	back := isa.Instr{Op: isa.OpJmp}
	back.Imm = rel32(codeBase+uint32(len(near)), isa.Len(back), codeBase)
	near = isa.Encode(near, back)
	_, far := callProg()

	newMachine := func(hooked bool) *Machine {
		m, h := newChainMachine(t, true, near, far)
		pt := m.Pagetable()
		pt.Set(codeVPN, pt.Get(codeVPN).With(paging.Writable))
		// The handler maps the faulting page and unmaps the one before it
		// in the pagetable only, so the 64-page cycle keeps faulting once
		// the LRU has evicted a page's stale DTLB entry.
		data, prev := pt.Get(dataVPN), uint32(0)
		h.onPageFault = func(addr, _ uint32) Action {
			if addr&^(0x3F000|mem.PageMask) != lazyBase {
				t.Fatalf("unexpected fault at %#x", addr)
			}
			pt.Set(prev, 0)
			prev = addr >> mem.PageShift
			pt.Set(prev, data)
			return ActResume
		}
		m.Ctx.R[isa.EDI] = lazyBase
		if hooked {
			m.TraceHook = func(uint32, isa.Instr) {}
		}
		return m
	}
	plain, hooked := newMachine(false), newMachine(true)
	for n := uint64(0); n < 2000; n++ {
		length := uint64(1000)
		if n%2 == 1 {
			length = 1 + n%60
		}
		for _, m := range []*Machine{plain, hooked} {
			end := m.Cycles + length
			m.SetSliceEnd(end)
			for m.Cycles < end {
				if m.StepSlice() != StepOK {
					t.Fatalf("stopped at EIP=%#x", m.Ctx.EIP)
				}
			}
		}
		if plain.Ctx != hooked.Ctx || plain.Cycles != hooked.Cycles || plain.Stats != hooked.Stats {
			t.Fatalf("slice %d: unchecked and checked runs diverge:\nunchecked %+v cycles %d %+v\nchecked   %+v cycles %d %+v",
				n, plain.Ctx, plain.Cycles, plain.Stats, hooked.Ctx, hooked.Cycles, hooked.Stats)
		}
		if !bytes.Equal(encodeTLBs(plain), encodeTLBs(hooked)) {
			t.Fatalf("slice %d: TLB state diverges", n)
		}
	}
	s := plain.Stats
	if s.SuperblockEntered == 0 || s.SuperblockSideExits == 0 || s.PageFaults == 0 {
		t.Fatalf("the run entered %d blocks with %d side exits and %d page faults; it must exercise all three",
			s.SuperblockEntered, s.SuperblockSideExits, s.PageFaults)
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
