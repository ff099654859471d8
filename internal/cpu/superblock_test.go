package cpu

import (
	"testing"

	"splitmem/internal/isa"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
)

// newSBMachine is newTestMachine with the superblock engine enabled. Raw
// machines have no scheduler publishing a timeslice bound, so the bound is
// opened wide here; individual tests narrow it to provoke side-exits.
func newSBMachine(t *testing.T, code []byte) (*Machine, *testHandler) {
	t.Helper()
	m, h := newTestMachineCfg(t, Config{PhysBytes: 1 << 20, Superblocks: true}, code)
	m.SetSliceEnd(^uint64(0))
	return m, h
}

// selfLoop assembles body followed by a jmp back to the loop head, the
// canonical hot region: a straight-line block with a terminal branch.
func selfLoop(body ...isa.Instr) []byte {
	b := asmBytes(body...)
	jlen := len(isa.Encode(nil, isa.Instr{Op: isa.OpJmp}))
	total := len(b) + jlen
	return isa.Encode(b, isa.Instr{Op: isa.OpJmp, Imm: uint32(-int32(total))})
}

// warmLoop steps until the engine has entered at least one compiled block.
func warmLoop(t testing.TB, m *Machine) {
	t.Helper()
	for i := 0; m.Stats.SuperblockEntered == 0; i++ {
		if i > 100*sbHotThreshold {
			t.Fatal("loop never got hot")
		}
		if m.Step() != StepOK {
			t.Fatalf("stopped while warming (EIP=%#x)", m.Ctx.EIP)
		}
	}
}

// TestSuperblockCompileAndEnter: a hot self-loop is compiled and entered,
// and the superblock machine ends in exactly the state a pure interpreter
// reaches after the same number of retired instructions.
func TestSuperblockCompileAndEnter(t *testing.T) {
	prog := selfLoop(
		isa.Instr{Op: isa.OpAddImm, R1: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.OpAddImm, R1: isa.EAX, Imm: 2},
	)
	m, _ := newSBMachine(t, prog)
	for m.Stats.Instructions < 300 {
		if m.Step() != StepOK {
			t.Fatalf("stopped at EIP=%#x", m.Ctx.EIP)
		}
	}
	if m.Stats.SuperblockCompiled == 0 {
		t.Fatal("hot loop never compiled")
	}
	if m.Stats.SuperblockEntered == 0 {
		t.Fatal("compiled block never entered")
	}

	ref, _ := newTestMachine(t, prog)
	for ref.Stats.Instructions < m.Stats.Instructions {
		if ref.Step() != StepOK {
			t.Fatalf("interpreter stopped at EIP=%#x", ref.Ctx.EIP)
		}
	}
	if ref.Ctx != m.Ctx {
		t.Fatalf("contexts diverge:\nsb     %+v\ninterp %+v", m.Ctx, ref.Ctx)
	}
	if ref.Cycles != m.Cycles {
		t.Fatalf("cycles diverge: sb %d, interp %d", m.Cycles, ref.Cycles)
	}
}

// TestSuperblockDisabledWithoutConfig: without Config.Superblocks the engine
// must stay entirely out of the step loop.
func TestSuperblockDisabledWithoutConfig(t *testing.T) {
	m, _ := newTestMachine(t, selfLoop(isa.Instr{Op: isa.OpNop}))
	for i := 0; i < 200; i++ {
		if m.Step() != StepOK {
			t.Fatalf("stopped at EIP=%#x", m.Ctx.EIP)
		}
	}
	if m.Stats.SuperblockCompiled != 0 || m.Stats.SuperblockEntered != 0 {
		t.Fatalf("disabled engine ran: compiled=%d entered=%d",
			m.Stats.SuperblockCompiled, m.Stats.SuperblockEntered)
	}
}

// TestSuperblockHostWriteInvalidates: rewriting code through the physical
// frame (kernel, loader, chaos injector, split engine) must invalidate the
// compiled block so the new instruction — not the stale closure — executes.
func TestSuperblockHostWriteInvalidates(t *testing.T) {
	prog := selfLoop(isa.Instr{Op: isa.OpMovImm, R1: isa.ECX, Imm: 5})
	m, _ := newSBMachine(t, prog)
	warmLoop(t, m)
	if m.Ctx.R[isa.ECX] != 5 {
		t.Fatalf("ecx=%d want 5", m.Ctx.R[isa.ECX])
	}

	frame := m.Pagetable().Get(codeVPN).Frame()
	patch := isa.Encode(nil, isa.Instr{Op: isa.OpMovImm, R1: isa.ECX, Imm: 9})
	for i, v := range patch {
		m.Phys.SetByte(frame<<mem.PageShift+uint32(i), v)
	}
	inv0 := m.Stats.SuperblockInvalidations
	stepN(t, m, 1) // EIP is at the loop head: this retires the patched mov
	if m.Ctx.R[isa.ECX] != 9 {
		t.Fatalf("stale block executed after frame rewrite: ecx=%d want 9", m.Ctx.R[isa.ECX])
	}
	if m.Stats.SuperblockInvalidations != inv0+1 {
		t.Fatalf("invalidations=%d want %d", m.Stats.SuperblockInvalidations, inv0+1)
	}

	// Hotness is re-proven from scratch: the loop recompiles and re-enters.
	comp0 := m.Stats.SuperblockCompiled
	for i := 0; i < 4*sbHotThreshold; i++ {
		stepN(t, m, 1)
	}
	if m.Stats.SuperblockCompiled <= comp0 {
		t.Fatal("loop never recompiled after invalidation")
	}
}

// TestSuperblockSelfStoreSideExit: a compiled store that writes into the
// executing frame must side-exit immediately after retiring, so no stale op
// after it can run; the next fetch revalidates and invalidates the frame.
func TestSuperblockSelfStoreSideExit(t *testing.T) {
	store := isa.Instr{Op: isa.OpStoreB, R1: isa.EBX, R2: isa.EAX}
	prog := selfLoop(
		store,
		isa.Instr{Op: isa.OpAddImm, R1: isa.ECX, Imm: 1},
	)
	m, _ := newSBMachine(t, prog)
	// The loop stores into its own page, so map the code page writable.
	pt := m.Pagetable()
	pt.Set(codeVPN, pt.Get(codeVPN).With(paging.Writable))
	// Warm up with the store aimed at a different frame: the code frame's
	// stamps stay valid and the loop compiles.
	m.Ctx.R[isa.EBX] = dataBase
	m.Ctx.R[isa.EAX] = 0x42
	warmLoop(t, m)

	// Aim the store into the code frame itself (a padding byte well past the
	// loop): the write generation bump must end the block after the store.
	storeLen := uint32(len(isa.Encode(nil, store)))
	m.Ctx.R[isa.EBX] = codeBase + mem.PageSize - 1
	s0 := m.Stats.SuperblockSideExits
	c0 := m.Ctx.R[isa.ECX]
	stepN(t, m, 1)
	if m.Stats.SuperblockSideExits != s0+1 {
		t.Fatalf("side exits=%d want %d", m.Stats.SuperblockSideExits, s0+1)
	}
	if m.Ctx.R[isa.ECX] != c0 {
		t.Fatal("block ran past the self-modifying store")
	}
	if m.Ctx.EIP != codeBase+storeLen {
		t.Fatalf("EIP=%#x want %#x (after the store)", m.Ctx.EIP, codeBase+storeLen)
	}

	// The next fetch finds stale stamps and drops the frame's blocks.
	inv0 := m.Stats.SuperblockInvalidations
	stepN(t, m, 1)
	if m.Stats.SuperblockInvalidations != inv0+1 {
		t.Fatalf("invalidations=%d want %d", m.Stats.SuperblockInvalidations, inv0+1)
	}
	if m.Ctx.R[isa.ECX] != c0+1 {
		t.Fatalf("ecx=%d want %d", m.Ctx.R[isa.ECX], c0+1)
	}
}

// TestSuperblockFlushAndInvlpgInvalidate: TLB flushes and invlpg advance the
// decode epoch, invalidating compiled blocks — the split engine's
// re-restriction path depends on it.
func TestSuperblockFlushAndInvlpgInvalidate(t *testing.T) {
	m, _ := newSBMachine(t, selfLoop(isa.Instr{Op: isa.OpNop}))
	warmLoop(t, m)

	inv0 := m.Stats.SuperblockInvalidations
	m.FlushTLBs()
	stepN(t, m, 1)
	if m.Stats.SuperblockInvalidations != inv0+1 {
		t.Fatalf("flush: invalidations=%d want %d", m.Stats.SuperblockInvalidations, inv0+1)
	}

	// Re-heat until compiled again, then invlpg must invalidate once more.
	for i := 0; m.Stats.SuperblockInvalidations == inv0+1 && m.Stats.SuperblockEntered < 2; i++ {
		if i > 100*sbHotThreshold {
			t.Fatal("loop never recompiled after flush")
		}
		stepN(t, m, 1)
	}
	inv1 := m.Stats.SuperblockInvalidations
	m.Invlpg(codeBase)
	stepN(t, m, 1)
	if m.Stats.SuperblockInvalidations != inv1+1 {
		t.Fatalf("invlpg: invalidations=%d want %d", m.Stats.SuperblockInvalidations, inv1+1)
	}
}

// TestSuperblockDropFrame: the split engine's precise invalidation hook
// drops a frame's compiled blocks and entry-point heat. The drop
// counts once, however often it repeats, and no compiled block of the frame
// runs again until the loop head proves hot anew and recompiles.
func TestSuperblockDropFrame(t *testing.T) {
	m, _ := newSBMachine(t, selfLoop(isa.Instr{Op: isa.OpNop}))
	warmLoop(t, m)
	frame := m.Pagetable().Get(codeVPN).Frame()
	inv0 := m.Stats.SuperblockInvalidations
	m.DropDecodeFrame(frame)
	if m.Stats.SuperblockInvalidations != inv0+1 {
		t.Fatalf("invalidations=%d want %d", m.Stats.SuperblockInvalidations, inv0+1)
	}
	m.DropDecodeFrame(frame) // already dropped: no double count
	if m.Stats.SuperblockInvalidations != inv0+1 {
		t.Fatal("dropping a dropped frame must not count")
	}

	// The loop (nop; jmp) fetches its head every second instruction. Each of
	// the first sbHotThreshold-1 head fetches after the drop only heats it.
	m.Ctx.EIP = codeBase
	ent0, comp0 := m.Stats.SuperblockEntered, m.Stats.SuperblockCompiled
	stepN(t, m, 2*(sbHotThreshold-1))
	if m.Stats.SuperblockEntered != ent0 {
		t.Fatalf("a dropped block ran: entered %d -> %d", ent0, m.Stats.SuperblockEntered)
	}
	if m.Ctx.EIP != codeBase {
		t.Fatalf("EIP=%#x, want the loop head", m.Ctx.EIP)
	}
	stepN(t, m, 1)
	if m.Stats.SuperblockEntered != ent0+1 || m.Stats.SuperblockCompiled != comp0+1 {
		t.Fatalf("entered=%d compiled=%d, want %d and %d: the head must recompile once hot",
			m.Stats.SuperblockEntered, m.Stats.SuperblockCompiled, ent0+1, comp0+1)
	}
	if m.Stats.SuperblockInvalidations != inv0+1 {
		t.Fatalf("refilling a dropped frame counted again: invalidations=%d want %d",
			m.Stats.SuperblockInvalidations, inv0+1)
	}
}

// TestSuperblockUncompilableEntryPinned: an entry point whose first
// instruction must trap through the interpreter is marked uncompilable after
// it proves hot, so the engine stops re-attempting the compile.
func TestSuperblockUncompilableEntryPinned(t *testing.T) {
	prog := selfLoop(isa.Instr{Op: isa.OpInt, Imm: 0x21})
	m, h := newSBMachine(t, prog)
	h.onInt = func(byte) Action { return ActResume }
	for i := 0; i < 4*sbHotThreshold; i++ {
		stepN(t, m, 1)
	}
	frame := m.Pagetable().Get(codeVPN).Frame()
	sbf := m.sb[frame]
	if sbf == nil {
		t.Fatal("frame never tracked")
	}
	if st := sbf.state.get(0); st != sbNoCompile {
		t.Fatalf("state[0]=%#x, trapping entry point not pinned uncompilable", st)
	}
	if len(h.ints) < 2*sbHotThreshold {
		t.Fatalf("interrupts=%d, the int stopped being delivered", len(h.ints))
	}
}

// TestSuperblockTimesliceSideExit: a compiled block must stop retiring at
// the published timeslice bound, cycle-exactly where the scheduler's
// between-Step check would have stopped the interpreter.
func TestSuperblockTimesliceSideExit(t *testing.T) {
	nopLen := uint32(len(isa.Encode(nil, isa.Instr{Op: isa.OpNop})))
	prog := selfLoop(
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpNop},
	)
	m, _ := newSBMachine(t, prog)
	warmLoop(t, m)
	if m.Ctx.EIP != codeBase {
		t.Fatalf("warm loop not at head: EIP=%#x", m.Ctx.EIP)
	}

	// Two cycles of budget (Cost.Instr=1): the block must retire exactly two
	// nops, side-exit, and leave EIP at the third.
	s0 := m.Stats.SuperblockSideExits
	c0 := m.Cycles
	m.SetSliceEnd(c0 + 2)
	stepN(t, m, 1)
	if m.Stats.SuperblockSideExits != s0+1 {
		t.Fatalf("side exits=%d want %d", m.Stats.SuperblockSideExits, s0+1)
	}
	if m.Cycles != c0+2 {
		t.Fatalf("cycles=%d want %d", m.Cycles, c0+2)
	}
	if m.Ctx.EIP != codeBase+2*nopLen {
		t.Fatalf("EIP=%#x want %#x", m.Ctx.EIP, codeBase+2*nopLen)
	}
}

// TestSuperblockPageCrossingEntryNeverCompiled: a hot loop whose entry
// instruction straddles a page boundary is never compiled or entered as a
// block. Its fetch translates the second page (ITLB fill, fault, split-
// engine trap) on every pass, and a compiled replay would skip that.
func TestSuperblockPageCrossingEntryNeverCompiled(t *testing.T) {
	m, h := newSBMachine(t, nil)
	pt := m.Pagetable()
	f2, _ := m.Phys.Alloc()
	pt.Set(codeVPN+1, paging.Entry(0).WithFrame(f2).With(paging.Present|paging.User))
	// jmp to itself: 2 bytes on the first page, 3 on the second.
	start := codeBase + uint32(mem.PageSize-2)
	j := isa.Instr{Op: isa.OpJmp}
	j.Imm = rel32(start, isa.Len(j), start)
	code := asmBytes(j)
	copy(m.Phys.Frame(pt.Get(codeVPN).Frame())[mem.PageSize-2:], code[:2])
	copy(m.Phys.Frame(f2), code[2:])
	m.Ctx.EIP = start
	for pass := 0; pass < 4*sbHotThreshold; pass++ {
		h0, m0, _, _ := m.ITLB.Stats()
		stepN(t, m, 1)
		h1, m1, _, _ := m.ITLB.Stats()
		if got := h1 + m1 - h0 - m0; got != 2 {
			t.Fatalf("pass %d: %d ITLB lookups, want 2 (both pages)", pass, got)
		}
		if m.Ctx.EIP != start {
			t.Fatalf("pass %d: EIP=%#x want %#x", pass, m.Ctx.EIP, start)
		}
	}
	if m.Stats.SuperblockCompiled != 0 || m.Stats.SuperblockEntered != 0 {
		t.Fatalf("crossing entry compiled %d / entered %d times",
			m.Stats.SuperblockCompiled, m.Stats.SuperblockEntered)
	}
	// Unmapping the second page makes the very next pass fault on it.
	pt.Set(codeVPN+1, pt.Get(codeVPN+1).Without(paging.Present))
	m.ITLB.Invalidate(codeVPN + 1)
	if m.Step() != StepStopped {
		t.Fatal("fetch across into an unmapped page did not fault")
	}
	if n := len(h.pageFaults); n != 1 || h.pageFaults[0].Addr != codeBase+mem.PageSize {
		t.Fatalf("page faults %+v, want one at %#x", h.pageFaults, codeBase+mem.PageSize)
	}
}

// TestPageTableResetForgets: a reset hides every value, including across the
// wrap of the 16-bit generation, where a value written a whole generation
// cycle earlier would otherwise reappear.
func TestPageTableResetForgets(t *testing.T) {
	var pt pageTable
	pt.set(5, 7)
	pt.reset()
	if v := pt.get(5); v != 0 {
		t.Fatalf("value %d survived a reset", v)
	}
	pt.set(9, 3)
	for i := 0; i < 1<<16; i++ {
		pt.reset()
		if v := pt.get(9); v != 0 {
			t.Fatalf("value %d reappeared after %d resets", v, i+1)
		}
	}
	pt.set(9, 4)
	if v := pt.get(9); v != 4 {
		t.Fatalf("get after wrap = %d want 4", v)
	}
}
