package cpu

import (
	"bytes"
	"testing"

	"splitmem/internal/isa"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
	"splitmem/internal/snapshot"
	"splitmem/internal/tlb"
)

// farBase is a second code page, mapped by newChainMachine.
const (
	farBase = codeBase + mem.PageSize
	farVPN  = farBase >> mem.PageShift
)

// rel32 is the rel32 operand of a branch at addr with encoded size n that
// lands on target.
func rel32(addr uint32, n int, target uint32) uint32 { return target - (addr + uint32(n)) }

// newChainMachine maps near at codeBase and far at farBase. With sb set the
// superblock engine is on; otherwise the machine is a pure interpreter with
// the identical frame layout, the reference the chained run must match.
func newChainMachine(t testing.TB, sb bool, near, far []byte) (*Machine, *testHandler) {
	t.Helper()
	m, h := newTestMachineCfg(t, Config{PhysBytes: 1 << 20, Superblocks: sb}, near)
	f, _ := m.Phys.Alloc()
	copy(m.Phys.Frame(f), far)
	m.Pagetable().Set(farVPN, paging.Entry(0).WithFrame(f).With(paging.Present|paging.User))
	m.Ctx.R[isa.EBX] = dataBase
	return m, h
}

// callProg is a loop that crosses pages twice per iteration and chains into
// a same-page successor once: head stores, calls far (callee(1)), and the
// return block jumps back to head.
func callProg() (near, far []byte) {
	head := asmBytes(
		isa.Instr{Op: isa.OpAddImm, R1: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX},
	)
	call := isa.Instr{Op: isa.OpCall}
	callAt := codeBase + uint32(len(head))
	call.Imm = rel32(callAt, isa.Len(call), farBase)
	near = isa.Encode(head, call)
	back := isa.Instr{Op: isa.OpJmp}
	near = isa.Encode(near, isa.Instr{Op: isa.OpAddImm, R1: isa.ECX, Imm: 2})
	back.Imm = rel32(codeBase+uint32(len(near)), isa.Len(back), codeBase)
	near = isa.Encode(near, back)
	return near, callee(1)
}

// callee loads the value head stored, adds k, accumulates the sum in esi
// (so a callee run from the wrong frame leaves a lasting trace) and returns.
func callee(k uint32) []byte {
	return asmBytes(
		isa.Instr{Op: isa.OpLoad, R1: isa.EDX, R2: isa.EBX},
		isa.Instr{Op: isa.OpAddImm, R1: isa.EDX, Imm: k},
		isa.Instr{Op: isa.OpAdd, R1: isa.ESI, R2: isa.EDX},
		isa.Instr{Op: isa.OpRet},
	)
}

// scrub zeroes the host-side counters, the only Stats the engine may move.
func scrub(s Stats) Stats {
	s.DecodeHits, s.DecodeMisses, s.DecodeInvalidations = 0, 0, 0
	s.SuperblockCompiled, s.SuperblockEntered, s.SuperblockSideExits, s.SuperblockInvalidations = 0, 0, 0, 0
	return s
}

func encodeTLBs(m *Machine) []byte {
	w := snapshot.NewWriter()
	m.ITLB.EncodeState(w)
	m.DTLB.EncodeState(w)
	return w.Bytes()
}

// catchUp steps the reference interpreter to m's retired-instruction count
// and fails unless both machines are in the identical architectural state.
func catchUp(t *testing.T, m, ref *Machine) {
	t.Helper()
	for ref.Stats.Instructions < m.Stats.Instructions {
		if ref.Step() != StepOK {
			t.Fatalf("reference stopped at EIP=%#x", ref.Ctx.EIP)
		}
	}
	if ref.Ctx != m.Ctx {
		t.Fatalf("contexts diverge:\nchained %+v\ninterp  %+v", m.Ctx, ref.Ctx)
	}
	if ref.Cycles != m.Cycles {
		t.Fatalf("cycles diverge: chained %d, interp %d", m.Cycles, ref.Cycles)
	}
	if scrub(ref.Stats) != scrub(m.Stats) {
		t.Fatalf("stats diverge:\nchained %+v\ninterp  %+v", scrub(m.Stats), scrub(ref.Stats))
	}
	if !bytes.Equal(encodeTLBs(ref), encodeTLBs(m)) {
		t.Fatal("TLB state diverges from the interpreter's")
	}
}

// warmChain runs StepSlice in short slices until one call has chained
// through at least three successors, then single-steps to the loop head.
func warmChain(t *testing.T, m *Machine) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 100*sbHotThreshold {
			t.Fatal("loop never chained")
		}
		ent0 := m.Stats.SuperblockEntered
		slice(t, m, 200)
		if m.Stats.SuperblockEntered > ent0+3 {
			break
		}
	}
	for m.Ctx.EIP != codeBase {
		slice(t, m, 1)
	}
}

// slice is one StepSlice call under a bound n cycles away. An open bound
// would never return: a chained loop runs until the slice ends.
func slice(t *testing.T, m *Machine, n uint64) {
	t.Helper()
	m.SetSliceEnd(m.Cycles + n)
	if m.StepSlice() != StepOK {
		t.Fatalf("stopped at EIP=%#x", m.Ctx.EIP)
	}
}

// TestChainStoreRewritesSameFrameSuccessor: a call in block A pushes its
// return address over the immediate of A's compiled same-frame successor B.
// The chain must not continue into the stale B.
func TestChainStoreRewritesSameFrameSuccessor(t *testing.T) {
	// A: add ecx,1; call B.  B: mov edx,7; add esp,4; jmp A.
	a := asmBytes(isa.Instr{Op: isa.OpAddImm, R1: isa.ECX, Imm: 1})
	a = isa.Encode(a, isa.Instr{Op: isa.OpCall}) // rel32 0: B follows A
	bAt := codeBase + uint32(len(a))
	prog := isa.Encode(a, isa.Instr{Op: isa.OpMovImm, R1: isa.EDX, Imm: 7})
	prog = isa.Encode(prog, isa.Instr{Op: isa.OpAddImm, R1: isa.ESP, Imm: 4})
	j := isa.Instr{Op: isa.OpJmp}
	j.Imm = rel32(codeBase+uint32(len(prog)), isa.Len(j), codeBase)
	prog = isa.Encode(prog, j)

	m, _ := newChainMachine(t, true, prog, nil)
	ref, _ := newChainMachine(t, false, prog, nil)
	for _, mm := range []*Machine{m, ref} {
		pt := mm.Pagetable()
		pt.Set(codeVPN, pt.Get(codeVPN).With(paging.Writable))
	}
	warmChain(t, m)
	catchUp(t, m, ref)

	frame := m.Pagetable().Get(codeVPN).Frame()
	sbf := m.sb[frame]
	blkA, blkB := sbf.compiled(0), sbf.compiled(bAt-codeBase)
	if blkA == nil || blkB == nil {
		t.Fatalf("A=%p B=%p: both blocks must be compiled", blkA, blkB)
	}

	// Aim A's push at B's immediate: the return address (bAt) overwrites 7.
	for _, mm := range []*Machine{m, ref} {
		mm.Ctx.R[isa.ESP] = bAt + 1 + 4
	}
	ent0 := m.Stats.SuperblockEntered
	slice(t, m, 100)
	if m.Stats.SuperblockEntered != ent0+1 || m.Ctx.EIP != bAt {
		t.Fatalf("entered %d blocks, EIP=%#x: the chain went past the rewritten B", m.Stats.SuperblockEntered-ent0, m.Ctx.EIP)
	}
	stepN(t, m, 1)
	if m.Ctx.R[isa.EDX] != bAt {
		t.Fatalf("edx=%#x want %#x: the stale B ran", m.Ctx.R[isa.EDX], bAt)
	}
	catchUp(t, m, ref)
}

// TestChainDropFrame: a DropDecodeFrame between runs empties the frame's
// blocks. The run re-proves hotness in lock step with the interpreter, then
// chains through the recompiled blocks, never a block from before the drop.
func TestChainDropFrame(t *testing.T) {
	near, far := callProg()
	m, _ := newChainMachine(t, true, near, far)
	ref, _ := newChainMachine(t, false, near, far)
	warmChain(t, m)
	catchUp(t, m, ref)

	frame := m.Pagetable().Get(codeVPN).Frame()
	sbf := m.sb[frame]
	oldHead := sbf.compiled(0)
	if oldHead == nil {
		t.Fatal("loop head never compiled")
	}

	m.DropDecodeFrame(frame)
	for i := 0; sbf.compiled(0) == nil; i++ {
		if i > 100*sbHotThreshold {
			t.Fatal("loop head never recompiled")
		}
		slice(t, m, 100)
		catchUp(t, m, ref)
	}
	if sbf.compiled(0) == oldHead {
		t.Fatal("the loop head from before the drop survived it")
	}
	warmChain(t, m)
	catchUp(t, m, ref)
}

// TestChainCrossPageRepointed: when the ITLB entry of a cross-page
// successor is re-pointed to another frame — as the split engine does — the
// chain follows the entry to the new frame, never to the old frame's block.
func TestChainCrossPageRepointed(t *testing.T) {
	near, far := callProg()
	m, _ := newChainMachine(t, true, near, far)
	ref, _ := newChainMachine(t, false, near, far)
	warmChain(t, m)
	catchUp(t, m, ref)
	oldFar := m.Pagetable().Get(farVPN).Frame()
	if m.sb[oldFar] == nil || m.sb[oldFar].compiled(0) == nil {
		t.Fatal("far block never compiled")
	}

	// The twin frame's callee adds 100 instead of 1.
	for _, mm := range []*Machine{m, ref} {
		f, _ := mm.Phys.Alloc()
		copy(mm.Phys.Frame(f), callee(100))
		mm.LoadITLB(farVPN, tlb.Entry{Frame: f, User: true})
	}
	before := m.Ctx.R[isa.EAX]
	for m.Ctx.R[isa.EAX] < before+3 {
		slice(t, m, 100)
	}
	for m.Ctx.EIP != codeBase {
		slice(t, m, 1)
	}
	if m.Ctx.R[isa.EDX] != m.Ctx.R[isa.EAX]+100 {
		t.Fatalf("edx=%d eax=%d: the old frame's block ran", m.Ctx.R[isa.EDX], m.Ctx.R[isa.EAX])
	}
	catchUp(t, m, ref)
}

// TestChainTimesliceBoundaries: under 1000-cycle slices driven the way the
// kernel drives them, chained runs stop on exactly the interpreter's slice
// boundaries, with identical state at every one. Every other slice is
// short (1-60 cycles), and each starts with the data page evicted from the
// DTLB, so a page walk — the costliest charge a block's worst-case bound
// covers — lands near the bound.
func TestChainTimesliceBoundaries(t *testing.T) {
	near, far := callProg()
	m, _ := newChainMachine(t, true, near, far)
	ref, _ := newChainMachine(t, false, near, far)
	calls := 0
	for n := uint64(0); n < 400; n++ {
		length := uint64(1000)
		if n%2 == 1 {
			length = 1 + n%60
		}
		m.DTLB.Invalidate(dataVPN)
		ref.DTLB.Invalidate(dataVPN)
		end := m.Cycles + length
		m.SetSliceEnd(end)
		for m.Cycles < end {
			calls++
			if m.StepSlice() != StepOK {
				t.Fatal("stopped")
			}
		}
		for end := ref.Cycles + length; ref.Cycles < end; {
			if ref.Step() != StepOK {
				t.Fatal("reference stopped")
			}
		}
		if m.Stats.Instructions != ref.Stats.Instructions {
			t.Fatalf("slice %d ended after %d instructions, the interpreter's after %d",
				n, m.Stats.Instructions, ref.Stats.Instructions)
		}
		catchUp(t, m, ref)
	}
	if m.Stats.SuperblockEntered <= uint64(calls) {
		t.Fatalf("%d blocks entered in %d StepSlice calls: nothing chained", m.Stats.SuperblockEntered, calls)
	}
}
