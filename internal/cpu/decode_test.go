package cpu

import (
	"testing"

	"splitmem/internal/isa"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
)

// newCachedMachine is newTestMachine with the predecode fast path enabled.
func newCachedMachine(t *testing.T, code []byte) (*Machine, *testHandler) {
	t.Helper()
	return newTestMachineCfg(t, Config{PhysBytes: 1 << 20, DecodeCache: true}, code)
}

// rerun points EIP back at codeBase and executes n instructions.
func rerun(t *testing.T, m *Machine, n int) {
	t.Helper()
	m.Ctx.EIP = codeBase
	stepN(t, m, n)
}

func TestDecodeCacheHitsOnReplay(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 7},
		{Op: isa.OpAddImm, R1: isa.EAX, Imm: 1},
		{Op: isa.OpNop},
	}
	m, _ := newCachedMachine(t, asmBytes(ins...))
	stepN(t, m, 3)
	if m.Stats.DecodeHits != 0 {
		t.Fatalf("cold run should not hit, got %d", m.Stats.DecodeHits)
	}
	if m.Stats.DecodeMisses != 3 {
		t.Fatalf("cold run misses=%d want 3", m.Stats.DecodeMisses)
	}
	rerun(t, m, 3)
	if m.Stats.DecodeHits != 3 {
		t.Fatalf("warm run hits=%d want 3", m.Stats.DecodeHits)
	}
	if m.Stats.DecodeMisses != 3 {
		t.Fatalf("warm run should add no misses, got %d", m.Stats.DecodeMisses)
	}
	if m.Ctx.R[isa.EAX] != 8 {
		t.Fatalf("eax=%d", m.Ctx.R[isa.EAX])
	}
}

// TestDecodeCacheDisabledByDefault: without Config.DecodeCache the fast path
// must stay entirely out of the fetch loop.
func TestDecodeCacheDisabledByDefault(t *testing.T) {
	m, _ := newTestMachine(t, asmBytes(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop}))
	stepN(t, m, 2)
	rerun(t, m, 2)
	if m.Stats.DecodeHits != 0 || m.Stats.DecodeMisses != 0 {
		t.Fatalf("disabled cache counted hits=%d misses=%d",
			m.Stats.DecodeHits, m.Stats.DecodeMisses)
	}
}

// TestDecodeCacheSelfModifyingStore: a guest store into its own (writable)
// code page must invalidate the cached decoding so the new instruction — not
// the stale one — executes.
func TestDecodeCacheSelfModifyingStore(t *testing.T) {
	// The program runs from the writable data page so it can store over
	// itself. Layout: patcher first, victim instruction after it.
	patch := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: 0}, // patched below: address of victim
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0}, // patched below: new first byte
		{Op: isa.OpStoreB, R1: isa.EBX, R2: isa.EAX},
	}
	victim := isa.Instr{Op: isa.OpMovImm, R1: isa.ECX, Imm: 5}
	code := asmBytes(patch...)
	victimOff := uint32(len(code))
	code = isa.Encode(code, victim)

	m, _ := newCachedMachine(t, nil)
	pt := m.Pagetable()
	pt.Set(dataVPN, pt.Get(dataVPN).With(paging.User|paging.Writable))
	frame := pt.Get(dataVPN).Frame()
	copy(m.Phys.Frame(frame), code)

	// First pass: run the victim once so it is cached, with the store
	// skipped (store a byte identical to the current one).
	run := func(newOpByte byte) {
		fr := m.Phys.Frame(frame)
		full := asmBytes(patch...)
		copy(fr, full)
		// Patch the patcher's immediates in place: EBX = victim address,
		// EAX = byte to store.
		b := isa.Encode(nil, isa.Instr{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase + victimOff})
		copy(fr, b)
		b2 := isa.Encode(nil, isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: uint32(newOpByte)})
		copy(fr[len(b):], b2)
		m.Ctx.EIP = dataBase
		stepN(t, m, 4) // patcher (3) + victim (1)
	}

	movOp := asmBytes(victim)[0]
	run(movOp) // identity store: victim decodes as mov ecx, 5
	if m.Ctx.R[isa.ECX] != 5 {
		t.Fatalf("first pass ecx=%d", m.Ctx.R[isa.ECX])
	}
	// Second pass: the store rewrites the victim's opcode to nop. The write
	// generation bump must evict the cached mov so the nop executes.
	m.Ctx.R[isa.ECX] = 0
	nopOp := asmBytes(isa.Instr{Op: isa.OpNop})[0]
	run(nopOp)
	if m.Ctx.R[isa.ECX] != 0 {
		t.Fatalf("stale decode executed: ecx=%d want 0 (nop)", m.Ctx.R[isa.ECX])
	}
}

// TestDecodeCacheHostWriteInvalidates: rewriting code through the physical
// frame (how the kernel, loader, chaos injector and split engine write) must
// invalidate cached decodings.
func TestDecodeCacheHostWriteInvalidates(t *testing.T) {
	m, _ := newCachedMachine(t, asmBytes(isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: 7}))
	stepN(t, m, 1)
	if m.Ctx.R[isa.EAX] != 7 {
		t.Fatalf("eax=%d", m.Ctx.R[isa.EAX])
	}
	frame := m.Pagetable().Get(codeVPN).Frame()
	copy(m.Phys.Frame(frame), asmBytes(isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: 9}))
	rerun(t, m, 1)
	if m.Ctx.R[isa.EAX] != 9 {
		t.Fatalf("stale decode served after frame rewrite: eax=%d", m.Ctx.R[isa.EAX])
	}

	// SetByte must invalidate too.
	b := isa.Encode(nil, isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: 11})
	for i, v := range b {
		m.Phys.SetByte(frame<<mem.PageShift+uint32(i), v)
	}
	rerun(t, m, 1)
	if m.Ctx.R[isa.EAX] != 11 {
		t.Fatalf("stale decode served after SetByte: eax=%d", m.Ctx.R[isa.EAX])
	}
}

// TestDecodeCacheFlushEpoch: FlushTLBs and Invlpg advance the decode epoch,
// forcing refills on the next fetch.
func TestDecodeCacheFlushEpoch(t *testing.T) {
	m, _ := newCachedMachine(t, asmBytes(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop}))
	stepN(t, m, 2)
	rerun(t, m, 2)
	if m.Stats.DecodeHits != 2 {
		t.Fatalf("hits=%d want 2", m.Stats.DecodeHits)
	}

	m.FlushTLBs()
	rerun(t, m, 2)
	if m.Stats.DecodeHits != 2 {
		t.Fatalf("flush did not invalidate: hits=%d", m.Stats.DecodeHits)
	}
	if m.Stats.DecodeMisses != 4 {
		t.Fatalf("misses=%d want 4", m.Stats.DecodeMisses)
	}
	if m.Stats.DecodeInvalidations == 0 {
		t.Fatal("refill after flush should count an invalidation")
	}

	m.Invlpg(codeBase)
	rerun(t, m, 2)
	if m.Stats.DecodeHits != 2 {
		t.Fatalf("invlpg did not invalidate: hits=%d", m.Stats.DecodeHits)
	}
}

// TestDecodeCacheDropFrame: the split engine's precise invalidation hook.
// The next fetch after a drop is a miss that refills the frame without a
// second count, and fetches after that hit again.
func TestDecodeCacheDropFrame(t *testing.T) {
	m, _ := newCachedMachine(t, asmBytes(isa.Instr{Op: isa.OpNop}))
	stepN(t, m, 1)
	rerun(t, m, 1)
	if m.Stats.DecodeHits != 1 {
		t.Fatalf("warm fetch hits=%d want 1", m.Stats.DecodeHits)
	}
	frame := m.Pagetable().Get(codeVPN).Frame()
	inv0 := m.Stats.DecodeInvalidations
	m.DropDecodeFrame(frame)
	if m.Stats.DecodeInvalidations != inv0+1 {
		t.Fatalf("invalidations=%d want %d", m.Stats.DecodeInvalidations, inv0+1)
	}
	m.DropDecodeFrame(frame) // already dropped: no double count
	if m.Stats.DecodeInvalidations != inv0+1 {
		t.Fatal("dropping a dropped frame must not count")
	}
	hits0, miss0 := m.Stats.DecodeHits, m.Stats.DecodeMisses
	rerun(t, m, 1)
	if m.Stats.DecodeHits != hits0 || m.Stats.DecodeMisses != miss0+1 {
		t.Fatalf("fetch after drop: hits %d->%d misses %d->%d, want one miss",
			hits0, m.Stats.DecodeHits, miss0, m.Stats.DecodeMisses)
	}
	rerun(t, m, 1)
	if m.Stats.DecodeHits != hits0+1 {
		t.Fatalf("refilled frame did not hit: hits=%d want %d", m.Stats.DecodeHits, hits0+1)
	}
	if m.Stats.DecodeInvalidations != inv0+1 {
		t.Fatalf("refill counted again: invalidations=%d want %d", m.Stats.DecodeInvalidations, inv0+1)
	}
}

// TestDecodeCachePageCrossingNeverCached: a frame-crossing instruction's
// slow-path fetch translates the second page (ITLB fills, faults, split-
// engine traps); replaying it from the cache would skip those side effects,
// so it must never be cached.
func TestDecodeCachePageCrossingNeverCached(t *testing.T) {
	m, _ := newCachedMachine(t, nil)
	pt := m.Pagetable()
	f2, _ := m.Phys.Alloc()
	pt.Set(codeVPN+1, paging.Entry(0).WithFrame(f2).With(paging.Present|paging.User))
	code := asmBytes(isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0x12345678})
	start := uint32(mem.PageSize - 2) // 2 bytes on page 1, 3 on page 2
	f1 := pt.Get(codeVPN).Frame()
	copy(m.Phys.Frame(f1)[start:], code[:2])
	copy(m.Phys.Frame(f2), code[2:])
	for pass := 0; pass < 3; pass++ {
		m.Ctx.R[isa.EAX] = 0
		m.Ctx.EIP = codeBase + start
		stepN(t, m, 1)
		if m.Ctx.R[isa.EAX] != 0x12345678 {
			t.Fatalf("pass %d: eax=%#x", pass, m.Ctx.R[isa.EAX])
		}
	}
	if m.Stats.DecodeHits != 0 {
		t.Fatalf("crossing instruction served from cache %d times", m.Stats.DecodeHits)
	}
	if m.Stats.DecodeMisses != 3 {
		t.Fatalf("misses=%d want 3", m.Stats.DecodeMisses)
	}
}

// TestDecodeCacheArchitecturalInvisibility: the fast path must charge the
// identical simulated cycles and retire the identical state as the slow
// path — here over code that mixes TLB misses, loads, stores and jumps.
func TestDecodeCacheArchitecturalInvisibility(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase},
		{Op: isa.OpMovImm, R1: isa.ECX, Imm: 50},
		// loop: eax += ecx; store eax; ecx--; jnz loop
		{Op: isa.OpAdd, R1: isa.EAX, R2: isa.ECX},
		{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX},
		{Op: isa.OpSubImm, R1: isa.ECX, Imm: 1},
		{Op: isa.OpJnz, Imm: 0}, // displacement patched below
	}
	// Compute the backward displacement: from the byte after jnz to the add.
	var off [7]uint32
	var b []byte
	for i, in := range prog {
		off[i] = uint32(len(b))
		b = isa.Encode(b, in)
	}
	off[6] = uint32(len(b))
	prog[5].Imm = off[2] - off[6] // negative, as uint32

	run := func(cached bool) (*Machine, int) {
		m, _ := newTestMachineCfg(t, Config{PhysBytes: 1 << 20, DecodeCache: cached}, asmBytes(prog...))
		steps := 0
		for m.Ctx.R[isa.ECX] != 1 || steps < 3 {
			stepN(t, m, 1)
			steps++
			if steps > 10000 {
				t.Fatal("runaway loop")
			}
		}
		return m, steps
	}
	fast, fsteps := run(true)
	slow, ssteps := run(false)
	if fsteps != ssteps {
		t.Fatalf("step counts diverge: %d vs %d", fsteps, ssteps)
	}
	if fast.Ctx != slow.Ctx {
		t.Fatalf("contexts diverge:\nfast %+v\nslow %+v", fast.Ctx, slow.Ctx)
	}
	if fast.Cycles != slow.Cycles {
		t.Fatalf("simulated cycles diverge: fast=%d slow=%d", fast.Cycles, slow.Cycles)
	}
	if fast.Stats.Instructions != slow.Stats.Instructions {
		t.Fatalf("retired counts diverge: %d vs %d",
			fast.Stats.Instructions, slow.Stats.Instructions)
	}
	fh, fm2, _, _ := fast.ITLB.Stats()
	sh, sm2, _, _ := slow.ITLB.Stats()
	if fh != sh || fm2 != sm2 {
		t.Fatalf("ITLB stats diverge: fast=%d/%d slow=%d/%d", fh, fm2, sh, sm2)
	}
	if fast.Stats.DecodeHits == 0 {
		t.Fatal("fast run never hit the cache — the test is vacuous")
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
