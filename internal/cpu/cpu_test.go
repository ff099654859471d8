package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"splitmem/internal/isa"
	"splitmem/internal/mem"
	"splitmem/internal/paging"
	"splitmem/internal/tlb"
)

// testHandler is a scripted trap handler for direct machine tests.
type testHandler struct {
	pageFaults []PageFault
	debugs     int
	ints       []byte
	undefs     int
	gps        int
	des        int
	bps        int

	onPageFault func(addr, code uint32) Action
	onDebug     func() Action
	onInt       func(v byte) Action
}

func (h *testHandler) PageFault(addr, code uint32) Action {
	h.pageFaults = append(h.pageFaults, PageFault{Addr: addr, Code: code})
	if h.onPageFault != nil {
		return h.onPageFault(addr, code)
	}
	return ActStop
}
func (h *testHandler) DebugTrap() Action {
	h.debugs++
	if h.onDebug != nil {
		return h.onDebug()
	}
	return ActResume
}
func (h *testHandler) Breakpoint() Action { h.bps++; return ActStop }
func (h *testHandler) Interrupt(v byte) Action {
	h.ints = append(h.ints, v)
	if h.onInt != nil {
		return h.onInt(v)
	}
	return ActStop
}
func (h *testHandler) Undefined() Action         { h.undefs++; return ActStop }
func (h *testHandler) GeneralProtection() Action { h.gps++; return ActStop }
func (h *testHandler) DivideError() Action       { h.des++; return ActStop }

// newTestMachine maps `code` at codeBase and a zeroed data page at dataBase,
// both user-accessible.
func newTestMachine(t *testing.T, code []byte) (*Machine, *testHandler) {
	t.Helper()
	return newTestMachineCfg(t, Config{PhysBytes: 1 << 20}, code)
}

// newTestMachineCfg is newTestMachine with an explicit machine configuration
// (the superblock tests need Superblocks set).
func newTestMachineCfg(t testing.TB, cfg Config, code []byte) (*Machine, *testHandler) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	pt := new(paging.Table)

	codeFrame, _ := m.Phys.Alloc()
	copy(m.Phys.Frame(codeFrame), code)
	pt.Set(codeVPN, paging.Entry(0).WithFrame(codeFrame).With(paging.Present|paging.User))

	dataFrame, _ := m.Phys.Alloc()
	pt.Set(dataVPN, paging.Entry(0).WithFrame(dataFrame).With(paging.Present|paging.User|paging.Writable))

	stackFrame, _ := m.Phys.Alloc()
	pt.Set(stackVPN, paging.Entry(0).WithFrame(stackFrame).With(paging.Present|paging.User|paging.Writable))

	m.SetPagetable(pt)
	m.Ctx = Context{EIP: codeBase}
	m.Ctx.R[isa.ESP] = stackBase + mem.PageSize - 16
	return m, h
}

const (
	codeBase  = 0x00010000
	codeVPN   = codeBase >> mem.PageShift
	dataBase  = 0x00020000
	dataVPN   = dataBase >> mem.PageShift
	stackBase = 0x00030000
	stackVPN  = stackBase >> mem.PageShift
)

func asmBytes(ins ...isa.Instr) []byte {
	var b []byte
	for _, in := range ins {
		b = isa.Encode(b, in)
	}
	return b
}

func stepN(t *testing.T, m *Machine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if m.Step() == StepStopped {
			t.Fatalf("stopped at step %d (EIP=%#x)", i, m.Ctx.EIP)
		}
	}
}

func TestArithmeticAndFlags(t *testing.T) {
	tests := []struct {
		name  string
		ins   []isa.Instr
		reg   byte
		want  uint32
		flags Flags
	}{
		{"add", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 2},
			{Op: isa.OpAddImm, R1: isa.EAX, Imm: 3},
		}, isa.EAX, 5, Flags{}},
		{"add overflow", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0x7fffffff},
			{Op: isa.OpAddImm, R1: isa.EAX, Imm: 1},
		}, isa.EAX, 0x80000000, Flags{SF: true, OF: true}},
		{"add carry", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0xffffffff},
			{Op: isa.OpAddImm, R1: isa.EAX, Imm: 1},
		}, isa.EAX, 0, Flags{ZF: true, CF: true}},
		{"sub borrow", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 1},
			{Op: isa.OpSubImm, R1: isa.EAX, Imm: 2},
		}, isa.EAX, 0xffffffff, Flags{SF: true, CF: true}},
		{"xor self", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.ECX, Imm: 77},
			{Op: isa.OpXor, R1: isa.ECX, R2: isa.ECX},
		}, isa.ECX, 0, Flags{ZF: true}},
		{"mul", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EDX, Imm: 7},
			{Op: isa.OpMulImm, R1: isa.EDX, Imm: 6},
		}, isa.EDX, 42, Flags{}},
		{"shl", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EBX, Imm: 1},
			{Op: isa.OpShl, R1: isa.EBX, Imm: 31},
		}, isa.EBX, 0x80000000, Flags{SF: true}},
		{"shr", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EBX, Imm: 0x80000000},
			{Op: isa.OpShr, R1: isa.EBX, Imm: 31},
		}, isa.EBX, 1, Flags{}},
		{"and", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.ESI, Imm: 0xff00ff00},
			{Op: isa.OpAndImm, R1: isa.ESI, Imm: 0x0ff00ff0},
		}, isa.ESI, 0x0f000f00, Flags{}},
		{"or", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EDI, Imm: 0xf0},
			{Op: isa.OpOrImm, R1: isa.EDI, Imm: 0x0f},
		}, isa.EDI, 0xff, Flags{}},
		{"div", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 42},
			{Op: isa.OpMovImm, R1: isa.ECX, Imm: 5},
			{Op: isa.OpDiv, R1: isa.EAX, R2: isa.ECX},
		}, isa.EAX, 8, Flags{}},
		{"mod", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 42},
			{Op: isa.OpMovImm, R1: isa.ECX, Imm: 5},
			{Op: isa.OpMod, R1: isa.EAX, R2: isa.ECX},
		}, isa.EAX, 2, Flags{}},
		{"lea", []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EBX, Imm: 100},
			{Op: isa.OpLea, R1: isa.EAX, R2: isa.EBX, Imm: 28},
		}, isa.EAX, 128, Flags{}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, _ := newTestMachine(t, asmBytes(tt.ins...))
			stepN(t, m, len(tt.ins))
			if got := m.Ctx.R[tt.reg]; got != tt.want {
				t.Errorf("reg=%#x want %#x", got, tt.want)
			}
			if m.Ctx.Flags != tt.flags {
				t.Errorf("flags=%+v want %+v", m.Ctx.Flags, tt.flags)
			}
		})
	}
}

func TestConditionalJumps(t *testing.T) {
	// cmp a, b then jcc: table of (a, b, op, taken).
	tests := []struct {
		a, b  uint32
		op    isa.Op
		taken bool
	}{
		{5, 5, isa.OpJz, true},
		{5, 6, isa.OpJz, false},
		{5, 6, isa.OpJnz, true},
		{1, 2, isa.OpJl, true},
		{2, 1, isa.OpJl, false},
		{0xffffffff, 1, isa.OpJl, true},  // -1 < 1 signed
		{0xffffffff, 1, isa.OpJae, true}, // 0xffffffff >= 1 unsigned
		{1, 0xffffffff, isa.OpJb, true},  // 1 < 0xffffffff unsigned
		{1, 0xffffffff, isa.OpJg, true},  // 1 > -1 signed
		{3, 3, isa.OpJge, true},
		{3, 3, isa.OpJle, true},
		{3, 3, isa.OpJa, false},
		{3, 3, isa.OpJbe, true},
		{4, 3, isa.OpJa, true},
	}
	for _, tt := range tests {
		ins := []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: tt.a},
			{Op: isa.OpMovImm, R1: isa.ECX, Imm: tt.b},
			{Op: isa.OpCmp, R1: isa.EAX, R2: isa.ECX},
			{Op: tt.op, Imm: 5},                       // skip next mov if taken
			{Op: isa.OpMovImm, R1: isa.EDI, Imm: 111}, // skipped when taken
			{Op: isa.OpMovImm, R1: isa.ESI, Imm: 222}, // always
		}
		m, _ := newTestMachine(t, asmBytes(ins...))
		steps := len(ins)
		if tt.taken {
			steps--
		}
		stepN(t, m, steps)
		gotTaken := m.Ctx.R[isa.EDI] == 0
		if gotTaken != tt.taken {
			t.Errorf("%v(%#x,%#x): taken=%v want %v", tt.op.Name(), tt.a, tt.b, gotTaken, tt.taken)
		}
		if m.Ctx.R[isa.ESI] != 222 {
			t.Errorf("%v: fallthrough instruction not executed", tt.op.Name())
		}
	}
}

func TestCallRetStack(t *testing.T) {
	// call +5 (to the mov), mov eax, 9, ret would return to after call...
	// build: call f; hlt; f: mov eax, 9; ret -- but ret goes back to hlt,
	// which raises #GP. Instead: call f; mov ebx, 1; int3 ... simpler to
	// verify ESP and the pushed return address directly.
	ins := []isa.Instr{
		{Op: isa.OpCall, Imm: 0}, // call next instruction
		{Op: isa.OpPop, R1: isa.EAX},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	sp0 := m.Ctx.R[isa.ESP]
	stepN(t, m, 2)
	if m.Ctx.R[isa.EAX] != codeBase+5 {
		t.Errorf("pushed return address %#x want %#x", m.Ctx.R[isa.EAX], codeBase+5)
	}
	if m.Ctx.R[isa.ESP] != sp0 {
		t.Errorf("stack imbalance: %#x vs %#x", m.Ctx.R[isa.ESP], sp0)
	}
}

func TestLoadStore(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase},
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0xCAFEBABE},
		{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX, Imm: 8},
		{Op: isa.OpLoad, R1: isa.ECX, R2: isa.EBX, Imm: 8},
		{Op: isa.OpLoadB, R1: isa.EDX, R2: isa.EBX, Imm: 8},
		{Op: isa.OpStoreB, R1: isa.EBX, R2: isa.EDX, Imm: 100},
		{Op: isa.OpLoadB, R1: isa.ESI, R2: isa.EBX, Imm: 100},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	stepN(t, m, len(ins))
	if m.Ctx.R[isa.ECX] != 0xCAFEBABE {
		t.Errorf("load: %#x", m.Ctx.R[isa.ECX])
	}
	if m.Ctx.R[isa.EDX] != 0xBE {
		t.Errorf("loadb: %#x", m.Ctx.R[isa.EDX])
	}
	if m.Ctx.R[isa.ESI] != 0xBE {
		t.Errorf("storeb round trip: %#x", m.Ctx.R[isa.ESI])
	}
}

func TestSyscallGate(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 1},
		{Op: isa.OpInt, Imm: 0x80},
	}
	m, h := newTestMachine(t, asmBytes(ins...))
	stepN(t, m, 1)
	if m.Step() != StepStopped {
		t.Fatal("int should stop via handler")
	}
	if len(h.ints) != 1 || h.ints[0] != 0x80 {
		t.Fatalf("ints=%v", h.ints)
	}
	// EIP advanced past the int before the handler ran.
	if m.Ctx.EIP != codeBase+7 {
		t.Fatalf("EIP=%#x", m.Ctx.EIP)
	}
}

func TestFaultDelivery(t *testing.T) {
	t.Run("divide error", func(t *testing.T) {
		ins := []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: 1},
			{Op: isa.OpDiv, R1: isa.EAX, R2: isa.ECX}, // ecx = 0
		}
		m, h := newTestMachine(t, asmBytes(ins...))
		stepN(t, m, 1)
		if m.Step() != StepStopped || h.des != 1 {
			t.Fatalf("des=%d", h.des)
		}
	})
	t.Run("undefined opcode", func(t *testing.T) {
		m, h := newTestMachine(t, []byte{0x0F})
		if m.Step() != StepStopped || h.undefs != 1 {
			t.Fatalf("undefs=%d", h.undefs)
		}
	})
	t.Run("hlt is privileged", func(t *testing.T) {
		m, h := newTestMachine(t, asmBytes(isa.Instr{Op: isa.OpHlt}))
		if m.Step() != StepStopped || h.gps != 1 {
			t.Fatalf("gps=%d", h.gps)
		}
	})
	t.Run("int3 breakpoint", func(t *testing.T) {
		m, h := newTestMachine(t, asmBytes(isa.Instr{Op: isa.OpInt3}))
		if m.Step() != StepStopped || h.bps != 1 {
			t.Fatalf("bps=%d", h.bps)
		}
	})
	t.Run("unmapped read", func(t *testing.T) {
		ins := []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EBX, Imm: 0xDEAD0000},
			{Op: isa.OpLoad, R1: isa.EAX, R2: isa.EBX},
		}
		m, h := newTestMachine(t, asmBytes(ins...))
		stepN(t, m, 1)
		if m.Step() != StepStopped || len(h.pageFaults) != 1 {
			t.Fatalf("pfs=%v", h.pageFaults)
		}
		pf := h.pageFaults[0]
		if pf.Addr != 0xDEAD0000 || pf.IsFetch() || pf.IsWrite() || pf.IsProtection() {
			t.Fatalf("pf=%+v", pf)
		}
		if m.CR2 != 0xDEAD0000 {
			t.Fatalf("CR2=%#x", m.CR2)
		}
	})
	t.Run("write to read-only", func(t *testing.T) {
		ins := []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EBX, Imm: codeBase},
			{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX},
		}
		m, h := newTestMachine(t, asmBytes(ins...))
		stepN(t, m, 1)
		if m.Step() != StepStopped || len(h.pageFaults) != 1 {
			t.Fatal("expected one page fault")
		}
		pf := h.pageFaults[0]
		if !pf.IsWrite() || !pf.IsProtection() {
			t.Fatalf("pf=%+v", pf)
		}
	})
	t.Run("write to read-only on a DTLB hit", func(t *testing.T) {
		ins := []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EBX, Imm: codeBase},
			{Op: isa.OpLoad, R1: isa.EAX, R2: isa.EBX}, // caches the read-only entry
			{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX},
		}
		m, h := newTestMachine(t, asmBytes(ins...))
		stepN(t, m, 2)
		hits0, misses0, _, _ := m.DTLB.Stats()
		if m.Step() != StepStopped || len(h.pageFaults) != 1 {
			t.Fatal("expected one page fault")
		}
		if hits, misses, _, _ := m.DTLB.Stats(); hits != hits0+1 || misses != misses0 {
			t.Fatalf("the store was not a DTLB hit: hits %d->%d, misses %d->%d", hits0, hits, misses0, misses)
		}
		if pf := h.pageFaults[0]; pf.Code != PFUser|PFPresent|PFWrite || pf.Addr != codeBase {
			t.Fatalf("pf=%+v", pf)
		}
	})
	t.Run("read of a supervisor entry on a DTLB hit", func(t *testing.T) {
		m, h := newTestMachine(t, asmBytes(
			isa.Instr{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase},
			isa.Instr{Op: isa.OpLoad, R1: isa.EAX, R2: isa.EBX},
		))
		m.LoadDTLB(dataVPN, tlb.Entry{Frame: m.Pagetable().Get(dataVPN).Frame()}) // User clear
		stepN(t, m, 1)
		if m.Step() != StepStopped || len(h.pageFaults) != 1 {
			t.Fatal("expected one page fault")
		}
		if pf := h.pageFaults[0]; pf.Code != PFUser|PFPresent || pf.Addr != dataBase {
			t.Fatalf("pf=%+v", pf)
		}
	})
	t.Run("fetch of an NX entry on an ITLB hit", func(t *testing.T) {
		m, h := newTestMachine(t, asmBytes(isa.Instr{Op: isa.OpNop}))
		m.NXEnabled = true
		m.LoadITLB(codeVPN, tlb.Entry{Frame: m.Pagetable().Get(codeVPN).Frame(), User: true, NoExec: true})
		if m.Step() != StepStopped || len(h.pageFaults) != 1 {
			t.Fatal("expected one page fault")
		}
		if pf := h.pageFaults[0]; pf.Code != PFUser|PFPresent|PFFetch || pf.Addr != codeBase {
			t.Fatalf("pf=%+v", pf)
		}
	})
}

// TestFaultingInstructionHasNoSideEffects: a push that faults must leave
// ESP untouched (restartability).
func TestFaultingInstructionHasNoSideEffects(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.ESP, Imm: 0xDEAD0008},
		{Op: isa.OpPush, R1: isa.EAX},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	stepN(t, m, 1)
	if m.Step() != StepStopped {
		t.Fatal("expected fault")
	}
	if m.Ctx.R[isa.ESP] != 0xDEAD0008 {
		t.Fatalf("ESP=%#x: side effect leaked from faulting push", m.Ctx.R[isa.ESP])
	}
	if m.Ctx.EIP != codeBase+5 {
		t.Fatalf("EIP=%#x: must still point at the faulting instruction", m.Ctx.EIP)
	}
}

// TestTrapFlagSingleStep: with TF set, the debug handler runs after exactly
// one completed instruction.
func TestTrapFlagSingleStep(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 1},
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 2},
	}
	m, h := newTestMachine(t, asmBytes(ins...))
	m.Ctx.Flags.TF = true
	h.onDebug = func() Action {
		m.Ctx.Flags.TF = false
		return ActResume
	}
	stepN(t, m, 2)
	if h.debugs != 1 {
		t.Fatalf("debugs=%d want 1", h.debugs)
	}
	if m.Ctx.R[isa.EAX] != 2 {
		t.Fatalf("eax=%d", m.Ctx.R[isa.EAX])
	}
}

// TestTLBCachesStaleEntry is the architectural foundation of the whole
// paper: after a translation is cached, changing the PTE does NOT change
// where accesses go until the TLB entry is invalidated.
func TestTLBCachesStaleEntry(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase},
		{Op: isa.OpLoad, R1: isa.EAX, R2: isa.EBX}, // fills DTLB
		{Op: isa.OpLoad, R1: isa.ECX, R2: isa.EBX}, // hits stale DTLB
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	oldFrame := m.Pagetable().Get(dataVPN).Frame()
	m.Phys.Write32(oldFrame<<mem.PageShift, 0x11111111)
	stepN(t, m, 2)
	if m.Ctx.R[isa.EAX] != 0x11111111 {
		t.Fatalf("first load %#x", m.Ctx.R[isa.EAX])
	}
	// Re-point the PTE at a different frame holding different content.
	newFrame, _ := m.Phys.Alloc()
	m.Phys.Write32(newFrame<<mem.PageShift, 0x22222222)
	m.Pagetable().Set(dataVPN, m.Pagetable().Get(dataVPN).WithFrame(newFrame))
	stepN(t, m, 1)
	if m.Ctx.R[isa.ECX] != 0x11111111 {
		t.Fatalf("stale TLB should still serve the old frame, got %#x", m.Ctx.R[isa.ECX])
	}
	// After invlpg the new mapping takes effect.
	m.Invlpg(dataBase)
	m.Ctx.EIP = codeBase + 5 + 7 // rerun the load into ECX
	stepN(t, m, 1)
	if m.Ctx.R[isa.ECX] != 0x22222222 {
		t.Fatalf("after invlpg got %#x", m.Ctx.R[isa.ECX])
	}
}

// TestITLBvsDTLBDesync: the split-TLB property — a fetch and a data access
// to the same virtual page can resolve to different frames.
func TestITLBvsDTLBDesync(t *testing.T) {
	// Program at codeBase reads its own first byte.
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: codeBase},
		{Op: isa.OpLoadB, R1: isa.EAX, R2: isa.EBX}, // fills DTLB for code page
		{Op: isa.OpNop},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	stepN(t, m, 2)
	// Now desynchronize: point the PTE at a second frame and invalidate
	// only the DTLB (simulating what the split engine arranges).
	twin, _ := m.Phys.Alloc()
	m.Phys.SetByte(twin<<mem.PageShift, 0x77)
	pte := m.Pagetable().Get(codeVPN)
	m.Pagetable().Set(codeVPN, pte.WithFrame(twin))
	m.DTLB.Invalidate(codeVPN)
	// Fetch still uses the ITLB (old frame: the nop executes fine) while a
	// data read now sees the twin.
	m.Ctx.EIP = codeBase + 5 // re-run the loadb
	stepN(t, m, 1)
	if m.Ctx.R[isa.EAX] != 0x77 {
		t.Fatalf("data view should be the twin, got %#x", m.Ctx.R[isa.EAX])
	}
	stepN(t, m, 1) // the nop fetched through the stale ITLB
	itlbE, ok := m.ITLB.Probe(codeVPN)
	if !ok {
		t.Fatal("ITLB lost its entry")
	}
	dtlbE, ok := m.DTLB.Probe(codeVPN)
	if !ok {
		t.Fatal("DTLB has no entry")
	}
	if itlbE.Frame == dtlbE.Frame {
		t.Fatal("TLBs should be desynchronized")
	}
}

func TestNXFetchFault(t *testing.T) {
	m, err := New(Config{PhysBytes: 1 << 20, NXEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	h := &testHandler{}
	m.SetHandler(h)
	pt := new(paging.Table)
	f, _ := m.Phys.Alloc()
	copy(m.Phys.Frame(f), asmBytes(isa.Instr{Op: isa.OpNop}))
	pt.Set(codeVPN, paging.Entry(0).WithFrame(f).With(paging.Present|paging.User|paging.NX))
	m.SetPagetable(pt)
	m.Ctx.EIP = codeBase
	if m.Step() != StepStopped || len(h.pageFaults) != 1 {
		t.Fatal("expected NX fetch fault")
	}
	if !h.pageFaults[0].IsFetch() || !h.pageFaults[0].IsProtection() {
		t.Fatalf("pf=%+v", h.pageFaults[0])
	}
}

func TestNXIgnoredOnLegacyHardware(t *testing.T) {
	m, _ := newTestMachine(t, nil) // NXEnabled=false
	pt := m.Pagetable()
	pt.Set(codeVPN, pt.Get(codeVPN).With(paging.NX))
	code := asmBytes(isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: 7})
	copy(m.Phys.Frame(pt.Get(codeVPN).Frame()), code)
	stepN(t, m, 1)
	if m.Ctx.R[isa.EAX] != 7 {
		t.Fatal("legacy hardware must ignore the NX bit")
	}
}

func TestSupervisorTouchFillsDTLB(t *testing.T) {
	m, _ := newTestMachine(t, nil)
	if _, ok := m.DTLB.Probe(dataVPN); ok {
		t.Fatal("DTLB should start cold")
	}
	if !m.SupervisorTouch(dataBase + 123) {
		t.Fatal("touch failed")
	}
	e, ok := m.DTLB.Probe(dataVPN)
	if !ok {
		t.Fatal("touch did not fill the DTLB")
	}
	if e.Frame != m.Pagetable().Get(dataVPN).Frame() {
		t.Fatal("wrong frame cached")
	}
	// Restricted pages can still be touched by the kernel; the cached
	// entry records the restriction.
	m.Pagetable().Set(dataVPN, m.Pagetable().Get(dataVPN).Without(paging.User))
	m.DTLB.Invalidate(dataVPN)
	if !m.SupervisorTouch(dataBase) {
		t.Fatal("supervisor touch must ignore the user bit")
	}
	e, _ = m.DTLB.Probe(dataVPN)
	if e.User {
		t.Fatal("cached entry must record the supervisor restriction")
	}
	// Touch of an unmapped page reports failure.
	if m.SupervisorTouch(0xDEAD0000) {
		t.Fatal("touch of unmapped page should fail")
	}
}

func TestPageCrossingInstruction(t *testing.T) {
	// Place a 5-byte mov so it straddles the code page boundary into an
	// adjacent mapped page.
	m, _ := newTestMachine(t, nil)
	pt := m.Pagetable()
	f2, _ := m.Phys.Alloc()
	pt.Set(codeVPN+1, paging.Entry(0).WithFrame(f2).With(paging.Present|paging.User))
	code := asmBytes(isa.Instr{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0x12345678})
	start := uint32(mem.PageSize - 2) // 2 bytes on page 1, 3 on page 2
	f1 := pt.Get(codeVPN).Frame()
	copy(m.Phys.Frame(f1)[start:], code[:2])
	copy(m.Phys.Frame(f2), code[2:])
	m.Ctx.EIP = codeBase + start
	stepN(t, m, 1)
	if m.Ctx.R[isa.EAX] != 0x12345678 {
		t.Fatalf("eax=%#x", m.Ctx.R[isa.EAX])
	}
}

func TestPageCrossingStoreAtomicity(t *testing.T) {
	// A 32-bit store crossing into an unmapped page must fault without
	// writing the first bytes.
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase + mem.PageSize - 2},
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 0xAABBCCDD},
		{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	stepN(t, m, 2)
	if m.Step() != StepStopped {
		t.Fatal("expected fault")
	}
	frame := m.Pagetable().Get(dataVPN).Frame()
	if got := m.Phys.Frame(frame)[mem.PageSize-2]; got != 0 {
		t.Fatalf("partial store leaked: %#x", got)
	}
}

func TestCycleAccounting(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EAX, Imm: 1},
		{Op: isa.OpNop},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	c0 := m.Cycles
	stepN(t, m, 2)
	if m.Cycles <= c0 {
		t.Fatal("no cycles charged")
	}
	if m.Stats.Instructions != 2 {
		t.Fatalf("instructions=%d", m.Stats.Instructions)
	}
	// Second run of the same code: TLB hits, cheaper than the cold run.
	warmStart := m.Cycles
	m.Ctx.EIP = codeBase
	stepN(t, m, 2)
	warm := m.Cycles - warmStart
	if warm >= m.Cycles-c0-warm {
		t.Fatalf("warm run (%d cycles) should be cheaper than cold (%d)", warm, m.Cycles-c0-warm)
	}
}

func TestSetPagetableFlushesTLBs(t *testing.T) {
	m, _ := newTestMachine(t, asmBytes(
		isa.Instr{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase},
		isa.Instr{Op: isa.OpLoad, R1: isa.EAX, R2: isa.EBX},
	))
	stepN(t, m, 2)
	if m.ITLB.Valid() == 0 || m.DTLB.Valid() == 0 {
		t.Fatal("TLBs should be warm")
	}
	other := new(paging.Table)
	m.SetPagetable(other)
	if m.ITLB.Valid() != 0 || m.DTLB.Valid() != 0 {
		t.Fatal("CR3 load must flush both TLBs")
	}
	// Reloading the same table is a no-op (no flush).
	m.SetPagetable(other)
}

func TestTLBStatsExposed(t *testing.T) {
	m, _ := newTestMachine(t, asmBytes(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop}))
	stepN(t, m, 2)
	hits, misses, _, _ := m.ITLB.Stats()
	if misses == 0 || hits == 0 {
		t.Fatalf("itlb hits=%d misses=%d", hits, misses)
	}
}

// TestAccessedDirtyBits: the hardware walker maintains A and D.
func TestAccessedDirtyBits(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpMovImm, R1: isa.EBX, Imm: dataBase},
		{Op: isa.OpLoad, R1: isa.EAX, R2: isa.EBX},
		{Op: isa.OpStore, R1: isa.EBX, R2: isa.EAX, Imm: 4},
	}
	m, _ := newTestMachine(t, asmBytes(ins...))
	if e := m.Pagetable().Get(dataVPN); uint64(e)&paging.Accessed != 0 {
		t.Fatal("A set before any access")
	}
	stepN(t, m, 2) // load
	e := m.Pagetable().Get(dataVPN)
	if uint64(e)&paging.Accessed == 0 {
		t.Fatal("A not set after read")
	}
	if uint64(e)&paging.Dirty != 0 {
		t.Fatal("D set after read only")
	}
	// The store hits the DTLB (no new walk), so D stays clear — exactly
	// how hardware behaves when the entry was cached by a read. Force a
	// re-walk to observe D.
	m.DTLB.Invalidate(dataVPN)
	stepN(t, m, 1) // store
	e = m.Pagetable().Get(dataVPN)
	if uint64(e)&paging.Dirty == 0 {
		t.Fatal("D not set after write walk")
	}
}

// TestFetchIntoUnmappedPage: an instruction stream running off the end of
// its page faults with a fetch code.
func TestFetchIntoUnmappedPage(t *testing.T) {
	m, h := newTestMachine(t, nil)
	// Fill the last bytes of the code page with NOPs; the next fetch walks
	// into an unmapped page.
	frame := m.Pagetable().Get(codeVPN).Frame()
	fr := m.Phys.Frame(frame)
	for i := mem.PageSize - 4; i < mem.PageSize; i++ {
		fr[i] = 0x90
	}
	m.Ctx.EIP = codeBase + mem.PageSize - 4
	stepN(t, m, 4)
	if m.Step() != StepStopped {
		t.Fatal("expected fetch fault")
	}
	if len(h.pageFaults) != 1 || !h.pageFaults[0].IsFetch() {
		t.Fatalf("pf=%v", h.pageFaults)
	}
	if h.pageFaults[0].Addr != codeBase+mem.PageSize {
		t.Fatalf("addr=%#x", h.pageFaults[0].Addr)
	}
}

// TestQuickArithmeticModel cross-checks machine arithmetic and flags
// against a plain Go reference model on random operands.
func TestQuickArithmeticModel(t *testing.T) {
	run := func(op isa.Op, a, b uint32) (uint32, Flags) {
		ins := []isa.Instr{
			{Op: isa.OpMovImm, R1: isa.EAX, Imm: a},
			{Op: isa.OpMovImm, R1: isa.ECX, Imm: b},
			{Op: op, R1: isa.EAX, R2: isa.ECX},
		}
		m, _ := newTestMachine(t, asmBytes(ins...))
		stepN(t, m, 3)
		return m.Ctx.R[isa.EAX], m.Ctx.Flags
	}
	f := func(a, b uint32) bool {
		// add
		r, fl := run(isa.OpAdd, a, b)
		want := a + b
		if r != want || fl.ZF != (want == 0) || fl.SF != (int32(want) < 0) ||
			fl.CF != (want < a) ||
			fl.OF != ((a^want)&(b^want)&0x80000000 != 0) {
			return false
		}
		// sub
		r, fl = run(isa.OpSub, a, b)
		want = a - b
		if r != want || fl.ZF != (want == 0) || fl.SF != (int32(want) < 0) ||
			fl.CF != (a < b) ||
			fl.OF != ((a^b)&(a^want)&0x80000000 != 0) {
			return false
		}
		// xor / and / or clear CF and OF
		r, fl = run(isa.OpXor, a, b)
		if r != a^b || fl.CF || fl.OF || fl.ZF != (a^b == 0) {
			return false
		}
		r, fl = run(isa.OpAnd, a, b)
		if r != a&b || fl.CF || fl.OF {
			return false
		}
		r, _ = run(isa.OpMul, a, b)
		if r != a*b {
			return false
		}
		if b != 0 {
			r, _ = run(isa.OpDiv, a, b)
			if r != a/b {
				return false
			}
			r, _ = run(isa.OpMod, a, b)
			if r != a%b {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(123))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
