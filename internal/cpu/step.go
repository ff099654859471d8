package cpu

import (
	"splitmem/internal/isa"
	"splitmem/internal/mem"
)

// StepResult reports what a single instruction step did.
type StepResult int

// Step outcomes.
const (
	// StepOK means the instruction completed, or faulted and the handler
	// asked for a restart; the process remains runnable.
	StepOK StepResult = iota + 1
	// StepStopped means a trap handler returned ActStop: the process
	// exited, was killed, blocked, or was preempted by the kernel.
	StepStopped
)

// Step executes (or attempts) one instruction of the current context — or,
// when the fetch lands on a hot compiled superblock, a straight-line run of
// instructions with identical architectural effects (see superblock.go).
//
// Faulting instructions have no architectural side effects: the register
// file is restored to its pre-instruction state before the fault handler
// runs, so ActResume restarts the instruction cleanly — matching the
// restartable-instruction guarantee real x86 provides.
func (m *Machine) Step() StepResult {
	if m.Chaos != nil {
		m.Chaos.PreStep(m)
	}
	return m.stepRetire(false)
}

// StepSlice is Step for the scheduler's timeslice loop, which calls it while
// Cycles is below the bound it published through SetSliceEnd. A compiled
// block that completes normally may continue directly into its successor's
// block (see sbRun) for as long as the loop would do nothing between Steps
// but check that bound: each continuation has exactly the effects of the
// Step it replaces. Step itself runs at most one block.
func (m *Machine) StepSlice() StepResult {
	if m.Chaos != nil {
		m.Chaos.PreStep(m)
	}
	return m.stepRetire(true)
}

// stepRetire is Step without the chaos pre-step hook (which must run exactly
// once per retired instruction: the superblock engine re-invokes this after
// running the hook itself on an in-block stale bail-out). chain is set for
// StepSlice.
func (m *Machine) stepRetire(chain bool) StepResult {
	saved := m.Ctx
	pa, pf := m.Translate(m.Ctx.EIP, AccFetch)
	if pf != nil {
		return m.raisePF(pf)
	}
	if m.sbOn && !m.Ctx.Flags.TF {
		if res, entered := m.sbExec(pa, chain); entered {
			return res
		}
	}
	return m.stepAt(pa, saved, m.Ctx.Flags.TF)
}

// stepAt interprets the single instruction whose first byte lives at
// physical address pa (the already-performed fetch translation of EIP).
func (m *Machine) stepAt(pa uint32, saved Context, tfAtStart bool) StepResult {
	in, pf, undef := m.fetchAt(pa)
	if pf != nil {
		m.Ctx = saved
		return m.raisePF(pf)
	}
	if undef {
		m.Ctx = saved
		m.Cycles += m.Cost.Trap
		m.Stats.Undefined++
		if m.handler.Undefined() == ActStop {
			return StepStopped
		}
		return StepOK
	}

	m.Cycles += m.Cost.Instr
	m.Stats.Instructions++
	if m.TraceHook != nil {
		m.TraceHook(m.Ctx.EIP, in)
	}

	act, pf := m.execute(in)
	if pf != nil {
		m.Ctx = saved
		return m.raisePF(pf)
	}
	if act == ActStop {
		return StepStopped
	}
	if tfAtStart {
		// Single-step trap fires after the instruction completes.
		if m.raiseDB() == ActStop {
			return StepStopped
		}
	} else if m.Chaos != nil && m.Chaos.SpuriousDebugTrap() {
		// Injected fault: a #DB the split engine never asked for. The
		// kernel must tolerate debug interrupts with no load in flight.
		if m.raiseDB() == ActStop {
			return StepStopped
		}
	}
	return StepOK
}

// raiseDB delivers a debug trap to the handler, charging the trap cost
// and recording the handler latency when telemetry is enabled.
func (m *Machine) raiseDB() Action {
	m.Cycles += m.Cost.DebugTrap
	m.Stats.DebugTraps++
	if m.Tel == nil {
		return m.handler.DebugTrap()
	}
	start := m.Cycles
	act := m.handler.DebugTrap()
	m.Tel.DBHandlerCycles.Observe(m.Cycles - start)
	return act
}

func (m *Machine) raisePF(pf *PageFault) StepResult {
	if m.deliverPF(pf) == ActStop {
		return StepStopped
	}
	if m.Chaos != nil && m.Chaos.DoubleFault() {
		// Injected fault: the same #PF is delivered a second time after the
		// handler already resolved it. Handlers must be idempotent (the
		// benign-refault path in the kernel absorbs the re-delivery).
		if m.deliverPF(pf) == ActStop {
			return StepStopped
		}
	}
	return StepOK
}

// deliverPF dispatches one page fault to the handler, charging the trap
// cost and recording the handler latency when telemetry is enabled.
func (m *Machine) deliverPF(pf *PageFault) Action {
	m.CR2 = pf.Addr
	m.Cycles += m.Cost.Trap
	m.Stats.PageFaults++
	if m.Tel == nil {
		return m.handler.PageFault(pf.Addr, pf.Code)
	}
	start := m.Cycles
	act := m.handler.PageFault(pf.Addr, pf.Code)
	m.Tel.PFHandlerCycles.Observe(m.Cycles - start)
	return act
}

// fetchAt reads and decodes the instruction at EIP, whose first byte the
// caller already translated to physical address pa. undef is true when the
// bytes do not form a defined instruction (#UD).
//
// The entry translation always runs in the caller — ITLB fills, walk costs,
// and fetch faults are architectural — but the byte reads and decode are
// skipped when the predecode cache holds a current entry for the physical
// address (see decode.go for the coherence rules).
func (m *Machine) fetchAt(pa uint32) (isa.Instr, *PageFault, bool) {
	var buf [isa.MaxInstrLen]byte
	var pf *PageFault
	if m.decOn {
		if in, ok := m.decodeLookup(pa); ok {
			m.Stats.DecodeHits++
			return in, nil, false
		}
	}
	pa0 := pa
	buf[0] = m.Phys.Byte(pa)
	n, ok := isa.EncLen(buf[0])
	if !ok {
		return isa.Instr{}, nil, true
	}
	for i := 1; i < n; i++ {
		a := m.Ctx.EIP + uint32(i)
		if a&mem.PageMask == 0 {
			// The instruction crosses into the next page.
			pa, pf = m.Translate(a, AccFetch)
			if pf != nil {
				return isa.Instr{}, pf, false
			}
		} else {
			pa++
		}
		buf[i] = m.Phys.Byte(pa)
	}
	in, err := isa.Decode(buf[:n])
	if err != nil {
		return isa.Instr{}, nil, true
	}
	if m.decOn {
		m.Stats.DecodeMisses++
		m.decodeFill(pa0, in)
	}
	return in, nil, false
}

// execute runs one decoded instruction. It returns a page fault if a data
// access faulted (with no side effects applied thanks to Step's snapshot),
// or the handler's action for trapping instructions.
func (m *Machine) execute(in isa.Instr) (Action, *PageFault) {
	c := &m.Ctx
	next := c.EIP + uint32(in.Size)

	switch in.Op {
	case isa.OpNop:
		// nothing
	case isa.OpMovImm:
		c.R[in.R1] = in.Imm
	case isa.OpMov:
		c.R[in.R1] = c.R[in.R2]
	case isa.OpLea:
		c.R[in.R1] = c.R[in.R2] + in.Imm

	case isa.OpAdd, isa.OpAddImm:
		c.R[in.R1] = m.addFlags(c.R[in.R1], m.src2(in))
	case isa.OpSub, isa.OpSubImm:
		c.R[in.R1] = m.subFlags(c.R[in.R1], m.src2(in))
	case isa.OpCmp, isa.OpCmpImm:
		m.subFlags(c.R[in.R1], m.src2(in))
	case isa.OpAnd, isa.OpAndImm:
		c.R[in.R1] = m.logicFlags(c.R[in.R1] & m.src2(in))
	case isa.OpOr, isa.OpOrImm:
		c.R[in.R1] = m.logicFlags(c.R[in.R1] | m.src2(in))
	case isa.OpXor, isa.OpXorImm:
		c.R[in.R1] = m.logicFlags(c.R[in.R1] ^ m.src2(in))
	case isa.OpMul, isa.OpMulImm:
		c.R[in.R1] = m.logicFlags(c.R[in.R1] * m.src2(in))
	case isa.OpDiv:
		if c.R[in.R2] == 0 {
			return m.divideError(), nil
		}
		c.R[in.R1] = m.logicFlags(c.R[in.R1] / c.R[in.R2])
	case isa.OpMod:
		if c.R[in.R2] == 0 {
			return m.divideError(), nil
		}
		c.R[in.R1] = m.logicFlags(c.R[in.R1] % c.R[in.R2])
	case isa.OpShl:
		c.R[in.R1] = m.logicFlags(c.R[in.R1] << (in.Imm & 31))
	case isa.OpShr:
		c.R[in.R1] = m.logicFlags(c.R[in.R1] >> (in.Imm & 31))

	case isa.OpLoad:
		v, pf := m.readU32(c.R[in.R2] + in.Imm)
		if pf != nil {
			return 0, pf
		}
		c.R[in.R1] = v
	case isa.OpLoadB:
		v, pf := m.readU8(c.R[in.R2] + in.Imm)
		if pf != nil {
			return 0, pf
		}
		c.R[in.R1] = uint32(v)
	case isa.OpStore:
		if pf := m.writeU32(c.R[in.R1]+in.Imm, c.R[in.R2]); pf != nil {
			return 0, pf
		}
	case isa.OpStoreB:
		if pf := m.writeU8(c.R[in.R1]+in.Imm, byte(c.R[in.R2])); pf != nil {
			return 0, pf
		}

	case isa.OpPush:
		if pf := m.push(c.R[in.R1]); pf != nil {
			return 0, pf
		}
	case isa.OpPop:
		v, pf := m.pop()
		if pf != nil {
			return 0, pf
		}
		c.R[in.R1] = v

	case isa.OpJmp:
		next += in.Imm
	case isa.OpJmpReg:
		next = c.R[in.R1]
	case isa.OpCall:
		if pf := m.push(next); pf != nil {
			return 0, pf
		}
		next += in.Imm
	case isa.OpCallReg:
		if pf := m.push(next); pf != nil {
			return 0, pf
		}
		next = c.R[in.R1]
	case isa.OpRet:
		v, pf := m.pop()
		if pf != nil {
			return 0, pf
		}
		next = v

	case isa.OpJz:
		next = m.cond(c.Flags.ZF, next, in)
	case isa.OpJnz:
		next = m.cond(!c.Flags.ZF, next, in)
	case isa.OpJl:
		next = m.cond(c.Flags.SF != c.Flags.OF, next, in)
	case isa.OpJge:
		next = m.cond(c.Flags.SF == c.Flags.OF, next, in)
	case isa.OpJg:
		next = m.cond(!c.Flags.ZF && c.Flags.SF == c.Flags.OF, next, in)
	case isa.OpJle:
		next = m.cond(c.Flags.ZF || c.Flags.SF != c.Flags.OF, next, in)
	case isa.OpJb:
		next = m.cond(c.Flags.CF, next, in)
	case isa.OpJae:
		next = m.cond(!c.Flags.CF, next, in)
	case isa.OpJa:
		next = m.cond(!c.Flags.CF && !c.Flags.ZF, next, in)
	case isa.OpJbe:
		next = m.cond(c.Flags.CF || c.Flags.ZF, next, in)

	case isa.OpInt:
		c.EIP = next
		m.Cycles += m.Cost.Syscall
		m.Stats.Interrupts++
		return m.handler.Interrupt(byte(in.Imm)), nil
	case isa.OpInt3:
		c.EIP = next
		m.Cycles += m.Cost.Trap
		return m.handler.Breakpoint(), nil
	case isa.OpHlt:
		// Privileged in user mode.
		m.Cycles += m.Cost.Trap
		return m.handler.GeneralProtection(), nil

	default:
		m.Cycles += m.Cost.Trap
		m.Stats.Undefined++
		return m.handler.Undefined(), nil
	}

	c.EIP = next
	return ActResume, nil
}

func (m *Machine) divideError() Action {
	m.Cycles += m.Cost.Trap
	return m.handler.DivideError()
}

func (m *Machine) src2(in isa.Instr) uint32 {
	switch in.Op {
	case isa.OpAddImm, isa.OpSubImm, isa.OpCmpImm, isa.OpAndImm,
		isa.OpOrImm, isa.OpXorImm, isa.OpMulImm:
		return in.Imm
	}
	return m.Ctx.R[in.R2]
}

func (m *Machine) cond(take bool, next uint32, in isa.Instr) uint32 {
	if take {
		return next + in.Imm
	}
	return next
}

func (m *Machine) addFlags(a, b uint32) uint32 {
	r := a + b
	f := &m.Ctx.Flags
	f.ZF = r == 0
	f.SF = int32(r) < 0
	f.CF = r < a
	f.OF = (a^r)&(b^r)&0x80000000 != 0
	return r
}

func (m *Machine) subFlags(a, b uint32) uint32 {
	r := a - b
	f := &m.Ctx.Flags
	f.ZF = r == 0
	f.SF = int32(r) < 0
	f.CF = a < b
	f.OF = (a^b)&(a^r)&0x80000000 != 0
	return r
}

func (m *Machine) logicFlags(r uint32) uint32 {
	f := &m.Ctx.Flags
	f.ZF = r == 0
	f.SF = int32(r) < 0
	f.CF = false
	f.OF = false
	return r
}

func (m *Machine) push(v uint32) *PageFault {
	sp := m.Ctx.R[isa.ESP] - 4
	if pf := m.writeU32(sp, v); pf != nil {
		return pf
	}
	m.Ctx.R[isa.ESP] = sp
	return nil
}

func (m *Machine) pop() (uint32, *PageFault) {
	v, pf := m.readU32(m.Ctx.R[isa.ESP])
	if pf != nil {
		return 0, pf
	}
	m.Ctx.R[isa.ESP] += 4
	return v, nil
}

func (m *Machine) readU8(addr uint32) (byte, *PageFault) {
	m.Cycles += m.Cost.MemAccess
	m.Stats.DataAccesses++
	pa, pf := m.Translate(addr, AccRead)
	if pf != nil {
		return 0, pf
	}
	return m.Phys.Byte(pa), nil
}

func (m *Machine) writeU8(addr uint32, v byte) *PageFault {
	m.Cycles += m.Cost.MemAccess
	m.Stats.DataAccesses++
	pa, pf := m.Translate(addr, AccWrite)
	if pf != nil {
		return pf
	}
	m.Phys.SetByte(pa, v)
	return nil
}

func (m *Machine) readU32(addr uint32) (uint32, *PageFault) {
	m.Cycles += m.Cost.MemAccess
	m.Stats.DataAccesses++
	if addr&mem.PageMask <= mem.PageSize-4 {
		pa, pf := m.Translate(addr, AccRead)
		if pf != nil {
			return 0, pf
		}
		return m.Phys.Read32(pa), nil
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		pa, pf := m.Translate(addr+i, AccRead)
		if pf != nil {
			return 0, pf
		}
		v |= uint32(m.Phys.Byte(pa)) << (8 * i)
	}
	return v, nil
}

func (m *Machine) writeU32(addr uint32, v uint32) *PageFault {
	m.Cycles += m.Cost.MemAccess
	m.Stats.DataAccesses++
	if addr&mem.PageMask <= mem.PageSize-4 {
		pa, pf := m.Translate(addr, AccWrite)
		if pf != nil {
			return pf
		}
		m.Phys.Write32(pa, v)
		return nil
	}
	// Page-crossing store: translate both pages before writing anything so
	// a fault leaves memory untouched.
	var pas [4]uint32
	for i := uint32(0); i < 4; i++ {
		pa, pf := m.Translate(addr+i, AccWrite)
		if pf != nil {
			return pf
		}
		pas[i] = pa
	}
	for i := uint32(0); i < 4; i++ {
		m.Phys.SetByte(pas[i], byte(v>>(8*i)))
	}
	return nil
}
