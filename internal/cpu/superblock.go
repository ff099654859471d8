package cpu

// The superblock engine is the machine's second-tier host fast path: once a
// straight-line region of guest code proves hot, its instructions are
// compiled into a superblock — an array of pre-bound Go closures — and later
// fetches of the region's entry point execute the whole array in a threaded
// dispatch loop instead of taking one trip through Step per instruction.
//
// Like the predecode cache (decode.go) the engine must be architecturally
// invisible: a superblock run retires the exact instruction stream, cycle
// counts, TLB hit/miss bookkeeping, trace-hook calls and trap deliveries the
// interpreter would. The rules that make that true:
//
//   - A block is entered in one of two ways. From Step, only after the full
//     Translate of EIP succeeded, so ITLB fills, walk costs and fetch faults
//     at the block boundary are the interpreter's own. Or chained, from the
//     end of the previous block (StepSlice only, see sbRun): only when the
//     next Step would do nothing but hit the ITLB and enter an already
//     compiled block. Chaining replays exactly that one ITLB hit and never
//     fills the ITLB, heats an entry point or compiles a block, so split-
//     memory detection (the ITLB-miss #PF) and every counter are unchanged.
//   - In-block fetches of the same page replay the ITLB hit bookkeeping.
//     Repeated hits on one entry leave every other entry's relative LRU
//     order unchanged, so they are batched (tlb.TouchSlotN) and flushed
//     before any handler, trace-hook call, change of page or exit; TLB state
//     stays bit-identical. Under chaos injection (which can evict any entry
//     at any instruction) in-block fetches fall back to the full Translate,
//     and blocks never chain.
//   - A block never contains a trapping instruction (int/int3/hlt), an
//     undefined encoding, or a frame-crossing instruction; those always go
//     through the interpreter. Branches terminate a block (side-exit).
//   - Any handler invocation — page fault, divide error, injected #DB —
//     ends the block after delivery, exactly where Step would have returned.
//     Compiled ops write no register, flag or EIP until their last data
//     access has succeeded, so a faulting op leaves the context untouched
//     for the restart without a saved copy.
//   - Coherence reuses the predecode cache's stamps: a block is valid only
//     while its frame's write generation (mem.Physical.Gen) and the decode
//     epoch (bumped on TLB flush/invlpg) both match compile time, and only
//     until its frame is dropped (DropDecodeFrame, at split-engine
//     re-restrictions). Restricted pages therefore never execute from a
//     stale block: re-restriction empties the frame's blocks and heat in
//     place before the guest can fetch again, so hotness is re-proven
//     without reallocating the frame's state. A chained successor is
//     looked up anew at every block end, behind the same stamp check: on
//     the same page in the frame's own entry table, on another page
//     through the ITLB, so an entry the split engine re-points to another
//     frame is followed to that frame.
//   - The kernel's between-instruction scheduling contract is preserved:
//     the block checks the published timeslice bound (SetSliceEnd) and
//     consumes the chaos forced-preemption draw (Machine.Preempt) between
//     in-block instructions, in the same order RunContext checks them
//     between Steps, handing the verdict back through TakePreemptDraw.
//     A block records its worst-case cycle charge; when it fits before the
//     bound and there is no chaos agent, preemption draw or trace hook,
//     none of those checks can fire, and the block runs without them.
//
// Compiled blocks are host state: Snapshot deliberately drops them (a
// restored machine re-proves hotness and recompiles), and the only Stats
// fields a superblock run may change relative to the interpreter are the
// host-side Superblock*/Decode* counters.

import (
	"splitmem/internal/isa"
	"splitmem/internal/mem"
)

const (
	// sbHotThreshold is the number of times a region entry point must be
	// fetched (with current stamps) before it is compiled.
	sbHotThreshold = 16
	// sbMaxOps caps the instructions compiled into one block.
	sbMaxOps = 64
	// sbNoCompile marks an entry point that failed compilation (its first
	// instruction traps, is undefined, or crosses the frame) so the engine
	// stops re-attempting it.
	sbNoCompile = 0xFFFF
	// sbCompiled tags an entry point that has a block; the low bits index
	// sbFrame.blocks.
	sbCompiled = 0x8000
)

// sbSig is a compiled op's report of how its instruction ended.
type sbSig uint8

const (
	// sbFall: retired; EIP advanced to the next op in the block.
	sbFall sbSig = iota
	// sbEnd: retired; EIP set to a (possibly off-block) branch target or the
	// block's fall-through — the block is complete.
	sbEnd
	// The signals below end the block through a handler; they sort last.

	// sbFault: a data access faulted. m.sbPF holds the fault; the dispatch
	// loop delivers it.
	sbFault
	// sbDivide: a divide by zero. EIP is still at the instruction; the
	// dispatch loop delivers the divide error.
	sbDivide
)

// sbOp is one compiled instruction: its decoding (for the trace hook and
// the interpreter bail-outs), page offset, and pre-bound executor.
type sbOp struct {
	in       isa.Instr
	off      uint32 // byte offset of the instruction within its page
	canFault bool   // performs data accesses that can raise #PF
	writes   bool   // can change physical memory (store/push/call)
	terminal bool   // control transfer: always the last op of its block
	exec     func(m *Machine, base uint32) sbSig
}

// superblock is a compiled straight-line region within one physical frame.
type superblock struct {
	ops []sbOp
	// maxCost bounds the cycles the ops can charge: Instr each, plus
	// MemAccess and four TLB walks (a page-crossing access translates each
	// byte) per data access. The cost model is fixed at New.
	maxCost uint64
}

// sbFrame holds the superblock state of one physical frame, guarded by the
// same two coherence stamps the predecode cache uses. state maps each entry
// point's byte offset to its heat (below sbHotThreshold), sbNoCompile, or
// sbCompiled plus the index of its block in blocks.
type sbFrame struct {
	blocks []*superblock
	wgen   uint64 // mem.Physical.Gen at stamp time
	egen   uint64 // Machine.decEpoch at stamp time
	state  pageTable
}

// empty discards the frame's heat and blocks in place. Hotness is
// deliberately re-proven after invalidation: rapidly self-modifying code
// then pays at most one compile per sbHotThreshold executions.
func (s *sbFrame) empty() {
	clear(s.blocks) // release the discarded closures to the GC
	s.blocks = s.blocks[:0]
	s.state.reset()
}

// reset empties the frame and restamps it.
func (s *sbFrame) reset(wgen, egen uint64) {
	s.empty()
	s.wgen, s.egen = wgen, egen
}

// current reports whether the frame's stamps still match frame f.
func (s *sbFrame) current(m *Machine, f uint32) bool {
	return s.wgen == m.Phys.Gen(f) && s.egen == m.decEpoch
}

// compiled returns the block compiled at entry offset off, or nil.
func (s *sbFrame) compiled(off uint32) *superblock {
	if st := s.state.get(off); st != sbNoCompile && st&sbCompiled != 0 {
		return s.blocks[st&^sbCompiled]
	}
	return nil
}

// sbExec is the superblock entry gate, called from stepRetire after the
// fetch Translate of EIP succeeded with physical address pa. It reports
// whether a block ran (entered=false sends the caller to the interpreter).
// chain lets the run continue into successor blocks (see sbRun).
func (m *Machine) sbExec(pa uint32, chain bool) (res StepResult, entered bool) {
	f := pa >> mem.PageShift
	if m.sb == nil {
		m.sb = make([]*sbFrame, m.Phys.NumFrames())
	}
	if int(f) >= len(m.sb) {
		return 0, false
	}
	sbf := m.sb[f]
	switch {
	case sbf == nil:
		sbf = &sbFrame{wgen: m.Phys.Gen(f), egen: m.decEpoch}
		m.sb[f] = sbf
	case !sbf.current(m, f):
		if len(sbf.blocks) > 0 {
			m.Stats.SuperblockInvalidations++
		}
		sbf.reset(m.Phys.Gen(f), m.decEpoch)
	}
	off := pa & mem.PageMask
	var blk *superblock
	switch st := sbf.state.get(off); {
	case st == sbNoCompile:
		return 0, false
	case st&sbCompiled != 0:
		blk = sbf.blocks[st&^sbCompiled]
	case st+1 < sbHotThreshold:
		sbf.state.set(off, st+1)
		return 0, false
	default:
		blk = m.sbCompile(f, off)
		if blk == nil {
			sbf.state.set(off, sbNoCompile)
			return 0, false
		}
		sbf.state.set(off, sbCompiled|uint16(len(sbf.blocks)))
		sbf.blocks = append(sbf.blocks, blk)
		m.Stats.SuperblockCompiled++
	}
	m.Stats.SuperblockEntered++
	return m.sbRun(blk, sbf, f, chain), true
}

// sbRun executes a compiled block. The caller has already performed the
// architectural fetch Translate (and, when chaos is installed, the PreStep
// hook) for the first instruction.
//
// With chain set (StepSlice: the scheduler's slice loop), a block that
// completes normally continues into its successor's block while the
// scheduler would do nothing but Step again: the cycle count is below the
// slice bound, no chaos agent or preemption draw is installed, and the
// successor's fetch is an ITLB hit that passes the fetch permission checks
// and lands on a current, already compiled entry point. Each continuation
// counts one SuperblockEntered and replays one ITLB hit, as that Step would.
func (m *Machine) sbRun(b *superblock, sbf *sbFrame, f uint32, chain bool) StepResult {
	m.sbDrawDone, m.sbDrawPreempt = false, false
	base := m.Ctx.EIP &^ uint32(mem.PageMask)
	chaotic := m.Chaos != nil
	slot := -1
	if !chaotic {
		if s, ok := m.ITLB.Slot(base >> mem.PageShift); ok {
			slot = s
		}
	}
	chain = chain && slot >= 0 && !chaotic && m.Preempt == nil
	hits := 0 // same-page fetch hits on slot not yet replayed
	for {
		// Decide which between-instruction checks this block needs: with
		// room for its worst-case charge before the slice bound and no
		// chaos, preemption draw or trace hook, none of them can fire.
		checked := slot < 0 || chaotic || m.Preempt != nil || m.TraceHook != nil ||
			m.Cycles+b.maxCost >= m.sliceEnd
		ops, last := b.ops, len(b.ops)-1
		for i := 0; ; i++ {
			op := &ops[i]
			if i > 0 {
				if slot >= 0 {
					hits++
				} else if chaotic {
					// Replicate Step's preamble for this instruction: the
					// chaos hook may evict TLB entries, flush (bumping the
					// epoch) or flip bits (bumping the write generation), so
					// the stamps are re-validated before trusting the
					// compiled ops.
					m.Chaos.PreStep(m)
					if !sbf.current(m, f) {
						m.Stats.SuperblockSideExits++
						return m.stepRetire(false) // PreStep already ran; decode fresh bytes
					}
					pa, pf := m.Translate(base|op.off, AccFetch)
					if pf != nil {
						m.Stats.SuperblockSideExits++
						return m.raisePF(pf)
					}
					if pa>>mem.PageShift != f {
						// The walk resolved to a different frame (a stale
						// TLB entry healed): the compiled bytes are not the
						// fetched bytes. Retire through the interpreter.
						m.Stats.SuperblockSideExits++
						return m.stepAt(pa, m.Ctx, false)
					}
				} else if _, pf := m.Translate(base|op.off, AccFetch); pf != nil {
					m.Stats.SuperblockSideExits++
					return m.raisePF(pf)
				}
			}

			// Retire, exactly as Step does: cost and count before execution
			// so a faulting attempt is charged and traced, then restarted.
			m.Cycles += m.Cost.Instr
			m.Stats.Instructions++
			if checked && m.TraceHook != nil {
				m.ITLB.TouchSlotN(slot, hits)
				hits = 0
				m.TraceHook(base|op.off, op.in)
			}
			sig := op.exec(m, base)
			if sig >= sbFault {
				m.ITLB.TouchSlotN(slot, hits)
				m.Stats.SuperblockSideExits++
				if sig == sbFault {
					pf := m.sbPF
					m.sbPF = nil
					return m.raisePF(pf)
				}
				if m.divideError() == ActStop {
					return StepStopped
				}
				// The divide restarts; a resumed trap still reaches the
				// post-retire trap point, as in the interpreter.
				if chaotic && m.Chaos.SpuriousDebugTrap() && m.raiseDB() == ActStop {
					return StepStopped
				}
				return StepOK
			}

			// Post-retire trap point. TF cannot be set mid-block (no block op
			// writes it; the handlers that do always end the block), so the
			// only source here is the injected spurious #DB.
			if chaotic && m.Chaos.SpuriousDebugTrap() {
				m.Stats.SuperblockSideExits++
				if m.raiseDB() == ActStop {
					return StepStopped
				}
				return StepOK
			}
			if sig == sbEnd || i == last {
				break // normal completion: terminal branch or the block's end
			}

			// Without chaos the only in-block writer is the guest itself:
			// re-validate the write generation after any op that stored, so
			// a self-modifying write can never let a stale op execute.
			if !chaotic && op.writes && sbf.wgen != m.Phys.Gen(f) {
				m.ITLB.TouchSlotN(slot, hits)
				m.Stats.SuperblockSideExits++
				return StepOK
			}

			// The kernel's between-Step sequence, replayed between in-block
			// instructions in the same order RunContext checks it: the
			// forced-preemption draw first, then the timeslice bound. Exits
			// that consumed the draw report it through TakePreemptDraw so
			// the kernel does not draw a second time for this instruction.
			if checked {
				m.ITLB.TouchSlotN(slot, hits)
				hits = 0
				if m.Preempt != nil {
					if m.Preempt() {
						m.sbDrawDone, m.sbDrawPreempt = true, true
						m.Stats.SuperblockSideExits++
						return StepOK
					}
					if m.Cycles >= m.sliceEnd {
						m.sbDrawDone = true
						m.Stats.SuperblockSideExits++
						return StepOK
					}
				} else if m.Cycles >= m.sliceEnd {
					m.Stats.SuperblockSideExits++
					return StepOK
				}
			}
		}

		// b completed normally. Chain into the block the next Step would
		// enter, or return to the scheduler.
		var next *superblock
		if chain && m.Cycles < m.sliceEnd {
			eip := m.Ctx.EIP
			if eip&^uint32(mem.PageMask) == base {
				// Same page: the same ITLB entry, so the same frame. Stale
				// stamps are left to the next Step, which restamps them.
				if sbf.current(m, f) {
					if next = sbf.compiled(eip & mem.PageMask); next != nil {
						hits++
					}
				}
			} else if nb, nsbf, nf, ns := m.sbProbe(eip); nb != nil {
				m.ITLB.TouchSlotN(slot, hits)
				next, sbf, f, slot, hits = nb, nsbf, nf, ns, 1
				base = eip &^ uint32(mem.PageMask)
			}
		}
		if next == nil {
			m.ITLB.TouchSlotN(slot, hits)
			return StepOK
		}
		m.Stats.SuperblockEntered++
		b = next
	}
}

// sbProbe finds the block a fetch of eip on another page would enter,
// resolving eip the way Translate's hit path does but touching no LRU state
// or statistics. It returns nil unless the fetch would hit the ITLB (slot),
// pass the fetch permission checks, and land on a current, already compiled
// entry point.
func (m *Machine) sbProbe(eip uint32) (*superblock, *sbFrame, uint32, int) {
	slot, ok := m.ITLB.Slot(eip >> mem.PageShift)
	if !ok {
		return nil, nil, 0, 0
	}
	e := m.ITLB.SlotEntry(slot)
	if !e.User || e.NoExec && m.NXEnabled {
		return nil, nil, 0, 0 // the fetch faults
	}
	f := e.Frame
	if int(f) >= len(m.sb) {
		return nil, nil, 0, 0
	}
	sbf := m.sb[f]
	if sbf == nil || !sbf.current(m, f) {
		return nil, nil, 0, 0
	}
	return sbf.compiled(eip & mem.PageMask), sbf, f, slot
}

// sbCompile decodes the straight-line region starting at byte offset off of
// frame f into a superblock. It reads the frame through the non-generating
// Byte port, stops before anything the engine must leave to the interpreter
// (traps, undefined encodings, frame-crossing instructions), and includes a
// terminating branch as the block's last op. Returns nil when even the first
// instruction is uncompilable.
func (m *Machine) sbCompile(f, off uint32) *superblock {
	pageBase := f << mem.PageShift
	var ops []sbOp
	for len(ops) < sbMaxOps {
		first := m.Phys.Byte(pageBase | off)
		n, ok := isa.EncLen(first)
		if !ok {
			break // undefined: the interpreter owns #UD delivery
		}
		if off+uint32(n) > mem.PageSize {
			break // frame-crossing instructions are never compiled
		}
		var buf [isa.MaxInstrLen]byte
		for j := uint32(0); j < uint32(n); j++ {
			buf[j] = m.Phys.Byte(pageBase | (off + j))
		}
		in, err := isa.Decode(buf[:n])
		if err != nil {
			break
		}
		op, ok := sbCompileOp(in, off)
		if !ok {
			break // trapping instruction: interpreter territory
		}
		ops = append(ops, op)
		if op.terminal {
			break
		}
		off += uint32(n)
		if off >= mem.PageSize {
			break
		}
	}
	if len(ops) == 0 {
		return nil
	}
	b := &superblock{ops: ops}
	for i := range ops {
		b.maxCost += m.Cost.Instr
		if ops[i].canFault {
			b.maxCost += m.Cost.MemAccess + 4*m.Cost.TLBWalk
		}
	}
	return b
}

// sbCompileOp pre-binds one decoded instruction into a closure. The closure
// contract: perform exactly the interpreter's execute() semantics (flags
// via the shared helpers, data accesses via the shared read/write ports so
// DTLB traffic and cycle charges match), set EIP on completion, and report
// the outcome. ok=false marks instructions that must never enter a block.
func sbCompileOp(in isa.Instr, off uint32) (op sbOp, ok bool) {
	op = sbOp{in: in, off: off}
	next := off + uint32(in.Size) // fall-through offset within the page
	r1, r2, imm := in.R1, in.R2, in.Imm

	switch in.Op {
	case isa.OpNop:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpMovImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = imm
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpMov:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.Ctx.R[r2]
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpLea:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.Ctx.R[r2] + imm
			m.Ctx.EIP = base + next
			return sbFall
		}

	case isa.OpAdd:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.addFlags(m.Ctx.R[r1], m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpAddImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.addFlags(m.Ctx.R[r1], imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpSub:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.subFlags(m.Ctx.R[r1], m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpSubImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.subFlags(m.Ctx.R[r1], imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpCmp:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.subFlags(m.Ctx.R[r1], m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpCmpImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.subFlags(m.Ctx.R[r1], imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpAnd:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] & m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpAndImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] & imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpOr:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] | m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpOrImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] | imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpXor:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] ^ m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpXorImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] ^ imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpMul:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] * m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpMulImm:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] * imm)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpDiv:
		op.exec = func(m *Machine, base uint32) sbSig {
			if m.Ctx.R[r2] == 0 {
				return sbDivide
			}
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] / m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpMod:
		op.exec = func(m *Machine, base uint32) sbSig {
			if m.Ctx.R[r2] == 0 {
				return sbDivide
			}
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] % m.Ctx.R[r2])
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpShl:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] << (imm & 31))
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpShr:
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.R[r1] = m.logicFlags(m.Ctx.R[r1] >> (imm & 31))
			m.Ctx.EIP = base + next
			return sbFall
		}

	case isa.OpLoad:
		op.canFault = true
		op.exec = func(m *Machine, base uint32) sbSig {
			v, pf := m.readU32(m.Ctx.R[r2] + imm)
			if pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.R[r1] = v
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpLoadB:
		op.canFault = true
		op.exec = func(m *Machine, base uint32) sbSig {
			v, pf := m.readU8(m.Ctx.R[r2] + imm)
			if pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.R[r1] = uint32(v)
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpStore:
		op.canFault, op.writes = true, true
		op.exec = func(m *Machine, base uint32) sbSig {
			if pf := m.writeU32(m.Ctx.R[r1]+imm, m.Ctx.R[r2]); pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpStoreB:
		op.canFault, op.writes = true, true
		op.exec = func(m *Machine, base uint32) sbSig {
			if pf := m.writeU8(m.Ctx.R[r1]+imm, byte(m.Ctx.R[r2])); pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.EIP = base + next
			return sbFall
		}

	case isa.OpPush:
		op.canFault, op.writes = true, true
		op.exec = func(m *Machine, base uint32) sbSig {
			if pf := m.push(m.Ctx.R[r1]); pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.EIP = base + next
			return sbFall
		}
	case isa.OpPop:
		op.canFault = true
		op.exec = func(m *Machine, base uint32) sbSig {
			v, pf := m.pop()
			if pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.R[r1] = v
			m.Ctx.EIP = base + next
			return sbFall
		}

	case isa.OpJmp:
		op.terminal = true
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.EIP = base + next + imm
			return sbEnd
		}
	case isa.OpJmpReg:
		op.terminal = true
		op.exec = func(m *Machine, base uint32) sbSig {
			m.Ctx.EIP = m.Ctx.R[r1]
			return sbEnd
		}
	case isa.OpCall:
		op.canFault, op.writes, op.terminal = true, true, true
		op.exec = func(m *Machine, base uint32) sbSig {
			if pf := m.push(base + next); pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.EIP = base + next + imm
			return sbEnd
		}
	case isa.OpCallReg:
		op.canFault, op.writes, op.terminal = true, true, true
		op.exec = func(m *Machine, base uint32) sbSig {
			if pf := m.push(base + next); pf != nil {
				m.sbPF = pf
				return sbFault
			}
			// Read the target after the push, as the interpreter does: a
			// call through ESP must observe the decremented stack pointer.
			m.Ctx.EIP = m.Ctx.R[r1]
			return sbEnd
		}
	case isa.OpRet:
		op.canFault, op.terminal = true, true
		op.exec = func(m *Machine, base uint32) sbSig {
			v, pf := m.pop()
			if pf != nil {
				m.sbPF = pf
				return sbFault
			}
			m.Ctx.EIP = v
			return sbEnd
		}

	case isa.OpJz:
		return sbCond(op, next, imm, func(f *Flags) bool { return f.ZF })
	case isa.OpJnz:
		return sbCond(op, next, imm, func(f *Flags) bool { return !f.ZF })
	case isa.OpJl:
		return sbCond(op, next, imm, func(f *Flags) bool { return f.SF != f.OF })
	case isa.OpJge:
		return sbCond(op, next, imm, func(f *Flags) bool { return f.SF == f.OF })
	case isa.OpJg:
		return sbCond(op, next, imm, func(f *Flags) bool { return !f.ZF && f.SF == f.OF })
	case isa.OpJle:
		return sbCond(op, next, imm, func(f *Flags) bool { return f.ZF || f.SF != f.OF })
	case isa.OpJb:
		return sbCond(op, next, imm, func(f *Flags) bool { return f.CF })
	case isa.OpJae:
		return sbCond(op, next, imm, func(f *Flags) bool { return !f.CF })
	case isa.OpJa:
		return sbCond(op, next, imm, func(f *Flags) bool { return !f.CF && !f.ZF })
	case isa.OpJbe:
		return sbCond(op, next, imm, func(f *Flags) bool { return f.CF || f.ZF })

	default:
		// int/int3/hlt and anything unmodeled: interpreter only.
		return op, false
	}
	return op, true
}

// sbCond finishes a conditional-branch op.
func sbCond(op sbOp, next, imm uint32, take func(f *Flags) bool) (sbOp, bool) {
	op.terminal = true
	op.exec = func(m *Machine, base uint32) sbSig {
		t := base + next
		if take(&m.Ctx.Flags) {
			t += imm
		}
		m.Ctx.EIP = t
		return sbEnd
	}
	return op, true
}
