package asm

import (
	"fmt"
	"slices"
	"strings"

	"splitmem/internal/isa"
	"splitmem/internal/loader"
)

// instrShape describes how a mnemonic maps onto opcodes for each operand
// combination.
type instrShape struct {
	rr  isa.Op // reg, reg
	ri  isa.Op // reg, imm32
	ri8 isa.Op // reg, imm8
	rm  isa.Op // reg, [mem]
	mr  isa.Op // [mem], reg
	rel isa.Op // rel32 branch
	r   isa.Op // single register
	i8  isa.Op // single imm8
	n   isa.Op // no operands
}

var shapes = map[string]instrShape{
	"mov":    {rr: isa.OpMov, ri: isa.OpMovImm},
	"add":    {rr: isa.OpAdd, ri: isa.OpAddImm},
	"sub":    {rr: isa.OpSub, ri: isa.OpSubImm},
	"and":    {rr: isa.OpAnd, ri: isa.OpAndImm},
	"or":     {rr: isa.OpOr, ri: isa.OpOrImm},
	"xor":    {rr: isa.OpXor, ri: isa.OpXorImm},
	"cmp":    {rr: isa.OpCmp, ri: isa.OpCmpImm},
	"mul":    {rr: isa.OpMul, ri: isa.OpMulImm},
	"div":    {rr: isa.OpDiv},
	"mod":    {rr: isa.OpMod},
	"shl":    {ri8: isa.OpShl},
	"shr":    {ri8: isa.OpShr},
	"load":   {rm: isa.OpLoad},
	"loadb":  {rm: isa.OpLoadB},
	"lea":    {rm: isa.OpLea},
	"store":  {mr: isa.OpStore},
	"storeb": {mr: isa.OpStoreB},
	"push":   {r: isa.OpPush},
	"pop":    {r: isa.OpPop},
	"jmp":    {rel: isa.OpJmp, r: isa.OpJmpReg},
	"call":   {rel: isa.OpCall, r: isa.OpCallReg},
	"jz":     {rel: isa.OpJz},
	"je":     {rel: isa.OpJz},
	"jnz":    {rel: isa.OpJnz},
	"jne":    {rel: isa.OpJnz},
	"jl":     {rel: isa.OpJl},
	"jge":    {rel: isa.OpJge},
	"jg":     {rel: isa.OpJg},
	"jle":    {rel: isa.OpJle},
	"jb":     {rel: isa.OpJb},
	"jae":    {rel: isa.OpJae},
	"ja":     {rel: isa.OpJa},
	"jbe":    {rel: isa.OpJbe},
	"int":    {i8: isa.OpInt},
	"ret":    {n: isa.OpRet},
	"nop":    {n: isa.OpNop},
	"hlt":    {n: isa.OpHlt},
	"int3":   {n: isa.OpInt3},
	"ud":     {n: isa.OpUndef},
}

// selected is the opcode and operand layout chosen for an instruction.
// Registers are filled in at layout; the immediate, displacement or branch
// target expression is resolved at emit.
type selected struct {
	expr    span   // immediate / displacement / branch target / int vector
	imm     uint32 // the immediate when expr is empty (inc/dec: 1)
	op      isa.Op
	r1, r2  byte
	negDisp bool
	isRel   bool // expr is a branch target (pc-relative encoding)
}

func (a *assembler) selectInstr(s *stmt) (selected, error) {
	name := strings.ToLower(a.str(s.name))
	args := a.argsOf(s)
	// Pseudo-instructions.
	switch name {
	case "inc", "dec":
		if len(args) != 1 || args[0].kind != opReg {
			return selected{}, fmt.Errorf("%s takes one register", name)
		}
		op := isa.OpAddImm
		if name == "dec" {
			op = isa.OpSubImm
		}
		return selected{op: op, r1: args[0].reg, imm: 1}, nil
	}
	sh, ok := shapes[name]
	if !ok {
		return selected{}, fmt.Errorf("unknown mnemonic %q", name)
	}
	switch len(args) {
	case 0:
		if sh.n == 0 {
			return selected{}, fmt.Errorf("%s requires operands", name)
		}
		return selected{op: sh.n}, nil
	case 1:
		a := args[0]
		switch {
		case a.kind == opReg && sh.r != 0:
			return selected{op: sh.r, r1: a.reg}, nil
		case a.kind == opExpr && sh.rel != 0:
			return selected{op: sh.rel, expr: a.expr, isRel: true}, nil
		case a.kind == opExpr && sh.i8 != 0:
			return selected{op: sh.i8, expr: a.expr}, nil
		}
	case 2:
		a, b := args[0], args[1]
		switch {
		case a.kind == opReg && b.kind == opReg && sh.rr != 0:
			return selected{op: sh.rr, r1: a.reg, r2: b.reg}, nil
		case a.kind == opReg && b.kind == opExpr && sh.ri != 0:
			return selected{op: sh.ri, r1: a.reg, expr: b.expr}, nil
		case a.kind == opReg && b.kind == opExpr && sh.ri8 != 0:
			return selected{op: sh.ri8, r1: a.reg, expr: b.expr}, nil
		case a.kind == opReg && b.kind == opMem && sh.rm != 0:
			return selected{op: sh.rm, r1: a.reg, r2: b.reg, expr: b.expr, negDisp: b.neg}, nil
		case a.kind == opMem && b.kind == opReg && sh.mr != 0:
			return selected{op: sh.mr, r1: a.reg, r2: b.reg, expr: a.expr, negDisp: a.neg}, nil
		}
	}
	texts := make([]string, len(args))
	for i := range args {
		texts[i] = a.str(args[i].text)
	}
	return selected{}, fmt.Errorf("invalid operands for %s: %s", name, strings.Join(texts, ", "))
}

func instrSize(sel selected) uint32 {
	return uint32(isa.Len(isa.Instr{Op: sel.op}))
}

// ---- pass 1: layout ----

func (a *assembler) layout() error {
	a.symbols = make(map[string]uint32, a.nsyms)
	for i := range a.stmts {
		s := &a.stmts[i]
		switch s.kind {
		case stLabel:
			if a.cur < 0 {
				a.startDefaultText()
			}
			name := a.str(s.name)
			if _, dup := a.symbols[name]; dup {
				return a.errf(s.line, "duplicate symbol %q", name)
			}
			sec := &a.sections[a.cur]
			a.symbols[name] = sec.addr + sec.pc
			s.section, s.addr = uint32(a.cur), sec.addr+sec.pc
		case stDirective:
			if err := a.layoutDirective(s); err != nil {
				return err
			}
		case stInstr:
			if a.cur < 0 {
				a.startDefaultText()
			}
			sel, err := a.selectInstr(s)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			sec := &a.sections[a.cur]
			s.sel = sel
			s.section, s.addr = uint32(a.cur), sec.addr+sec.pc
			s.size = instrSize(sel)
			sec.pc += s.size
		}
	}
	return nil
}

func (a *assembler) startDefaultText() {
	a.cur = a.findOrAddSection(".text", DefaultTextAddr, loader.PermR|loader.PermX)
}

func (a *assembler) findOrAddSection(name string, addr uint32, perm byte) int {
	for i := range a.sections {
		if a.sections[i].name == name {
			return i
		}
	}
	a.sections = append(a.sections, section{name: name, addr: addr, perm: perm})
	return len(a.sections) - 1
}

func (a *assembler) layoutDirective(s *stmt) error {
	name := a.str(s.name)
	switch name {
	case ".text", ".data":
		addr, perm := uint32(DefaultTextAddr), byte(loader.PermR|loader.PermX)
		if name == ".data" {
			addr, perm = DefaultDataAddr, loader.PermR|loader.PermW
		}
		if s.nargs >= 1 && a.argText(s, 0) != "" {
			v, err := evalExpr(a.argText(s, 0), a.symbols)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			addr = v
		}
		idx := a.findOrAddSection(name, addr, perm)
		if s.nargs >= 1 && a.argText(s, 0) != "" && a.sections[idx].pc == 0 {
			a.sections[idx].addr = addr
		}
		a.cur = idx
	case ".section":
		if s.nargs < 1 {
			return a.errf(s.line, ".section requires a name")
		}
		fields := strings.Fields(a.argText(s, 0))
		if len(fields) == 0 {
			return a.errf(s.line, ".section requires a name")
		}
		name := fields[0]
		exists := false
		for i := range a.sections {
			if a.sections[i].name == name {
				a.cur = i
				exists = true
				break
			}
		}
		if exists {
			break
		}
		if len(fields) < 3 {
			return a.errf(s.line, ".section %s requires addr and perms on first use", name)
		}
		addr, err := evalExpr(fields[1], a.symbols)
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		perm, err := parsePerm(fields[2])
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		a.cur = a.findOrAddSection(name, addr, perm)
	case ".entry":
		if s.nargs != 1 {
			return a.errf(s.line, ".entry requires one symbol")
		}
		a.entryStr = a.argText(s, 0)
	case ".equ":
		if s.nargs != 2 {
			return a.errf(s.line, ".equ requires NAME, expr")
		}
		name := a.argText(s, 0)
		if _, dup := a.symbols[name]; dup {
			return a.errf(s.line, "duplicate symbol %q", name)
		}
		v, err := evalExpr(a.argText(s, 1), a.symbols)
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		a.symbols[name] = v
	case ".word", ".byte", ".ascii", ".asciz", ".space", ".align":
		if a.cur < 0 {
			return a.errf(s.line, "%s outside any section", name)
		}
		sec := &a.sections[a.cur]
		s.section, s.addr = uint32(a.cur), sec.addr+sec.pc
		size, err := a.dataSize(s, name, sec.pc)
		if err != nil {
			return err
		}
		s.size = size
		sec.pc += size
	default:
		return a.errf(s.line, "unknown directive %s", name)
	}
	return nil
}

func (a *assembler) dataSize(s *stmt, name string, pc uint32) (uint32, error) {
	switch name {
	case ".word":
		return 4 * s.nargs, nil
	case ".byte":
		return s.nargs, nil
	case ".ascii", ".asciz":
		str, err := appendString(a.scratch[:0], a.str(s.raw))
		if err != nil {
			return 0, a.errf(s.line, "%v", err)
		}
		a.scratch = str
		n := uint32(len(str))
		if name == ".asciz" {
			n++
		}
		return n, nil
	case ".space":
		if s.nargs < 1 {
			return 0, a.errf(s.line, ".space requires a size")
		}
		n, err := evalExpr(a.argText(s, 0), a.symbols)
		if err != nil {
			return 0, a.errf(s.line, ".space size: %v (must be resolvable at layout time)", err)
		}
		return n, nil
	case ".align":
		if s.nargs != 1 {
			return 0, a.errf(s.line, ".align requires a boundary")
		}
		n, err := evalExpr(a.argText(s, 0), a.symbols)
		if err != nil || n == 0 || n&(n-1) != 0 {
			return 0, a.errf(s.line, ".align requires a power-of-two boundary")
		}
		return (n - pc%n) % n, nil
	}
	return 0, a.errf(s.line, "unhandled data directive %s", name)
}

func parsePerm(s string) (byte, error) {
	var p byte
	for _, c := range s {
		switch c {
		case 'r':
			p |= loader.PermR
		case 'w':
			p |= loader.PermW
		case 'x':
			p |= loader.PermX
		case '-':
		default:
			return 0, fmt.Errorf("bad permission string %q", s)
		}
	}
	return p, nil
}

// ---- pass 2: emit ----

// emit encodes every statement into buffers sized by layout, so the
// appends never grow them.
func (a *assembler) emit() (*loader.Program, error) {
	for i := range a.sections {
		a.sections[i].buf = make([]byte, 0, a.sections[i].pc)
	}
	for i := range a.stmts {
		s := &a.stmts[i]
		switch s.kind {
		case stInstr:
			if err := a.emitInstr(s); err != nil {
				return nil, err
			}
		case stDirective:
			if err := a.emitData(s); err != nil {
				return nil, err
			}
		}
	}
	p := &loader.Program{Symbols: a.symbols}
	for i := range a.sections {
		sec := &a.sections[i]
		if sec.pc == 0 {
			continue
		}
		p.Sections = append(p.Sections, loader.Section{
			Name: sec.name,
			Addr: sec.addr,
			Size: sec.pc,
			Perm: sec.perm,
			Data: sec.buf,
		})
	}
	// Entry point resolution.
	switch {
	case a.entryStr != "":
		v, err := evalExpr(a.entryStr, a.symbols)
		if err != nil {
			return nil, &Error{Msg: fmt.Sprintf(".entry: %v", err)}
		}
		p.Entry = v
	default:
		if v, ok := a.symbols["_start"]; ok {
			p.Entry = v
		} else {
			for i := range p.Sections {
				if p.Sections[i].Name == ".text" {
					p.Entry = p.Sections[i].Addr
					break
				}
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func (a *assembler) emitInstr(s *stmt) error {
	sel := &s.sel
	in := isa.Instr{Op: sel.op, R1: sel.r1, R2: sel.r2, Imm: sel.imm}
	if sel.expr.len() != 0 || sel.isRel {
		v, err := evalExpr(a.str(sel.expr), a.symbols)
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		if sel.negDisp {
			v = -v
		}
		if sel.isRel {
			v -= s.addr + s.size
		}
		if sel.op == isa.OpInt && v > 0xFF {
			return a.errf(s.line, "int vector %#x exceeds a byte", v)
		}
		if (sel.op == isa.OpShl || sel.op == isa.OpShr) && v > 0xFF {
			return a.errf(s.line, "shift count %#x exceeds a byte", v)
		}
		in.Imm = v
	}
	sec := &a.sections[s.section]
	before := len(sec.buf)
	sec.buf = isa.Encode(sec.buf, in)
	if uint32(len(sec.buf)-before) != s.size {
		return a.errf(s.line, "internal: size mismatch for %s (%d != %d)", strings.ToLower(a.str(s.name)), len(sec.buf)-before, s.size)
	}
	return nil
}

func (a *assembler) emitData(s *stmt) error {
	name := a.str(s.name)
	if s.size == 0 && name != ".word" && name != ".byte" {
		return nil
	}
	switch name {
	case ".word":
		sec := &a.sections[s.section]
		for _, arg := range a.argsOf(s) {
			v, err := evalExpr(a.str(arg.text), a.symbols)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			sec.buf = append(sec.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	case ".byte":
		sec := &a.sections[s.section]
		for _, arg := range a.argsOf(s) {
			v, err := evalExpr(a.str(arg.text), a.symbols)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			if v > 0xFF && v < 0xFFFFFF00 {
				return a.errf(s.line, ".byte value %#x out of range", v)
			}
			sec.buf = append(sec.buf, byte(v))
		}
	case ".ascii", ".asciz":
		sec := &a.sections[s.section]
		buf, err := appendString(sec.buf, a.str(s.raw))
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		sec.buf = buf
		if name == ".asciz" {
			sec.buf = append(sec.buf, 0)
		}
	case ".space":
		fill := byte(0)
		if s.nargs >= 2 {
			v, err := evalExpr(a.argText(s, 1), a.symbols)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			fill = byte(v)
		}
		sec := &a.sections[s.section]
		sec.buf = appendFill(sec.buf, fill, s.size)
	case ".align":
		sec := &a.sections[s.section]
		sec.buf = appendFill(sec.buf, 0, s.size)
	}
	return nil
}

// appendFill appends n copies of c to b.
func appendFill(b []byte, c byte, n uint32) []byte {
	b = slices.Grow(b, int(n))
	fill := b[len(b) : len(b)+int(n)]
	if c == 0 {
		clear(fill)
	} else {
		for i := range fill {
			fill[i] = c
		}
	}
	return b[:len(b)+int(n)]
}
