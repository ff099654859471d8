package asm

// The reference assembler for the differential tests (diff_test.go): the
// assembler as it stood before the one-pass scanner, unchanged but for the
// ref prefix on its package-level names. It splits the source into lines,
// builds a statement list with per-statement argument slices and looks up
// symbols through a closure. The production assembler must match it byte
// for byte on every input: the same Marshal output, symbols and listing,
// or the same error line and text.

import (
	"fmt"
	"strconv"
	"strings"

	"splitmem/internal/isa"
	"splitmem/internal/loader"
)

type refSection struct {
	name string
	addr uint32
	perm byte
	pc   uint32 // layout cursor relative to addr
	buf  []byte // encoded bytes (pass 2)
}

type refStmtKind int

const (
	refStLabel refStmtKind = iota
	refStDirective
	refStInstr
)

type refStmt struct {
	kind     refStmtKind
	line     int
	name     string   // label name / directive name / mnemonic
	args     []string // operand strings
	raw      string   // remainder after directive name (for string directives)
	section  int      // section index at layout time
	addr     uint32   // assigned address (labels, instrs, data)
	size     uint32   // layout size
	instArgs []refOperand
}

type refOperandKind int

const (
	refOpReg refOperandKind = iota
	refOpMem
	refOpExpr
)

type refOperand struct {
	kind refOperandKind
	reg  byte   // opReg, opMem base
	expr string // opExpr value / opMem displacement expression ("" = 0)
	neg  bool   // opMem: displacement is subtracted
}

// Assembler holds state across the two passes. Create one per Assemble call.
type refAssembler struct {
	stmts    []refStmt
	sections []refSection
	cur      int // current section index; -1 before any section directive
	symbols  map[string]uint32
	entryStr string
}

// Assemble translates S86 assembly source into a SELF program.
func refAssemble(src string) (*loader.Program, error) {
	a := &refAssembler{cur: -1, symbols: map[string]uint32{}}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	if err := a.layout(); err != nil {
		return nil, err
	}
	return a.emit()
}

func (a *refAssembler) errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// ---- pass 0: parse ----

func (a *refAssembler) parse(src string) error {
	for i, line := range strings.Split(src, "\n") {
		ln := i + 1
		text := refStripComment(line)
		text = strings.TrimSpace(text)
		for text != "" {
			// Leading labels, possibly several on one line.
			if idx := refLabelEnd(text); idx >= 0 {
				a.stmts = append(a.stmts, refStmt{kind: refStLabel, line: ln, name: text[:idx]})
				text = strings.TrimSpace(text[idx+1:])
				continue
			}
			break
		}
		if text == "" {
			continue
		}
		if text[0] == '.' && refIsDirective(text) {
			name, rest := refSplitWord(text)
			a.stmts = append(a.stmts, refStmt{
				kind: refStDirective, line: ln, name: name,
				args: refSplitArgs(rest), raw: rest,
			})
			continue
		}
		name, rest := refSplitWord(text)
		s := refStmt{kind: refStInstr, line: ln, name: strings.ToLower(name)}
		for _, arg := range refSplitArgs(rest) {
			op, err := refParseOperand(arg)
			if err != nil {
				return a.errf(ln, "%v", err)
			}
			s.instArgs = append(s.instArgs, op)
			s.args = append(s.args, arg)
		}
		a.stmts = append(a.stmts, s)
	}
	return nil
}

// stripComment removes ; and # comments, respecting string and character
// literals.
func refStripComment(line string) string {
	inStr, inChar := false, false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inChar = true
		case c == ';' || c == '#':
			return line[:i]
		}
	}
	return line
}

// labelEnd returns the index of the ':' terminating a leading label, or -1.
func refLabelEnd(s string) int {
	if len(s) == 0 || !refIsIdentStart(s[0]) {
		return -1
	}
	i := 0
	for i < len(s) && refIsIdentChar(s[i]) {
		i++
	}
	if i < len(s) && s[i] == ':' {
		return i
	}
	return -1
}

var refDirectives = map[string]bool{
	".text": true, ".data": true, ".section": true, ".entry": true,
	".equ": true, ".word": true, ".byte": true, ".ascii": true,
	".asciz": true, ".space": true, ".align": true,
}

func refIsDirective(s string) bool {
	name, _ := refSplitWord(s)
	return refDirectives[name]
}

func refSplitWord(s string) (string, string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i+1:])
}

// splitArgs splits on top-level commas, respecting brackets and quotes.
func refSplitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var args []string
	depth := 0
	inStr, inChar := false, false
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			if c == '\\' {
				i++
			} else if c == '\'' {
				inChar = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inChar = true
		case c == '[' || c == '(':
			depth++
		case c == ']' || c == ')':
			depth--
		case c == ',' && depth == 0:
			args = append(args, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	args = append(args, strings.TrimSpace(s[start:]))
	return args
}

func refParseOperand(s string) (refOperand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return refOperand{}, fmt.Errorf("empty operand")
	}
	if r, ok := isa.RegByName(strings.ToLower(s)); ok {
		return refOperand{kind: refOpReg, reg: r}, nil
	}
	if s[0] == '[' {
		if s[len(s)-1] != ']' {
			return refOperand{}, fmt.Errorf("unterminated memory operand %q", s)
		}
		inner := strings.TrimSpace(s[1 : len(s)-1])
		// base register, optional +expr or -expr
		var regName, disp string
		var neg bool
		if i := strings.IndexAny(inner, "+-"); i >= 0 {
			regName = strings.TrimSpace(inner[:i])
			disp = strings.TrimSpace(inner[i+1:])
			neg = inner[i] == '-'
		} else {
			regName = inner
		}
		r, ok := isa.RegByName(strings.ToLower(regName))
		if !ok {
			return refOperand{}, fmt.Errorf("memory operand %q must start with a base register", s)
		}
		return refOperand{kind: refOpMem, reg: r, expr: disp, neg: neg}, nil
	}
	return refOperand{kind: refOpExpr, expr: s}, nil
}

// instrShape describes how a mnemonic maps onto opcodes for each operand
// combination.
type refInstrShape struct {
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

var refShapes = map[string]refInstrShape{
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

// selectOp chooses the opcode and operand layout for a statement. The
// returned instr has registers filled in; immediates/displacements are
// resolved in pass 2. kind tells pass 2 how to interpret expressions.
type refSelected struct {
	op      isa.Op
	r1, r2  byte
	expr    string // immediate / displacement / branch target / int vector
	negDisp bool
	isRel   bool // expr is a branch target (pc-relative encoding)
}

func refSelectInstr(s *refStmt) (refSelected, error) {
	name := s.name
	// Pseudo-instructions.
	switch name {
	case "inc", "dec":
		if len(s.instArgs) != 1 || s.instArgs[0].kind != refOpReg {
			return refSelected{}, fmt.Errorf("%s takes one register", name)
		}
		op := isa.OpAddImm
		if name == "dec" {
			op = isa.OpSubImm
		}
		return refSelected{op: op, r1: s.instArgs[0].reg, expr: "1"}, nil
	}
	sh, ok := refShapes[name]
	if !ok {
		return refSelected{}, fmt.Errorf("unknown mnemonic %q", name)
	}
	args := s.instArgs
	switch len(args) {
	case 0:
		if sh.n == 0 {
			return refSelected{}, fmt.Errorf("%s requires operands", name)
		}
		return refSelected{op: sh.n}, nil
	case 1:
		a := args[0]
		switch {
		case a.kind == refOpReg && sh.r != 0:
			return refSelected{op: sh.r, r1: a.reg}, nil
		case a.kind == refOpExpr && sh.rel != 0:
			return refSelected{op: sh.rel, expr: a.expr, isRel: true}, nil
		case a.kind == refOpExpr && sh.i8 != 0:
			return refSelected{op: sh.i8, expr: a.expr}, nil
		}
	case 2:
		a, b := args[0], args[1]
		switch {
		case a.kind == refOpReg && b.kind == refOpReg && sh.rr != 0:
			return refSelected{op: sh.rr, r1: a.reg, r2: b.reg}, nil
		case a.kind == refOpReg && b.kind == refOpExpr && sh.ri != 0:
			return refSelected{op: sh.ri, r1: a.reg, expr: b.expr}, nil
		case a.kind == refOpReg && b.kind == refOpExpr && sh.ri8 != 0:
			return refSelected{op: sh.ri8, r1: a.reg, expr: b.expr}, nil
		case a.kind == refOpReg && b.kind == refOpMem && sh.rm != 0:
			return refSelected{op: sh.rm, r1: a.reg, r2: b.reg, expr: b.expr, negDisp: b.neg}, nil
		case a.kind == refOpMem && b.kind == refOpReg && sh.mr != 0:
			return refSelected{op: sh.mr, r1: a.reg, r2: b.reg, expr: a.expr, negDisp: a.neg}, nil
		}
	}
	return refSelected{}, fmt.Errorf("invalid operands for %s: %s", name, strings.Join(s.args, ", "))
}

func refInstrSize(sel refSelected) uint32 {
	return uint32(isa.Len(isa.Instr{Op: sel.op}))
}

// ---- pass 1: layout ----

func (a *refAssembler) layout() error {
	for i := range a.stmts {
		s := &a.stmts[i]
		switch s.kind {
		case refStLabel:
			if a.cur < 0 {
				a.startDefaultText()
			}
			if _, dup := a.symbols[s.name]; dup {
				return a.errf(s.line, "duplicate symbol %q", s.name)
			}
			sec := &a.sections[a.cur]
			a.symbols[s.name] = sec.addr + sec.pc
			s.section, s.addr = a.cur, sec.addr+sec.pc
		case refStDirective:
			if err := a.layoutDirective(s); err != nil {
				return err
			}
		case refStInstr:
			if a.cur < 0 {
				a.startDefaultText()
			}
			sel, err := refSelectInstr(s)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			sec := &a.sections[a.cur]
			s.section, s.addr = a.cur, sec.addr+sec.pc
			s.size = refInstrSize(sel)
			sec.pc += s.size
		}
	}
	return nil
}

func (a *refAssembler) startDefaultText() {
	a.cur = a.findOrAddSection(".text", DefaultTextAddr, loader.PermR|loader.PermX)
}

func (a *refAssembler) findOrAddSection(name string, addr uint32, perm byte) int {
	for i := range a.sections {
		if a.sections[i].name == name {
			return i
		}
	}
	a.sections = append(a.sections, refSection{name: name, addr: addr, perm: perm})
	return len(a.sections) - 1
}

func (a *refAssembler) lookup1(name string) (uint32, bool) {
	v, ok := a.symbols[name]
	return v, ok
}

func (a *refAssembler) layoutDirective(s *refStmt) error {
	switch s.name {
	case ".text", ".data":
		addr, perm := uint32(DefaultTextAddr), byte(loader.PermR|loader.PermX)
		if s.name == ".data" {
			addr, perm = DefaultDataAddr, loader.PermR|loader.PermW
		}
		if len(s.args) >= 1 && s.args[0] != "" {
			v, err := refEvalExpr(s.args[0], a.lookup1)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			addr = v
		}
		idx := a.findOrAddSection(s.name, addr, perm)
		if len(s.args) >= 1 && s.args[0] != "" && a.sections[idx].pc == 0 {
			a.sections[idx].addr = addr
		}
		a.cur = idx
	case ".section":
		if len(s.args) < 1 {
			return a.errf(s.line, ".section requires a name")
		}
		fields := strings.Fields(s.args[0])
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
		addr, err := refEvalExpr(fields[1], a.lookup1)
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		perm, err := refParsePerm(fields[2])
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		a.cur = a.findOrAddSection(name, addr, perm)
	case ".entry":
		if len(s.args) != 1 {
			return a.errf(s.line, ".entry requires one symbol")
		}
		a.entryStr = s.args[0]
	case ".equ":
		if len(s.args) != 2 {
			return a.errf(s.line, ".equ requires NAME, expr")
		}
		name := strings.TrimSpace(s.args[0])
		if _, dup := a.symbols[name]; dup {
			return a.errf(s.line, "duplicate symbol %q", name)
		}
		v, err := refEvalExpr(s.args[1], a.lookup1)
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		a.symbols[name] = v
	case ".word", ".byte", ".ascii", ".asciz", ".space", ".align":
		if a.cur < 0 {
			return a.errf(s.line, "%s outside any section", s.name)
		}
		sec := &a.sections[a.cur]
		s.section, s.addr = a.cur, sec.addr+sec.pc
		size, err := a.dataSize(s, sec.pc)
		if err != nil {
			return err
		}
		s.size = size
		sec.pc += size
	default:
		return a.errf(s.line, "unknown directive %s", s.name)
	}
	return nil
}

func (a *refAssembler) dataSize(s *refStmt, pc uint32) (uint32, error) {
	switch s.name {
	case ".word":
		return 4 * uint32(len(s.args)), nil
	case ".byte":
		return uint32(len(s.args)), nil
	case ".ascii", ".asciz":
		str, _, err := refParseString(s.raw)
		if err != nil {
			return 0, a.errf(s.line, "%v", err)
		}
		n := uint32(len(str))
		if s.name == ".asciz" {
			n++
		}
		return n, nil
	case ".space":
		if len(s.args) < 1 {
			return 0, a.errf(s.line, ".space requires a size")
		}
		n, err := refEvalExpr(s.args[0], a.lookup1)
		if err != nil {
			return 0, a.errf(s.line, ".space size: %v (must be resolvable at layout time)", err)
		}
		return n, nil
	case ".align":
		if len(s.args) != 1 {
			return 0, a.errf(s.line, ".align requires a boundary")
		}
		n, err := refEvalExpr(s.args[0], a.lookup1)
		if err != nil || n == 0 || n&(n-1) != 0 {
			return 0, a.errf(s.line, ".align requires a power-of-two boundary")
		}
		return (n - pc%n) % n, nil
	}
	return 0, a.errf(s.line, "unhandled data directive %s", s.name)
}

func refParsePerm(s string) (byte, error) {
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

func (a *refAssembler) lookup(name string) (uint32, bool) {
	v, ok := a.symbols[name]
	return v, ok
}

func (a *refAssembler) emit() (*loader.Program, error) {
	for i := range a.stmts {
		s := &a.stmts[i]
		switch s.kind {
		case refStInstr:
			if err := a.emitInstr(s); err != nil {
				return nil, err
			}
		case refStDirective:
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
		v, err := refEvalExpr(a.entryStr, a.lookup)
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

func (a *refAssembler) emitInstr(s *refStmt) error {
	sel, err := refSelectInstr(s)
	if err != nil {
		return a.errf(s.line, "%v", err)
	}
	in := isa.Instr{Op: sel.op, R1: sel.r1, R2: sel.r2}
	if sel.expr != "" || sel.isRel {
		v, err := refEvalExpr(sel.expr, a.lookup)
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
		return a.errf(s.line, "internal: size mismatch for %s (%d != %d)", s.name, len(sec.buf)-before, s.size)
	}
	return nil
}

func (a *refAssembler) emitData(s *refStmt) error {
	if s.size == 0 && s.name != ".word" && s.name != ".byte" {
		return nil
	}
	switch s.name {
	case ".word":
		sec := &a.sections[s.section]
		for _, arg := range s.args {
			v, err := refEvalExpr(arg, a.lookup)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			sec.buf = append(sec.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	case ".byte":
		sec := &a.sections[s.section]
		for _, arg := range s.args {
			v, err := refEvalExpr(arg, a.lookup)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			if v > 0xFF && v < 0xFFFFFF00 {
				return a.errf(s.line, ".byte value %#x out of range", v)
			}
			sec.buf = append(sec.buf, byte(v))
		}
	case ".ascii", ".asciz":
		str, _, err := refParseString(s.raw)
		if err != nil {
			return a.errf(s.line, "%v", err)
		}
		sec := &a.sections[s.section]
		sec.buf = append(sec.buf, str...)
		if s.name == ".asciz" {
			sec.buf = append(sec.buf, 0)
		}
	case ".space":
		fill := byte(0)
		if len(s.args) >= 2 {
			v, err := refEvalExpr(s.args[1], a.lookup)
			if err != nil {
				return a.errf(s.line, "%v", err)
			}
			fill = byte(v)
		}
		sec := &a.sections[s.section]
		for i := uint32(0); i < s.size; i++ {
			sec.buf = append(sec.buf, fill)
		}
	case ".align":
		sec := &a.sections[s.section]
		for i := uint32(0); i < s.size; i++ {
			sec.buf = append(sec.buf, 0)
		}
	}
	return nil
}

// exprParser evaluates assembler expressions: integers (decimal, 0x hex,
// character literals), symbols, unary minus, parentheses, and the binary
// operators + - * with conventional precedence. All arithmetic is uint32
// with wraparound, matching the machine's word size.
type refExprParser struct {
	s    string
	pos  int
	syms func(name string) (uint32, bool)
}

func refEvalExpr(s string, syms func(string) (uint32, bool)) (uint32, error) {
	p := &refExprParser{s: s, syms: syms}
	v, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return 0, fmt.Errorf("trailing junk %q in expression %q", p.s[p.pos:], s)
	}
	return v, nil
}

func (p *refExprParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *refExprParser) parseExpr() (uint32, error) {
	v, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) {
			return v, nil
		}
		switch p.s[p.pos] {
		case '+':
			p.pos++
			t, err := p.parseTerm()
			if err != nil {
				return 0, err
			}
			v += t
		case '-':
			p.pos++
			t, err := p.parseTerm()
			if err != nil {
				return 0, err
			}
			v -= t
		default:
			return v, nil
		}
	}
}

func (p *refExprParser) parseTerm() (uint32, error) {
	v, err := p.parseFactor()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != '*' {
			return v, nil
		}
		p.pos++
		f, err := p.parseFactor()
		if err != nil {
			return 0, err
		}
		v *= f
	}
}

func (p *refExprParser) parseFactor() (uint32, error) {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0, fmt.Errorf("unexpected end of expression %q", p.s)
	}
	c := p.s[p.pos]
	switch {
	case c == '-':
		p.pos++
		v, err := p.parseFactor()
		return -v, err
	case c == '(':
		p.pos++
		v, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return 0, fmt.Errorf("missing ) in expression %q", p.s)
		}
		p.pos++
		return v, nil
	case c == '\'':
		return p.parseChar()
	case c >= '0' && c <= '9':
		return p.parseNumber()
	case refIsIdentStart(c):
		return p.parseSymbol()
	}
	return 0, fmt.Errorf("unexpected character %q in expression %q", c, p.s)
}

func (p *refExprParser) parseChar() (uint32, error) {
	// p.s[p.pos] == '\''
	rest := p.s[p.pos+1:]
	if len(rest) == 0 {
		return 0, fmt.Errorf("unterminated character literal")
	}
	var v byte
	var n int
	if rest[0] == '\\' {
		if len(rest) < 2 {
			return 0, fmt.Errorf("unterminated escape in character literal")
		}
		e, err := refUnescape(rest[1])
		if err != nil {
			return 0, err
		}
		v, n = e, 2
	} else {
		v, n = rest[0], 1
	}
	if len(rest) <= n || rest[n] != '\'' {
		return 0, fmt.Errorf("unterminated character literal in %q", p.s)
	}
	p.pos += n + 2
	return uint32(v), nil
}

func (p *refExprParser) parseNumber() (uint32, error) {
	start := p.pos
	for p.pos < len(p.s) && (refIsIdentChar(p.s[p.pos])) {
		p.pos++
	}
	tok := p.s[start:p.pos]
	v, err := strconv.ParseUint(tok, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", tok)
	}
	if v > 0xFFFFFFFF {
		return 0, fmt.Errorf("number %q exceeds 32 bits", tok)
	}
	return uint32(v), nil
}

func (p *refExprParser) parseSymbol() (uint32, error) {
	start := p.pos
	for p.pos < len(p.s) && refIsIdentChar(p.s[p.pos]) {
		p.pos++
	}
	name := p.s[start:p.pos]
	v, ok := p.syms(name)
	if !ok {
		return 0, fmt.Errorf("undefined symbol %q", name)
	}
	return v, nil
}

func refIsIdentStart(c byte) bool {
	return c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func refIsIdentChar(c byte) bool {
	return refIsIdentStart(c) || (c >= '0' && c <= '9') || c == 'x' || c == 'X'
}

func refUnescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 'r':
		return '\r', nil
	case 't':
		return '\t', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unknown escape \\%c", c)
}

// parseString parses a double-quoted string literal with escapes, returning
// the bytes and the remainder of the input after the closing quote.
func refParseString(s string) ([]byte, string, error) {
	s = strings.TrimLeft(s, " \t")
	if len(s) == 0 || s[0] != '"' {
		return nil, "", fmt.Errorf("expected string literal")
	}
	var out []byte
	i := 1
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return out, s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return nil, "", fmt.Errorf("unterminated escape")
			}
			e, err := refUnescape(s[i+1])
			if err != nil {
				return nil, "", err
			}
			out = append(out, e)
			i += 2
		default:
			out = append(out, c)
			i++
		}
	}
	return nil, "", fmt.Errorf("unterminated string literal")
}

// AssembleListing assembles src and additionally produces a classic
// assembler listing: every source line annotated with the address and the
// bytes it produced. Toolchain users (and the sasm -l flag) use it to debug
// guest programs and to compute the exact payload offsets exploits need.
func refAssembleListing(src string) (*loader.Program, string, error) {
	a := &refAssembler{cur: -1, symbols: map[string]uint32{}}
	if err := a.parse(src); err != nil {
		return nil, "", err
	}
	if err := a.layout(); err != nil {
		return nil, "", err
	}
	prog, err := a.emit()
	if err != nil {
		return nil, "", err
	}

	// Collect, per source line, the (address, length, section) of each
	// emitted statement.
	type span struct {
		addr    uint32
		size    uint32
		section int
	}
	byLine := map[int][]span{}
	for i := range a.stmts {
		s := &a.stmts[i]
		if s.kind == refStLabel || s.size == 0 && s.kind != refStInstr {
			continue
		}
		if s.kind == refStDirective {
			switch s.name {
			case ".word", ".byte", ".ascii", ".asciz", ".space", ".align":
			default:
				continue
			}
		}
		byLine[s.line] = append(byLine[s.line], span{addr: s.addr, size: s.size, section: s.section})
	}
	// Section content for byte extraction.
	secBytes := map[int][]byte{}
	for i := range a.sections {
		secBytes[i] = a.sections[i].buf
	}
	secBase := map[int]uint32{}
	for i := range a.sections {
		secBase[i] = a.sections[i].addr
	}

	var sb strings.Builder
	for i, line := range strings.Split(src, "\n") {
		ln := i + 1
		spans := byLine[ln]
		if len(spans) == 0 {
			fmt.Fprintf(&sb, "%-28s %s\n", "", line)
			continue
		}
		first := true
		for _, sp := range spans {
			buf := secBytes[sp.section]
			off := sp.addr - secBase[sp.section]
			end := off + sp.size
			if int(end) > len(buf) {
				end = uint32(len(buf))
			}
			bytes := buf[off:end]
			// Wrap long byte runs (data directives) at 8 bytes per row.
			for o := 0; o < len(bytes); o += 8 {
				hi := o + 8
				if hi > len(bytes) {
					hi = len(bytes)
				}
				hex := make([]string, 0, 8)
				for _, b := range bytes[o:hi] {
					hex = append(hex, fmt.Sprintf("%02x", b))
				}
				prefix := fmt.Sprintf("%08x  %-17s", sp.addr+uint32(o), strings.Join(hex, " "))
				if first {
					fmt.Fprintf(&sb, "%s %s\n", prefix, line)
					first = false
				} else {
					fmt.Fprintf(&sb, "%s\n", prefix)
				}
			}
			if len(bytes) == 0 && first {
				fmt.Fprintf(&sb, "%08x  %-17s %s\n", sp.addr, "", line)
				first = false
			}
		}
	}
	return prog, sb.String(), nil
}
