// Package asm implements a two-pass assembler for the S86 instruction set.
// Guest programs — the C runtime, the vulnerable servers, the performance
// workloads — are written in S86 assembly and assembled into SELF images at
// runtime (no external toolchain).
//
// Syntax summary:
//
//	; comment               # comment
//	.text [addr]            ; switch to the text section (default 0x08048000, r-x)
//	.data [addr]            ; switch to the data section (default 0x08060000, rw-)
//	.section name addr rwx  ; define/switch to a custom section
//	.entry sym              ; program entry point (default _start, else start of .text)
//	.equ NAME, expr         ; constant
//	.word e1, e2, ...       ; 32-bit little-endian words
//	.byte e1, e2, ...       ; bytes
//	.ascii "str"            ; string bytes
//	.asciz "str"            ; NUL-terminated string
//	.space n [, fill]       ; n bytes of fill (default 0)
//	.align n                ; pad to an n-byte boundary
//
//	label:  mov eax, 42     ; operands: reg, imm expression, or [reg+disp]
//	        load eax, [ebp+8]
//	        store [ebp-4], eax
//	        jz done
//
// Pseudo-instructions: inc r / dec r (add/sub 1).
package asm

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"splitmem/internal/isa"
	"splitmem/internal/loader"
)

// Default section load addresses.
const (
	DefaultTextAddr = 0x08048000
	DefaultDataAddr = 0x08060000
)

// The assembler makes three passes: parse scans the source once, line by
// line in place, into a statement list; layout assigns addresses and
// symbols; emit encodes. Statements and operands refer to the source by
// offsets rather than by strings, so the two arrays holding them are
// pointer-free: the garbage collector neither scans them nor puts write
// barriers on their stores.

type section struct {
	name string
	addr uint32
	perm byte
	pc   uint32 // layout cursor relative to addr
	buf  []byte // encoded bytes (pass 2)
}

// A span is the source text src[lo:hi].
type span struct{ lo, hi uint32 }

func (sp span) len() int { return int(sp.hi - sp.lo) }

// sub returns the span of sp's text from i to j.
func (sp span) sub(i, j int) span { return span{sp.lo + uint32(i), sp.lo + uint32(j)} }

type stmtKind uint8

const (
	stLabel stmtKind = iota
	stDirective
	stInstr
)

type stmt struct {
	name    span     // label name / directive name / mnemonic as written
	raw     span     // remainder after directive name (for string directives)
	sel     selected // instructions: the encoding chosen at layout
	arg0    uint32   // the arguments are the assembler's args[arg0 : arg0+nargs]
	nargs   uint32
	line    uint32
	section uint32 // section index at layout time
	addr    uint32 // assigned address (labels, instrs, data)
	size    uint32 // layout size
	kind    stmtKind
}

type operandKind uint8

const (
	opReg operandKind = iota
	opMem
	opExpr
)

// operand is one comma-separated argument. Directives read only its text;
// instruction arguments are classified at parse time.
type operand struct {
	text span // the argument as written, trimmed
	expr span // opExpr value / opMem displacement expression (empty = 0)
	kind operandKind
	reg  byte // opReg, opMem base
	neg  bool // opMem: displacement is subtracted
}

// Assembler holds state across the passes. Create one per Assemble call.
type assembler struct {
	src      string
	stmts    []stmt
	args     []operand // every statement's arguments, in source order
	sections []section
	cur      int // current section index; -1 before any section directive
	symbols  map[string]uint32
	nsyms    int    // labels and .equ directives, to size symbols
	scratch  []byte // string directive bytes measured at layout
	entryStr string
}

// str returns the source text of sp.
func (a *assembler) str(sp span) string { return a.src[sp.lo:sp.hi] }

// argsOf returns s's arguments.
func (a *assembler) argsOf(s *stmt) []operand { return a.args[s.arg0 : s.arg0+s.nargs] }

// argText returns the text of s's i-th argument.
func (a *assembler) argText(s *stmt, i int) string { return a.str(a.args[s.arg0+uint32(i)].text) }

// Assemble translates S86 assembly source into a SELF program.
func Assemble(src string) (*loader.Program, error) {
	_, p, err := runPasses(src)
	return p, err
}

// runPasses runs the three passes and returns the assembler with the
// program, for AssembleListing to read back the statements' addresses.
func runPasses(src string) (*assembler, *loader.Program, error) {
	a := &assembler{cur: -1}
	if err := a.parse(src); err != nil {
		return nil, nil, err
	}
	if err := a.layout(); err != nil {
		return nil, nil, err
	}
	p, err := a.emit()
	if err != nil {
		return nil, nil, err
	}
	return a, p, nil
}

// MustAssemble is Assemble for known-good embedded sources; it panics on
// error and is intended for tests and package initialization of canned
// guest programs.
func MustAssemble(src string) *loader.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(fmt.Sprintf("asm: %v", err))
	}
	return p
}

// Error is a source-level assembly failure: a syntax error, an unknown
// mnemonic, a bad directive. Line is the 1-based source line (0 when the
// failure is not attributable to one line, e.g. an unresolved .entry
// symbol). Callers that assemble untrusted source (the analysis service's
// job decoder) pull it out with errors.As to report the offending line.
type Error struct {
	Line int
	Msg  string
}

// Error renders the failure in the assembler's historical "line N: msg"
// form (or the bare message when no line is attributable).
func (e *Error) Error() string {
	if e.Line == 0 {
		return e.Msg
	}
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

func (a *assembler) errf(line uint32, format string, args ...any) error {
	return &Error{Line: int(line), Msg: fmt.Sprintf(format, args...)}
}

// ---- pass 0: parse ----

// parse scans src line by line in place. The statement list and the
// argument arena are sized from the line and comma counts up front, so a
// typical source costs them one allocation each.
func (a *assembler) parse(src string) error {
	if uint64(len(src)) > math.MaxUint32 {
		return &Error{Msg: "source exceeds 4 GiB"}
	}
	a.src = src
	lines := strings.Count(src, "\n") + 1
	a.stmts = make([]stmt, 0, lines)
	a.args = make([]operand, 0, lines+strings.Count(src, ","))
	line := span{hi: uint32(len(src))}
	for ln := uint32(1); ; ln++ {
		n := strings.IndexByte(a.str(line), '\n')
		if n < 0 {
			return a.parseLine(line, ln)
		}
		if err := a.parseLine(line.sub(0, n), ln); err != nil {
			return err
		}
		line.lo += uint32(n) + 1
	}
}

func (a *assembler) parseLine(line span, ln uint32) error {
	text := a.trim(line.sub(0, stripComment(a.str(line))))
	// Leading labels, possibly several on one line.
	for {
		idx := labelEnd(a.str(text))
		if idx < 0 {
			break
		}
		a.stmts = append(a.stmts, stmt{kind: stLabel, line: ln, name: text.sub(0, idx)})
		a.nsyms++
		text = a.trim(text.sub(idx+1, text.len()))
	}
	if text.len() == 0 {
		return nil
	}
	name, rest := a.splitWord(text)
	if a.src[text.lo] == '.' && isDirective(a.str(name)) {
		if a.str(name) == ".equ" {
			a.nsyms++
		}
		arg0, nargs := a.splitArgs(rest)
		a.stmts = append(a.stmts, stmt{
			kind: stDirective, line: ln, name: name, raw: rest,
			arg0: arg0, nargs: nargs,
		})
		return nil
	}
	arg0, nargs := a.splitArgs(rest)
	for i := range a.args[arg0:] {
		if err := a.parseOperand(&a.args[arg0+uint32(i)]); err != nil {
			return a.errf(ln, "%v", err)
		}
	}
	a.stmts = append(a.stmts, stmt{kind: stInstr, line: ln, name: name, arg0: arg0, nargs: nargs})
	return nil
}

// trim returns the span of strings.TrimSpace of sp's text. ASCII blanks
// are trimmed byte by byte; a non-ASCII end may be a Unicode space and is
// trimmed rune by rune, as strings.TrimSpace does.
func (a *assembler) trim(sp span) span {
	s := a.str(sp)
	i, j := 0, len(s)
	for i < j && asciiSpace[s[i]] {
		i++
	}
	for j > i && asciiSpace[s[j-1]] {
		j--
	}
	if i < j && (s[i] >= utf8.RuneSelf || s[j-1] >= utf8.RuneSelf) {
		t := s[i:j]
		l := strings.TrimLeftFunc(t, unicode.IsSpace)
		i += len(t) - len(l)
		j = i + len(strings.TrimRightFunc(l, unicode.IsSpace))
	}
	return sp.sub(i, j)
}

var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// Byte classes of the scanners: a byte of class 0 never ends a run that
// stripComment or splitArgs skips.
const (
	clComment = 1 + iota // ; #
	clQuote              // " '
	clNest               // [ ( ] )
	clComma              // ,
)

var byteClass = [256]uint8{
	';': clComment, '#': clComment,
	'"': clQuote, '\'': clQuote,
	'[': clNest, '(': clNest, ']': clNest, ')': clNest,
	',': clComma,
}

// stripComment returns the length of line without its ; or # comment,
// respecting string and character literals.
func stripComment(line string) int {
	for i := 0; i < len(line); i++ {
		switch byteClass[line[i]] {
		case clComment:
			return i
		case clQuote:
			i = skipQuoted(line, i)
		}
	}
	return len(line)
}

// skipQuoted returns the index of the quote closing the string or
// character literal that opens at s[i], or len(s) when it is unterminated.
// A backslash escapes the byte after it.
func skipQuoted(s string, i int) int {
	q := s[i]
	for i++; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case q:
			return i
		}
	}
	return len(s)
}

// labelEnd returns the index of the ':' terminating a leading label, or -1.
func labelEnd(s string) int {
	if len(s) == 0 || !isIdentStart(s[0]) {
		return -1
	}
	i := 0
	for i < len(s) && isIdentChar(s[i]) {
		i++
	}
	if i < len(s) && s[i] == ':' {
		return i
	}
	return -1
}

func isDirective(name string) bool {
	switch name {
	case ".text", ".data", ".section", ".entry", ".equ", ".word", ".byte",
		".ascii", ".asciz", ".space", ".align":
		return true
	}
	return false
}

// splitWord splits trimmed text at its first blank.
func (a *assembler) splitWord(text span) (word, rest span) {
	s := a.str(text)
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return text.sub(0, i), a.trim(text.sub(i+1, len(s)))
		}
	}
	return text, span{}
}

// splitArgs splits trimmed text on top-level commas, respecting brackets
// and quotes, and appends the trimmed arguments to the arena. It returns
// where they start and how many there are.
func (a *assembler) splitArgs(text span) (arg0, n uint32) {
	arg0 = uint32(len(a.args))
	s := a.str(text)
	if s == "" {
		return arg0, 0
	}
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch byteClass[s[i]] {
		case clQuote:
			i = skipQuoted(s, i)
		case clNest:
			if s[i] == '[' || s[i] == '(' {
				depth++
			} else {
				depth--
			}
		case clComma:
			if depth == 0 {
				a.args = append(a.args, operand{text: a.trim(text.sub(start, i))})
				start = i + 1
			}
		}
	}
	a.args = append(a.args, operand{text: a.trim(text.sub(start, len(s)))})
	return arg0, uint32(len(a.args)) - arg0
}

// parseOperand classifies an instruction argument from its text.
func (a *assembler) parseOperand(op *operand) error {
	s := a.str(op.text)
	if s == "" {
		return fmt.Errorf("empty operand")
	}
	if r, ok := regByName(s); ok {
		op.kind, op.reg = opReg, r
		return nil
	}
	if s[0] == '[' {
		if s[len(s)-1] != ']' {
			return fmt.Errorf("unterminated memory operand %q", s)
		}
		inner := a.trim(op.text.sub(1, len(s)-1))
		// base register, optional +expr or -expr
		regName, disp, neg := inner, span{}, false
		in := a.str(inner)
		for i := 0; i < len(in); i++ {
			if in[i] == '+' || in[i] == '-' {
				regName = a.trim(inner.sub(0, i))
				disp = a.trim(inner.sub(i+1, len(in)))
				neg = in[i] == '-'
				break
			}
		}
		r, ok := regByName(a.str(regName))
		if !ok {
			return fmt.Errorf("memory operand %q must start with a base register", s)
		}
		op.kind, op.reg, op.expr, op.neg = opMem, r, disp, neg
		return nil
	}
	op.kind, op.expr = opExpr, op.text
	return nil
}

// regNames are the register names isa.RegByName accepts, by number.
var regNames = func() (t [isa.NumRegs][3]byte) {
	for r := range t {
		copy(t[r][:], isa.RegName(byte(r)))
	}
	return t
}()

// regByName is isa.RegByName of the lower-cased name. Register names are
// three ASCII letters, so an ASCII name of another length is none, and one
// of that length lowers by setting bit 5 of each byte: that maps a byte to a
// lower-case letter only from the letter itself or its capital. A name with
// a non-ASCII byte takes strings.ToLower, whose Unicode mapping can turn it
// into a register name.
func regByName(s string) (byte, bool) {
	if len(s) == 3 && s[0]|s[1]|s[2] < utf8.RuneSelf {
		low := [3]byte{s[0] | 0x20, s[1] | 0x20, s[2] | 0x20}
		for r := range regNames {
			if regNames[r] == low {
				return byte(r), true
			}
		}
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return isa.RegByName(strings.ToLower(s))
		}
	}
	return 0, false
}
