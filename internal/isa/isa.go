// Package isa defines the S86 instruction set architecture: a compact,
// 32-bit, little-endian register machine whose encodings deliberately match
// x86 for a handful of common opcodes (NOP, MOV r32/imm32, INT, RET,
// PUSH/POP) so that classic published x86 shellcode fragments assemble and
// execute verbatim on the simulator.
//
// S86 exists so that the split-memory technique from "An Architectural
// Approach to Preventing Code Injection Attacks" (Riley, Jiang, Xu; DSN'07 /
// TDSC 2010) can be exercised end to end: attacks inject real machine code
// into a process image, and the fetch path either reaches it (von Neumann)
// or provably cannot (virtual Harvard).
package isa

import "fmt"

// Register numbers. The aliases follow x86 order so that the x86-matching
// opcode forms (0xB8+r, 0x50+r, 0x58+r) mean the same thing they do on x86.
const (
	EAX = 0
	ECX = 1
	EDX = 2
	EBX = 3
	ESP = 4
	EBP = 5
	ESI = 6
	EDI = 7

	// NumRegs is the number of general-purpose registers.
	NumRegs = 8
)

// regNames maps register numbers to their conventional names.
var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

// RegName returns the conventional name of register r, or "r?" if r is out
// of range.
func RegName(r byte) string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r%d", r)
}

// RegByName returns the register number for a name such as "eax".
func RegByName(name string) (byte, bool) {
	for i, n := range regNames {
		if n == name {
			return byte(i), true
		}
	}
	return 0, false
}

// Op identifies an S86 opcode. Values are the first encoded byte except for
// the register-in-opcode families (OpMovImm, OpPush, OpPop), which occupy
// eight consecutive byte values each and are canonicalized to their base.
type Op byte

// Opcode space. Encodings marked (x86) are bit-compatible with the IA-32
// instruction of the same meaning.
const (
	OpInvalid Op = 0x00 // any undefined byte; raises #UD
	OpAdd     Op = 0x01 // add dst, src
	OpAddImm  Op = 0x05 // add reg, imm32
	OpOr      Op = 0x09 // or dst, src
	OpOrImm   Op = 0x0D // or reg, imm32
	OpUndef   Op = 0x0F // canonical guaranteed-undefined opcode; raises #UD
	OpAnd     Op = 0x21 // and dst, src
	OpAndImm  Op = 0x25 // and reg, imm32
	OpSub     Op = 0x29 // sub dst, src
	OpSubImm  Op = 0x2D // sub reg, imm32
	OpXor     Op = 0x31 // xor dst, src
	OpXorImm  Op = 0x35 // xor reg, imm32
	OpCmp     Op = 0x39 // cmp a, b
	OpCmpImm  Op = 0x3D // cmp reg, imm32
	OpPush    Op = 0x50 // push reg (x86: 0x50+r)
	OpPop     Op = 0x58 // pop reg (x86: 0x58+r)
	OpMulImm  Op = 0x6B // mul reg, imm32
	OpJb      Op = 0x72 // jump if below (unsigned), rel32
	OpJae     Op = 0x73 // jump if above or equal (unsigned), rel32
	OpJbe     Op = 0x76 // jump if below or equal (unsigned), rel32
	OpJa      Op = 0x77 // jump if above (unsigned), rel32
	OpJz      Op = 0x84 // jump if zero, rel32
	OpJnz     Op = 0x85 // jump if not zero, rel32
	OpJle     Op = 0x86 // jump if less or equal (signed), rel32
	OpStore   Op = 0x87 // store [base+disp32], src (32-bit)
	OpStoreB  Op = 0x88 // storeb [base+disp32], src (low byte)
	OpMov     Op = 0x89 // mov dst, src
	OpLoadB   Op = 0x8A // loadb dst, [base+disp32] (zero-extended byte)
	OpLoad    Op = 0x8B // load dst, [base+disp32] (32-bit)
	OpJl      Op = 0x8C // jump if less (signed), rel32
	OpLea     Op = 0x8D // lea dst, [base+disp32]
	OpJge     Op = 0x8E // jump if greater or equal (signed), rel32
	OpJg      Op = 0x8F // jump if greater (signed), rel32
	OpNop     Op = 0x90 // no operation (x86)
	OpMovImm  Op = 0xB8 // mov reg, imm32 (x86: 0xB8+r)
	OpShl     Op = 0xC1 // shl reg, imm8
	OpRet     Op = 0xC3 // ret (x86)
	OpInt3    Op = 0xCC // breakpoint; raises #BP (x86)
	OpInt     Op = 0xCD // int imm8; imm8=0x80 is the syscall gate (x86)
	OpShr     Op = 0xD3 // shr reg, imm8
	OpCall    Op = 0xE8 // call rel32 (x86)
	OpJmp     Op = 0xE9 // jmp rel32 (x86)
	OpJmpReg  Op = 0xEA // jmp reg
	OpHlt     Op = 0xF4 // halt; privileged, raises #GP in user mode (x86)
	OpMul     Op = 0xF6 // mul dst, src
	OpDiv     Op = 0xF7 // div dst, src; raises #DE on divide by zero
	OpMod     Op = 0xF8 // mod dst, src; raises #DE on divide by zero
	OpCallReg Op = 0xFF // call reg
)

// Operand shapes for each opcode family.
type form int

const (
	formUndef   form = iota // not a defined first byte
	formNone                // op
	formRR                  // op r1 r2
	formRI                  // op r1 imm32
	formRI8                 // op r1 imm8
	formRegInOp             // (op+r) imm32? (MovImm yes; Push/Pop no)
	formMem                 // op r1 r2 disp32
	formRel                 // op rel32
	formReg                 // op r1
	formImm8                // op imm8
)

// opForms and opNames are indexed by first byte; decode misses read them
// for every instruction. The register-in-opcode families are handled
// before opForms is consulted.
var opForms = [256]form{
	OpAdd: formRR, OpOr: formRR, OpAnd: formRR, OpSub: formRR,
	OpXor: formRR, OpCmp: formRR, OpMov: formRR, OpMul: formRR,
	OpDiv: formRR, OpMod: formRR,

	OpAddImm: formRI, OpOrImm: formRI, OpAndImm: formRI, OpSubImm: formRI,
	OpXorImm: formRI, OpCmpImm: formRI, OpMulImm: formRI,

	OpShl: formRI8, OpShr: formRI8,

	OpLoad: formMem, OpLoadB: formMem, OpStore: formMem, OpStoreB: formMem,
	OpLea: formMem,

	OpJb: formRel, OpJae: formRel, OpJbe: formRel, OpJa: formRel,
	OpJz: formRel, OpJnz: formRel, OpJle: formRel, OpJl: formRel,
	OpJge: formRel, OpJg: formRel, OpJmp: formRel, OpCall: formRel,

	OpJmpReg: formReg, OpCallReg: formReg,

	OpInt: formImm8,

	OpNop: formNone, OpRet: formNone, OpInt3: formNone, OpHlt: formNone,
	OpUndef: formNone,
}

var opNames = [256]string{
	OpAdd: "add", OpOr: "or", OpAnd: "and", OpSub: "sub", OpXor: "xor",
	OpCmp: "cmp", OpMov: "mov", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAddImm: "add", OpOrImm: "or", OpAndImm: "and", OpSubImm: "sub",
	OpXorImm: "xor", OpCmpImm: "cmp", OpMulImm: "mul",
	OpShl: "shl", OpShr: "shr",
	OpLoad: "load", OpLoadB: "loadb", OpStore: "store", OpStoreB: "storeb",
	OpLea: "lea",
	OpJb:  "jb", OpJae: "jae", OpJbe: "jbe", OpJa: "ja",
	OpJz: "jz", OpJnz: "jnz", OpJle: "jle", OpJl: "jl", OpJge: "jge",
	OpJg: "jg", OpJmp: "jmp", OpCall: "call",
	OpJmpReg: "jmp", OpCallReg: "call",
	OpInt: "int", OpNop: "nop", OpRet: "ret", OpInt3: "int3", OpHlt: "hlt",
	OpUndef:  "ud",
	OpMovImm: "mov", OpPush: "push", OpPop: "pop",
}

// Name returns the mnemonic for op.
func (o Op) Name() string {
	if n := opNames[o]; n != "" {
		return n
	}
	return fmt.Sprintf("op%02x", byte(o))
}

// Instr is a decoded S86 instruction.
type Instr struct {
	Op   Op     // canonical opcode (register-in-opcode forms normalized)
	R1   byte   // first register operand (dst / base / sole register)
	R2   byte   // second register operand (src)
	Imm  uint32 // immediate, displacement, or branch target offset
	Size int    // encoded length in bytes
}

// ErrTruncated is reported by Decode when the byte window ends inside an
// instruction. The caller (the CPU fetch unit) extends the window and
// retries.
var ErrTruncated = fmt.Errorf("isa: truncated instruction")

// ErrUndefined is reported by Decode for undefined opcode bytes or malformed
// operands; the CPU turns it into a #UD fault.
var ErrUndefined = fmt.Errorf("isa: undefined instruction")

// MaxInstrLen is the longest possible S86 instruction encoding, in bytes.
const MaxInstrLen = 7

// Decode decodes a single instruction from the start of b.
func Decode(b []byte) (Instr, error) {
	if len(b) == 0 {
		return Instr{}, ErrTruncated
	}
	op := b[0]

	// Register-in-opcode families.
	switch {
	case op >= byte(OpMovImm) && op < byte(OpMovImm)+NumRegs:
		if len(b) < 5 {
			return Instr{}, ErrTruncated
		}
		return Instr{Op: OpMovImm, R1: op - byte(OpMovImm), Imm: le32(b[1:]), Size: 5}, nil
	case op >= byte(OpPush) && op < byte(OpPush)+NumRegs:
		return Instr{Op: OpPush, R1: op - byte(OpPush), Size: 1}, nil
	case op >= byte(OpPop) && op < byte(OpPop)+NumRegs:
		return Instr{Op: OpPop, R1: op - byte(OpPop), Size: 1}, nil
	}

	f := opForms[op]
	if f == formUndef {
		return Instr{Op: Op(op), Size: 1}, ErrUndefined
	}
	in := Instr{Op: Op(op)}
	switch f {
	case formNone:
		in.Size = 1
		if in.Op == OpUndef || in.Op == OpInvalid {
			return in, ErrUndefined
		}
	case formRR:
		if len(b) < 3 {
			return Instr{}, ErrTruncated
		}
		in.R1, in.R2, in.Size = b[1], b[2], 3
		if in.R1 >= NumRegs || in.R2 >= NumRegs {
			return in, ErrUndefined
		}
	case formRI:
		if len(b) < 6 {
			return Instr{}, ErrTruncated
		}
		in.R1, in.Imm, in.Size = b[1], le32(b[2:]), 6
		if in.R1 >= NumRegs {
			return in, ErrUndefined
		}
	case formRI8:
		if len(b) < 3 {
			return Instr{}, ErrTruncated
		}
		in.R1, in.Imm, in.Size = b[1], uint32(b[2]), 3
		if in.R1 >= NumRegs {
			return in, ErrUndefined
		}
	case formMem:
		if len(b) < 7 {
			return Instr{}, ErrTruncated
		}
		in.R1, in.R2, in.Imm, in.Size = b[1], b[2], le32(b[3:]), 7
		if in.R1 >= NumRegs || in.R2 >= NumRegs {
			return in, ErrUndefined
		}
	case formRel:
		if len(b) < 5 {
			return Instr{}, ErrTruncated
		}
		in.Imm, in.Size = le32(b[1:]), 5
	case formReg:
		if len(b) < 2 {
			return Instr{}, ErrTruncated
		}
		in.R1, in.Size = b[1], 2
		if in.R1 >= NumRegs {
			return in, ErrUndefined
		}
	case formImm8:
		if len(b) < 2 {
			return Instr{}, ErrTruncated
		}
		in.Imm, in.Size = uint32(b[1]), 2
	}
	return in, nil
}

// Encode appends the encoding of in to dst and returns the extended slice.
// It is the inverse of Decode for well-formed instructions.
func Encode(dst []byte, in Instr) []byte {
	switch in.Op {
	case OpMovImm:
		return append(dst, byte(OpMovImm)+in.R1, byte(in.Imm), byte(in.Imm>>8), byte(in.Imm>>16), byte(in.Imm>>24))
	case OpPush:
		return append(dst, byte(OpPush)+in.R1)
	case OpPop:
		return append(dst, byte(OpPop)+in.R1)
	}
	f := opForms[in.Op]
	dst = append(dst, byte(in.Op))
	switch f {
	case formRR:
		dst = append(dst, in.R1, in.R2)
	case formRI:
		dst = append(dst, in.R1, byte(in.Imm), byte(in.Imm>>8), byte(in.Imm>>16), byte(in.Imm>>24))
	case formRI8:
		dst = append(dst, in.R1, byte(in.Imm))
	case formMem:
		dst = append(dst, in.R1, in.R2, byte(in.Imm), byte(in.Imm>>8), byte(in.Imm>>16), byte(in.Imm>>24))
	case formRel:
		dst = append(dst, byte(in.Imm), byte(in.Imm>>8), byte(in.Imm>>16), byte(in.Imm>>24))
	case formReg:
		dst = append(dst, in.R1)
	case formImm8:
		dst = append(dst, byte(in.Imm))
	}
	return dst
}

// Len returns the encoded length of in in bytes.
func Len(in Instr) int {
	switch in.Op {
	case OpMovImm:
		return 5
	case OpPush, OpPop:
		return 1
	}
	switch opForms[in.Op] {
	case formNone:
		return 1
	case formRR, formRI8:
		return 3
	case formRI:
		return 6
	case formMem:
		return 7
	case formRel:
		return 5
	case formReg, formImm8:
		return 2
	}
	return 1
}

// EncLen returns the full encoded length of an instruction from its first
// byte alone (every S86 opcode has a fixed length). ok is false for
// undefined opcode bytes.
func EncLen(first byte) (int, bool) {
	switch {
	case first >= byte(OpMovImm) && first < byte(OpMovImm)+NumRegs:
		return 5, true
	case first >= byte(OpPush) && first < byte(OpPop)+NumRegs:
		return 1, true
	}
	switch opForms[first] {
	case formNone:
		return 1, Op(first) != OpUndef && Op(first) != OpInvalid
	case formRR, formRI8:
		return 3, true
	case formRI:
		return 6, true
	case formMem:
		return 7, true
	case formRel:
		return 5, true
	case formReg, formImm8:
		return 2, true
	}
	return 1, false
}

// IsBranch reports whether op is a control-transfer instruction.
func (o Op) IsBranch() bool {
	switch o {
	case OpJb, OpJae, OpJbe, OpJa, OpJz, OpJnz, OpJle, OpJl, OpJge, OpJg,
		OpJmp, OpCall, OpJmpReg, OpCallReg, OpRet:
		return true
	}
	return false
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
