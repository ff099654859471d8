package asm

import (
	"strings"
	"testing"

	"splitmem/internal/isa"
	"splitmem/internal/loader"
)

func assemble(t *testing.T, src string) *loader.Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func textSection(t *testing.T, p *loader.Program) *loader.Section {
	t.Helper()
	for i := range p.Sections {
		if p.Sections[i].Name == ".text" {
			return &p.Sections[i]
		}
	}
	t.Fatal("no .text section")
	return nil
}

func TestBasicProgram(t *testing.T) {
	p := assemble(t, `
; exit(7)
_start:
    mov ebx, 7
    mov eax, 1
    int 0x80
`)
	txt := textSection(t, p)
	if txt.Addr != DefaultTextAddr {
		t.Errorf("text at %#x", txt.Addr)
	}
	if p.Entry != DefaultTextAddr {
		t.Errorf("entry %#x", p.Entry)
	}
	want := []byte{0xbb, 7, 0, 0, 0, 0xb8, 1, 0, 0, 0, 0xcd, 0x80}
	if string(txt.Data) != string(want) {
		t.Errorf("code:\n got % x\nwant % x", txt.Data, want)
	}
}

func TestLabelsAndBranches(t *testing.T) {
	p := assemble(t, `
_start:
    mov ecx, 10
loop:
    dec ecx
    cmp ecx, 0
    jnz loop
    jmp done
done:
    ret
`)
	txt := textSection(t, p)
	// Verify the jnz displacement: decode instructions and check targets.
	var addr uint32 = txt.Addr
	code := txt.Data
	loopAddr, _ := p.Symbol("loop")
	doneAddr, _ := p.Symbol("done")
	found := 0
	for len(code) > 0 {
		in, err := isa.Decode(code)
		if err != nil {
			t.Fatalf("decode at %#x: %v", addr, err)
		}
		switch in.Op {
		case isa.OpJnz:
			if got := addr + uint32(in.Size) + in.Imm; got != loopAddr {
				t.Errorf("jnz target %#x want %#x", got, loopAddr)
			}
			found++
		case isa.OpJmp:
			if got := addr + uint32(in.Size) + in.Imm; got != doneAddr {
				t.Errorf("jmp target %#x want %#x", got, doneAddr)
			}
			found++
		}
		addr += uint32(in.Size)
		code = code[in.Size:]
	}
	if found != 2 {
		t.Errorf("found %d branches", found)
	}
}

func TestMemoryOperands(t *testing.T) {
	p := assemble(t, `
_start:
    load eax, [ebp+8]
    store [ebp-4], eax
    loadb ecx, [esi]
    storeb [edi+1], edx
    lea esi, [esp+16]
`)
	txt := textSection(t, p)
	ins := decodeAll(t, txt.Data)
	if ins[0].Op != isa.OpLoad || ins[0].R1 != isa.EAX || ins[0].R2 != isa.EBP || ins[0].Imm != 8 {
		t.Errorf("load: %+v", ins[0])
	}
	if ins[1].Op != isa.OpStore || ins[1].R1 != isa.EBP || ins[1].R2 != isa.EAX || int32(ins[1].Imm) != -4 {
		t.Errorf("store: %+v", ins[1])
	}
	if ins[2].Op != isa.OpLoadB || ins[2].Imm != 0 {
		t.Errorf("loadb: %+v", ins[2])
	}
	if ins[3].Op != isa.OpStoreB || ins[3].R1 != isa.EDI || ins[3].Imm != 1 {
		t.Errorf("storeb: %+v", ins[3])
	}
	if ins[4].Op != isa.OpLea || ins[4].R2 != isa.ESP || ins[4].Imm != 16 {
		t.Errorf("lea: %+v", ins[4])
	}
}

func decodeAll(t *testing.T, code []byte) []isa.Instr {
	t.Helper()
	var out []isa.Instr
	for len(code) > 0 {
		in, err := isa.Decode(code)
		if err != nil {
			t.Fatalf("decode: %v (% x)", err, code)
		}
		out = append(out, in)
		code = code[in.Size:]
	}
	return out
}

func TestDataDirectives(t *testing.T) {
	p := assemble(t, `
.text
_start:
    ret
.data
msg:    .asciz "hi\n"
raw:    .ascii "ab"
words:  .word 1, 0x10, msg
bytes:  .byte 'A', 'B', 0
gap:    .space 4, 0xff
after:  .byte 1
`)
	var data *loader.Section
	for i := range p.Sections {
		if p.Sections[i].Name == ".data" {
			data = &p.Sections[i]
		}
	}
	if data == nil {
		t.Fatal("no data section")
	}
	msg, _ := p.Symbol("msg")
	if msg != DefaultDataAddr {
		t.Errorf("msg at %#x", msg)
	}
	want := []byte{'h', 'i', '\n', 0, 'a', 'b',
		1, 0, 0, 0, 0x10, 0, 0, 0, 0, 0, 6, 8, // msg = 0x08060000 LE
		'A', 'B', 0,
		0xff, 0xff, 0xff, 0xff,
		1}
	if string(data.Data) != string(want) {
		t.Errorf("data:\n got % x\nwant % x", data.Data, want)
	}
	after, _ := p.Symbol("after")
	if after != DefaultDataAddr+uint32(len(want))-1 {
		t.Errorf("after at %#x", after)
	}
}

func TestEquAndExpressions(t *testing.T) {
	p := assemble(t, `
.equ SYS_EXIT, 1
.equ BUFSZ, 16*4
_start:
    mov eax, SYS_EXIT
    mov ecx, BUFSZ+2
    mov edx, -1
    mov ebx, (2+3)*4
`)
	ins := decodeAll(t, textSection(t, p).Data)
	wants := []uint32{1, 66, 0xffffffff, 20}
	for i, w := range wants {
		if ins[i].Imm != w {
			t.Errorf("instr %d imm=%#x want %#x", i, ins[i].Imm, w)
		}
	}
}

func TestAlign(t *testing.T) {
	p := assemble(t, `
_start: ret
.data
a: .byte 1
.align 8
b: .byte 2
`)
	b, _ := p.Symbol("b")
	if b != DefaultDataAddr+8 {
		t.Errorf("b at %#x", b)
	}
}

func TestCustomSectionMixed(t *testing.T) {
	p := assemble(t, `
.text
_start: ret
.section mixed 0x08070000 rwx
code_and_data:
    mov eax, 1
value: .word 42
`)
	var sec *loader.Section
	for i := range p.Sections {
		if p.Sections[i].Name == "mixed" {
			sec = &p.Sections[i]
		}
	}
	if sec == nil {
		t.Fatal("no mixed section")
	}
	if !sec.Mixed() {
		t.Error("section should be rwx (mixed)")
	}
	if sec.Addr != 0x08070000 {
		t.Errorf("addr %#x", sec.Addr)
	}
}

func TestEntryDirective(t *testing.T) {
	p := assemble(t, `
.entry main
helper:
    ret
main:
    ret
`)
	main, _ := p.Symbol("main")
	if p.Entry != main {
		t.Errorf("entry %#x want %#x", p.Entry, main)
	}
}

func TestJmpRegVsLabel(t *testing.T) {
	p := assemble(t, `
_start:
    jmp eax
    call edx
    call _start
`)
	ins := decodeAll(t, textSection(t, p).Data)
	if ins[0].Op != isa.OpJmpReg || ins[0].R1 != isa.EAX {
		t.Errorf("jmp eax: %+v", ins[0])
	}
	if ins[1].Op != isa.OpCallReg || ins[1].R1 != isa.EDX {
		t.Errorf("call edx: %+v", ins[1])
	}
	if ins[2].Op != isa.OpCall {
		t.Errorf("call label: %+v", ins[2])
	}
}

func TestErrors(t *testing.T) {
	bad := map[string]string{
		"unknown mnemonic":   "_start:\n frob eax\n",
		"undefined symbol":   "_start:\n mov eax, nosuch\n",
		"duplicate label":    "a:\na:\n ret\n",
		"bad operands":       "_start:\n load eax, ebx\n",
		"bad register":       "_start:\n mov zax, 1\n",
		"unterminated mem":   "_start:\n load eax, [ebp\n",
		"int vector too big": "_start:\n int 0x1ff\n",
		"space undefined":    ".data\n.space NOPE\n",
		"align non-pow2":     ".data\n.align 3\n",
		"duplicate equ":      ".equ A, 1\n.equ A, 2\n_start: ret\n",
		"section no addr":    ".section foo\n ret\n",
		"section no name":    ".section ,\n ret\n",
	}
	for name, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCommentStyles(t *testing.T) {
	p := assemble(t, `
; full line comment
# hash comment
_start: ret ; trailing
msg_holder:
    mov eax, ';'  ; semicolon char literal
`)
	ins := decodeAll(t, textSection(t, p).Data)
	if len(ins) != 2 || ins[1].Imm != uint32(';') {
		t.Errorf("instrs: %+v", ins)
	}
	_ = p
}

func TestLabelOnSameLine(t *testing.T) {
	p := assemble(t, "_start: mov eax, 5\n")
	ins := decodeAll(t, textSection(t, p).Data)
	if len(ins) != 1 || ins[0].Imm != 5 {
		t.Errorf("instrs: %+v", ins)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := assemble(t, `
_start:
    mov eax, 1
    int 0x80
.data
msg: .asciz "hello"
`)
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := loader.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Entry != p.Entry || len(q.Sections) != len(p.Sections) {
		t.Fatal("round trip mismatch")
	}
	for i := range p.Sections {
		if p.Sections[i].Name != q.Sections[i].Name ||
			p.Sections[i].Addr != q.Sections[i].Addr ||
			string(p.Sections[i].Data) != string(q.Sections[i].Data) {
			t.Fatalf("section %d differs", i)
		}
	}
	if q.Symbols["msg"] != p.Symbols["msg"] {
		t.Fatal("symbols differ")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustAssemble("bogus instruction here\n")
}

func TestLineNumbersInErrors(t *testing.T) {
	_, err := Assemble("_start:\n ret\n frob\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should cite line 3: %v", err)
	}
}
