package asm_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"splitmem/internal/asm"
	"splitmem/internal/attacks"
	"splitmem/internal/guest"
	"splitmem/internal/loader"
	"splitmem/internal/workloads"
)

// sameAssembly fails t unless asm.Assemble and the reference assembler
// agree on src: the same Marshal bytes, symbols and listing, or the same
// error text and line. Where the reference panics (a .section directive
// with an empty name), Assemble must report an error instead.
func sameAssembly(t *testing.T, name, src string) {
	t.Helper()
	got, gerr := asm.Assemble(src)
	want, werr, panicked := refAssemble(src)
	if panicked {
		if gerr == nil {
			t.Fatalf("%s: the reference panics but Assemble succeeds", name)
		}
		return
	}
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference error %v", name, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %q, reference %q", name, gerr, werr)
		}
		var ge, we *asm.Error
		if errors.As(gerr, &ge) != errors.As(werr, &we) || ge != nil && ge.Line != we.Line {
			t.Fatalf("%s: error %#v, reference %#v", name, gerr, werr)
		}
		return
	}
	gb, gmerr := got.Marshal()
	wb, wmerr := want.Marshal()
	if gmerr != nil || wmerr != nil || !bytes.Equal(gb, wb) {
		t.Fatalf("%s: Marshal output differs from the reference (errors %v, %v)", name, gmerr, wmerr)
	}
	if got.Entry != want.Entry || !maps.Equal(got.Symbols, want.Symbols) {
		t.Fatalf("%s: entry or symbols differ from the reference", name)
	}
	_, glist, _ := asm.AssembleListing(src)
	_, wlist, _ := asm.RefAssembleListing(src)
	if glist != wlist {
		t.Fatalf("%s: listing differs from the reference", name)
	}
}

// refAssemble runs the reference assembler, reporting a panic.
func refAssemble(src string) (p *loader.Program, err error, panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	p, err = asm.RefAssemble(src)
	return p, err, false
}

// corpusSnippets are the asm package's own test inputs.
var corpusSnippets = []string{
	"\n; exit(7)\n_start:\n    mov ebx, 7\n    mov eax, 1\n    int 0x80\n",
	"\n_start:\n    mov ecx, 10\nloop:\n    dec ecx\n    cmp ecx, 0\n    jnz loop\n    jmp done\ndone:\n    ret\n",
	"_start:\n    load eax, [ebp+8]\n    store [ebp-4], eax\n    lea esi, [edi+0x10]\n    loadb ecx, [ebx]\n    storeb [eax-1], edx\n",
	".data\nw: .word 1, 2, 0x10, w\nb: .byte 1, 'a', '\\n', -1\ns: .ascii \"ab,c\"\nz: .asciz \"q\\\"\\\\\"\nsp: .space 5, 0xff\n.text\n_start: ret\n",
	".equ A, 3\n.equ B, A*4+(2-1)\n_start:\n    mov eax, B\n    mov ebx, -A\n    mov ecx, 'x'\n",
	"_start: ret\n.data\n.byte 1\n.align 16\nx: .word 7\n",
	".section code2 0x0a000000 rx\nf: ret\n.section tbl 0x0b000000 rw\n.word f\n.text\n_start: call f\n",
	".entry main\nmain: ret\n",
	"_start:\n    jmp eax\n    jmp _start\n    call ebx\n    call _start\n",
	"\n; full line comment\n# hash comment\n_start: ret ; trailing\nmsg_holder:\n    mov eax, ';'  ; semicolon char literal\n",
	"_start: mov eax, 5\n",
	"a: b: c: ret\n",
	"_START:\n    MOV EAX, 1\n    Int 0x80\n",
	".text 0x1000\n_start: shl eax, 3\n shr ebx, 0x1f\n inc edx\n dec esi\n nop\n hlt\n int3\n ud\n",
	"_start:\n frob eax\n",
	"_start:\n mov eax, nosuch\n",
	"a:\na:\n ret\n",
	"_start:\n load eax, ebx\n",
	"_start:\n mov zax, 1\n",
	"_start:\n load eax, [ebp\n",
	"_start:\n int 0x1ff\n",
	".data\n.space NOPE\n",
	".data\n.align 3\n",
	".equ A, 1\n.equ A, 2\n_start: ret\n",
	".section foo\n ret\n",
	"_start:\n ret\n frob\n",
	"bogus instruction here\n",
	"_start:\n mov eax,\n",
	"_start:\n mov eax, [zz+4]\n",
	".word 1\n",
	".data\n.ascii \"unterminated\n",
	".data\n.ascii \"bad \\q escape\"\n",
	".entry nowhere\n_start: ret\n",
	"_start: shl eax, 0x100\n",
	".data\n.byte 0x1ff\n",
	"_start: mov eax, 0x1ffffffff\n",
	"_start: mov eax, (1+2\n",
	"_start:\r\n    mov eax, 1\r\n    ret\r\n",
	"_start:\tmov\teax,\t1\n\tret\n",
	"",
	".text 0x08048000\n.data 0x08048000\n.word 1\n_start: ret\n",
}

// trapStormLike is the shape of the ledger's trap-storm guest: equates,
// a code page chain in its own section, one stub per page padded with
// .align, and a .space working set.
func trapStormLike(pages int) string {
	var b strings.Builder
	fmt.Fprintf(&b, ".equ SYS_EXIT, 1\n.equ ITERS, %d\n_start:\n    mov ecx, ITERS\nloop:\n    push ecx\n    call touch\n    pop ecx\n    dec ecx\n    cmp ecx, 0\n    jnz loop\n    mov ebx, 0\n    mov eax, SYS_EXIT\n    int 0x80\ntouch:\n    mov esi, warr\n    jmp stub0\ntouch_next:\n    ret\n.section stubs 0x0a000000 rx\n", pages)
	for i := 0; i < pages; i++ {
		next := fmt.Sprintf("stub%d", i+1)
		if i == pages-1 {
			next = "touch_next"
		}
		fmt.Fprintf(&b, "stub%d:\n    load eax, [esi]\n    add eax, 1\n    store [esi], eax\n    add esi, 4096\n    jmp %s\n.align 4096\n", i, next)
	}
	fmt.Fprintf(&b, ".data\ntok:   .ascii \"ping\"\ntok2:  .space 4\n.section ws 0x09000000 rw\nwarr:  .space %d\n", pages*4096)
	return b.String()
}

// TestAssembleDifferential holds the assembler to the reference on every
// program the repository assembles: the workload catalog, the C runtime,
// every Wilander victim with and without the runtime, trap-storm, spin and
// gzip-size variants, and the package's own test inputs.
func TestAssembleDifferential(t *testing.T) {
	srcs := map[string]string{"crt": "_start: ret\n" + guest.CRT}
	for _, p := range workloads.Catalog() {
		srcs["catalog/"+p.Name] = p.Src
		srcs["catalog-crt/"+p.Name] = guest.WithCRT(p.Src)
	}
	for _, tech := range attacks.Techniques() {
		for _, seg := range attacks.Segments() {
			src, _, err := attacks.OneShot(tech, seg)
			if err != nil {
				t.Fatal(err)
			}
			srcs[fmt.Sprintf("victim/%d-%d", tech, seg)] = guest.WithCRT(src)
			srcs[fmt.Sprintf("victim-bare/%d-%d", tech, seg)] = src
		}
	}
	for _, pages := range []int{8, 18, 28, 38, 48} {
		srcs[fmt.Sprintf("trap-storm/%d", pages)] = trapStormLike(pages)
	}
	for _, n := range []int{10_000, 80_000} {
		srcs[fmt.Sprintf("spin/%d", n)] = fmt.Sprintf("_start:\n    mov ecx, %d\nspin:\n    sub ecx, 1\n    cmp ecx, 0\n    jnz spin\n    mov ebx, 0\n    mov eax, 1\n    int 0x80\n", n)
	}
	gz, ok := workloads.Lookup("gzip")
	if !ok {
		t.Fatal("gzip missing from the catalog")
	}
	for _, n := range []int{768 << 10, 1 << 20} {
		srcs[fmt.Sprintf("gzip/%d", n)] = strings.Replace(gz.Src, "g_srcsize: .word 1048576", fmt.Sprintf("g_srcsize: .word %d", n), 1)
	}
	for i, s := range corpusSnippets {
		srcs[fmt.Sprintf("snippet/%d", i)] = s
	}
	for name, src := range srcs {
		sameAssembly(t, name, src)
	}
}

// FuzzAssembleDifferential holds the assembler to the reference on
// arbitrary source.
func FuzzAssembleDifferential(f *testing.F) {
	for _, s := range corpusSnippets {
		f.Add(s)
	}
	f.Add(trapStormLike(2))
	f.Add("_start:\n mov eax, esİ\n load eax, [ESİ+1]\n MOV\u00a0eax, 1\n\u0085ret\u2028\n")
	f.Fuzz(func(t *testing.T, src string) {
		if asm.EmittedBytes(src) > 1<<20 {
			t.Skip("emits over 1 MiB")
		}
		sameAssembly(t, "fuzz", src)
	})
}
