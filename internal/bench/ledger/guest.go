package main

import (
	"fmt"
	"strings"

	"splitmem/internal/workloads"
)

// trapStormSource is the trap-storm guest: two processes ping-pong a 4-byte
// token through a pair of pipes, and between switches each one walks a chain
// of `pages` code stubs, one stub per code page, each bumping one word on its
// own data page. The chain is walked twice per switch, so a working set above
// the 32-entry ITLB thrashes it (LRU over a cyclic walk misses every time)
// while everything stays inside the 64-entry DTLB. Every switch flushes both
// TLBs, so each turn re-splits the whole working set through the trap path.
func trapStormSource(pages, iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `.equ SYS_EXIT, 1
.equ SYS_FORK, 2
.equ SYS_READ, 3
.equ SYS_WRITE, 4
.equ SYS_WAITPID, 7
.equ SYS_PIPE, 42
.equ ITERS, %d
_start:
    mov ebx, ab
    mov eax, SYS_PIPE
    int 0x80
    mov ebx, ba
    mov eax, SYS_PIPE
    int 0x80
    mov eax, SYS_FORK
    int 0x80
    cmp eax, 0
    jz child
    mov ecx, ITERS
parent_loop:
    push ecx
    call touch
    mov esi, ab
    load ebx, [esi+4]
    mov ecx, tok
    mov edx, 4
    mov eax, SYS_WRITE
    int 0x80
    mov esi, ba
    load ebx, [esi]
    mov ecx, tok
    mov edx, 4
    mov eax, SYS_READ
    int 0x80
    pop ecx
    dec ecx
    cmp ecx, 0
    jnz parent_loop
    mov esi, ab
    load ebx, [esi+4]
    mov ecx, quitt
    mov edx, 4
    mov eax, SYS_WRITE
    int 0x80
    mov ebx, -1
    mov ecx, 0
    mov eax, SYS_WAITPID
    int 0x80
    mov ebx, 0
    mov eax, SYS_EXIT
    int 0x80
child:
    mov esi, ab
    load ebx, [esi]
    mov ecx, tok2
    mov edx, 4
    mov eax, SYS_READ
    int 0x80
    mov ecx, tok2
    loadb eax, [ecx]
    cmp eax, 'Q'
    jz child_done
    call touch
    mov esi, ba
    load ebx, [esi+4]
    mov ecx, tok2
    mov edx, 4
    mov eax, SYS_WRITE
    int 0x80
    jmp child
child_done:
    mov ebx, 0
    mov eax, SYS_EXIT
    int 0x80
touch:
    mov edx, 2
touch_pass:
    mov esi, warr
    jmp stub0
touch_next:
    dec edx
    cmp edx, 0
    jnz touch_pass
    ret
.section stubs 0x0a000000 rx
`, iters)
	for i := 0; i < pages; i++ {
		next := fmt.Sprintf("stub%d", i+1)
		if i == pages-1 {
			next = "touch_next"
		}
		fmt.Fprintf(&b, `stub%d:
    load eax, [esi]
    add eax, 1
    store [esi], eax
    add esi, 4096
    jmp %s
.align 4096
`, i, next)
	}
	fmt.Fprintf(&b, `.data
ab:    .word 0, 0
ba:    .word 0, 0
tok:   .ascii "ping"
tok2:  .space 4
quitt: .ascii "QUIT"
.section ws 0x09000000 rw
warr:  .space %d
`, pages*4096)
	return b.String()
}

// spinSource is a short busy loop: the serve-open benign job, cheap enough
// that admission, journal and fork costs dominate its latency.
func spinSource(iters int) string {
	return fmt.Sprintf(`_start:
    mov ecx, %d
spin:
    sub ecx, 1
    cmp ecx, 0
    jnz spin
    mov ebx, 0
    mov eax, 1
    int 0x80
`, iters)
}

// gzipSource is the catalog gzip workload compressing srcBytes instead of
// its built-in 1 MiB: the input size sets how many pages a job dirties, and
// so how large its checkpoints grow.
func gzipSource(srcBytes int) (string, error) {
	prog, ok := workloads.Lookup("gzip")
	if !ok {
		return "", fmt.Errorf("gzip workload missing from the catalog")
	}
	const size = "g_srcsize: .word 1048576"
	if !strings.Contains(prog.Src, size) {
		return "", fmt.Errorf("gzip source no longer declares %q", size)
	}
	return strings.Replace(prog.Src, size, fmt.Sprintf("g_srcsize: .word %d", srcBytes), 1), nil
}
