package splitmem_test

// FuzzSuperblockInvalidation: differential fuzzing of the superblock
// engine's invalidation machinery. Each fuzz input deterministically
// generates an S86 program whose hot loops rewrite their own instruction
// bytes (imm-byte patches at three sites: inside and outside the inner
// loop, and in a callee on the next page that the inner loop calls, so
// chained blocks both cross pages and stay on one), optionally
// under chaos injection (TLB flushes bump the decode epoch, bit flips bump
// write generations mid-block). The program runs under ProtNone (where
// self-modification really changes the fetched bytes) and ProtSplit (where
// stores land in the data twin and the split engine's restriction
// machinery drives invalidation), each with superblocks on and off — and
// the two engine arms must retire identical instruction streams, cycles,
// stats and event logs. Any divergence is a stale compiled block executing
// bytes the guest already overwrote.

import (
	"fmt"
	"strings"
	"testing"

	"splitmem"
	"splitmem/internal/workloads"
)

// sbFuzzOps is the arithmetic menu the generator draws inner-loop bodies
// from. Every entry is total (no traps, no memory) so generated programs
// always terminate.
var sbFuzzOps = []string{
	"add eax, 3",
	"sub eax, 1",
	"xor eax, ebx",
	"or ebx, 5",
	"and eax, 0xFFFF",
	"mul ebx, 3",
	"shl eax, 1",
	"shr ebx, 1",
	"add eax, ebx",
	"mov edx, eax",
}

// sbFuzzProgram derives a self-modifying hot-loop program from fuzz bytes.
// Loop counts stay above the hotness threshold so blocks compile, and the
// patched bytes are always instruction immediates, so every mutation decodes
// cleanly and the program reaches its exit syscall.
func sbFuzzProgram(data []byte) string {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	outer := 17 + at(0)%24
	inner := 17 + at(1)%12
	nops := 2 + at(2)%5
	var ops strings.Builder
	for i := 0; i < nops; i++ {
		fmt.Fprintf(&ops, "    %s\n", sbFuzzOps[at(3+i)%len(sbFuzzOps)])
	}
	// Patch target: the low imm byte of `site` (mov edx, imm32: imm at
	// offset 1), of `body` or of `far` (add reg, imm32: imm at offset 2).
	// The second rewrites the hot inner loop itself, forcing a reheat per
	// outer pass; the third rewrites the cross-page callee the inner loop
	// chains into and back out of.
	target := [...]string{"site+1", "body+2", "far+2"}[at(3+nops)%3]
	return fmt.Sprintf(`
.section code 0x08048000 rwx
.entry _start
_start:
    mov esi, %d
    mov edi, 0
outer:
    mov ecx, %d
body:
    add eax, 17
%s    call far
    sub ecx, 1
    jnz body
    mov ebx, %s
    mov eax, esi
    storeb [ebx], eax
site:
    mov edx, 0x11
    add edi, edx
    sub esi, 1
    jnz outer
    and edi, 63
    mov ebx, edi
    mov eax, 1
    int 0x80
.align 4096
far:
    add ebx, 3
    ret
`, outer, inner, ops.String(), target)
}

func FuzzSuperblockInvalidation(f *testing.F) {
	f.Add([]byte{})                           // minimal: fixed counts, site patch
	f.Add([]byte{7, 3, 4, 1, 2, 9, 0x40})     // mixed ops, body patch
	f.Add([]byte{255, 0, 1, 8, 8, 8, 8, 1})   // max outer, uniform body
	f.Add([]byte("superblocks"))              // chaos arm (odd last byte)
	f.Add([]byte{0, 11, 6, 5, 4, 3, 2, 1, 3}) // chaos arm, body patch

	f.Fuzz(func(t *testing.T, data []byte) {
		prog := workloads.Program{Name: "sbfuzz", Src: sbFuzzProgram(data)}
		var chaos splitmem.ChaosConfig
		if len(data) > 0 && data[len(data)-1]%2 == 1 {
			// Epoch bumps (flush), TLB churn and mid-block write-generation
			// bumps (bit flips), drawn from a seed the fuzzer controls.
			chaos = splitmem.ChaosConfig{
				Seed:      0x5B ^ uint64(data[0])<<8 ^ uint64(len(data)),
				TLBFlush:  0.002,
				ITLBEvict: 0.01,
				BitFlip:   0.0005,
			}
		}
		for _, prot := range []splitmem.Protection{splitmem.ProtNone, splitmem.ProtSplit} {
			cfg := splitmem.Config{Protection: prot, Paranoid: true, Chaos: chaos}
			on := runWorkload(t, prog, cfg)
			offCfg := cfg
			offCfg.NoSuperblocks = true
			off := runWorkload(t, prog, offCfg)
			compareDigests(t, fmt.Sprintf("sbfuzz/%v", prot), on, off)
		}
	})
}
