package asm_test

import (
	"testing"

	"splitmem/internal/asm"
	"splitmem/internal/attacks"
	"splitmem/internal/guest"
)

// BenchmarkAssemble assembles one CRT-linked Wilander victim (about 11 KB
// of source), the program a detonation job assembles at admission.
func BenchmarkAssemble(b *testing.B) {
	src, _, err := attacks.OneShot(attacks.TechRet, attacks.SegStack)
	if err != nil {
		b.Fatal(err)
	}
	src = guest.WithCRT(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}
