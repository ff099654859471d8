package core

import (
	"testing"

	"splitmem/internal/mem"
)

// loopSrc loads from its data page forever, so after a TLB entry is
// dropped the next pass reloads it through the split trap path.
const loopSrc = `
_start:
    mov esi, datum
loop:
    load eax, [esi]
    jmp loop
.data
datum: .word 7
`

// TestTrapRoundTripAllocFree: one ITLB-load round trip (#PF, PTE repoint,
// single step, #DB, re-restrict) and one DTLB-load round trip (#PF, PTE
// repoint, TLB fill, re-restrict) each allocate nothing.
func TestTrapRoundTripAllocFree(t *testing.T) {
	k, eng := newSplitKernel(t, Config{})
	spawnSrc(t, k, loopSrc)
	m := k.Machine()
	code, _ := mustSym(t, loopSrc, "loop")
	data, _ := mustSym(t, loopSrc, "datum")
	const budget = 2000
	k.Run(budget) // spawn, first faults, warm-up
	for _, tc := range []struct {
		name  string
		drop  func()
		loads func() uint64
	}{
		{"itlb-load", func() { m.ITLB.Invalidate(code >> mem.PageShift) }, func() uint64 { return eng.Stats().CodeTLBLoads }},
		{"dtlb-load", func() { m.DTLB.Invalidate(data >> mem.PageShift) }, func() uint64 { return eng.Stats().DataTLBLoads }},
	} {
		before := tc.loads()
		allocs := testing.AllocsPerRun(100, func() {
			tc.drop()
			k.Run(budget)
		})
		if got := tc.loads() - before; got != 101 {
			t.Fatalf("%s: %d round trips in 101 runs", tc.name, got)
		}
		if allocs != 0 {
			t.Errorf("%s round trip allocated %.1f times", tc.name, allocs)
		}
	}
}
