package asm

// Reference assembler and fuzz guard for the external differential tests.
var (
	RefAssemble        = refAssemble
	RefAssembleListing = refAssembleListing
)

// EmittedBytes parses and lays out src and returns the bytes its data and
// instructions would emit (0 when either pass fails), so a fuzz target can
// skip sources whose .space or .align would allocate gigabytes.
func EmittedBytes(src string) uint64 {
	a := &assembler{cur: -1}
	if a.parse(src) != nil || a.layout() != nil {
		return 0
	}
	var n uint64
	for i := range a.stmts {
		n += uint64(a.stmts[i].size)
	}
	return n
}
