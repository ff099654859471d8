package isa

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateOpcodes = flag.Bool("update", false, "rewrite testdata/opcodes.golden from current behaviour")

// opcodeTable renders what EncLen, Name and Decode make of every first
// byte: one line per byte, decoding a full window with valid register
// operands, a full window with out-of-range registers, and the lone byte.
func opcodeTable() string {
	var b strings.Builder
	for i := 0; i < 256; i++ {
		first := byte(i)
		n, ok := EncLen(first)
		fmt.Fprintf(&b, "%02x enclen=%d,%v name=%s", first, n, ok, Op(first).Name())
		for _, win := range [][]byte{
			{first, 1, 2, 3, 4, 5, 6},
			{first, 9, 9, 0xff, 0xff, 0xff, 0xff},
			{first},
		} {
			in, err := Decode(win)
			fmt.Fprintf(&b, " | op=%02x r1=%d r2=%d imm=%#x size=%d err=%v", byte(in.Op), in.R1, in.R2, in.Imm, in.Size, err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestOpcodeTablePinned pins EncLen, Name and Decode over all 256 first
// bytes to the committed table, so the opcode tables behind them can change
// representation without changing a single answer.
func TestOpcodeTablePinned(t *testing.T) {
	const golden = "testdata/opcodes.golden"
	got := opcodeTable()
	if *updateOpcodes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("table has %d lines, golden %d", len(gl), len(wl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("byte %#02x:\n got %s\nwant %s", i, gl[i], wl[i])
		}
	}
}
