// Package trace provides a bounded execution-trace ring for the S86
// machine: the last N retired instructions with their addresses and
// cycle counts. The splitmem-run tool uses it for post-mortem listings of
// killed processes, and forensic tooling can attach it to enrich
// injection-detection reports with the instructions that led up to the
// hijack.
package trace

import (
	"fmt"
	"strings"

	"splitmem/internal/isa"
	"splitmem/internal/snapshot"
	"splitmem/internal/telemetry"
)

// Entry is one retired instruction.
type Entry struct {
	Cycles uint64
	EIP    uint32
	Instr  isa.Instr
}

// Ring is a bounded execution trace, a front end over telemetry.Ring: it
// keeps the last Cap retired instructions, its storage growing on demand,
// so a deep ring on a short run pays for the instructions it saw. The zero
// value is unusable; create one with NewRing.
type Ring struct {
	ring telemetry.Ring[Entry]
}

// NewRing creates a ring holding the last n entries (minimum 1).
func NewRing(n int) *Ring {
	return &Ring{ring: telemetry.NewRing[Entry](max(n, 1))}
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return r.ring.Cap() }

// Len returns the number of recorded entries (up to Cap).
func (r *Ring) Len() int { return r.ring.Len() }

// Add records one entry, evicting the oldest when full.
func (r *Ring) Add(e Entry) { r.ring.Push(e) }

// Reset clears the ring.
func (r *Ring) Reset() { r.ring.Reset() }

// Entries returns the recorded entries, oldest first.
func (r *Ring) Entries() []Entry { return r.ring.Items() }

// EntriesInto appends the recorded entries, oldest first, to dst and
// returns the extended slice. Unlike Entries it allocates only when dst
// lacks capacity, so repeat callers (the detection hot path) can reuse one
// scratch slice for the life of the ring.
func (r *Ring) EntriesInto(dst []Entry) []Entry { return r.ring.AppendTo(dst) }

// EncodeState serializes the ring as its capacity, then the entries it
// holds, oldest first: a checkpoint costs what the ring holds, not its
// capacity. A restored ring renders byte-identical listings and evicts in
// the same order.
func (r *Ring) EncodeState(w *snapshot.Writer) {
	w.U32(uint32(r.ring.Cap()))
	w.Int(r.ring.Len())
	r.ring.Each(func(e Entry) {
		w.U64(e.Cycles)
		w.U32(e.EIP)
		w.U8(uint8(e.Instr.Op))
		w.U8(e.Instr.R1)
		w.U8(e.Instr.R2)
		w.U32(e.Instr.Imm)
		w.Int(e.Instr.Size)
	})
}

// DecodeState restores state serialized by EncodeState into a ring of the
// same capacity. A failed decode leaves the ring unchanged.
func (r *Ring) DecodeState(rd *snapshot.Reader) error {
	n := r.ring.Cap()
	if c := rd.U32(); int(c) != n {
		return snapshot.Corruptf("trace: ring of %d entries, machine has %d", c, n)
	}
	held := rd.Int()
	if held < 0 || held > n {
		return snapshot.Corruptf("trace: %d entries in a ring of %d", held, n)
	}
	ring := telemetry.NewRing[Entry](n)
	for i := 0; i < held && rd.Err() == nil; i++ {
		var e Entry
		e.Cycles = rd.U64()
		e.EIP = rd.U32()
		e.Instr.Op = isa.Op(rd.U8())
		e.Instr.R1 = rd.U8()
		e.Instr.R2 = rd.U8()
		e.Instr.Imm = rd.U32()
		e.Instr.Size = rd.Int()
		ring.Push(e)
	}
	if err := rd.Err(); err != nil {
		return err
	}
	r.ring = ring
	return nil
}

// String renders the trace as a disassembly listing, oldest first.
func (r *Ring) String() string {
	return Listing(r.Entries())
}

// Listing renders entries as a disassembly listing, one instruction per
// line, oldest first.
func Listing(entries []Entry) string {
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "[%12d] %08x  %s\n", e.Cycles, e.EIP, e.Instr.DisasmAt(e.EIP))
	}
	return sb.String()
}
