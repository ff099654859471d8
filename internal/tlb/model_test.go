package tlb

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"splitmem/internal/snapshot"
)

// Encoded layout offsets (EncodeState): a 44-byte header, then 20 bytes per
// slot starting with its valid flag and vpn.
const (
	encHeader = 4 + 5*8
	encSlot   = 1 + 4 + 4 + 3 + 8
)

func encodeTLB(enc func(*snapshot.Writer)) []byte {
	w := snapshot.NewWriter()
	enc(w)
	return w.Bytes()
}

// modelVPNs builds the working set an op stream draws from. The mode picks
// the shape: consecutive pages, pages that all share one hint cell, pairs
// of pages sharing a cell, or scattered 32-bit values.
func modelVPNs(mode, n int, hintLen uint32) []uint32 {
	vpns := make([]uint32, n)
	for k := range vpns {
		u := uint32(k)
		switch mode {
		case 0:
			vpns[k] = 0x08048 + u
		case 1:
			vpns[k] = 0x08048 + u*hintLen
		case 2:
			vpns[k] = 0xbffff - u/2 - u%2*hintLen
		default:
			vpns[k] = u * 0x9E3779B1
		}
	}
	return vpns
}

// The ops of a model stream. Lookups and fills dominate, as on a real
// machine, and the whole-TLB ops (flushes, encoded round trips, corrupt
// images) each take one op byte value of 256, so the TLB fills up and
// evicts by LRU between them.
const (
	opLookup = iota
	opInsert
	opInvalidate
	opSlot
	opProbe
	opEvictNth
	opFlush
	opFlushRetaining
	opRoundTrip
	opDuplicate
)

var opMix = [...]int{
	opLookup, opLookup, opLookup, opLookup, opLookup, opLookup,
	opInsert, opInsert, opInsert, opInsert, opInsert, opInsert,
	opInvalidate, opSlot, opSlot, opProbe, opEvictNth,
}

func modelOp(b byte) int {
	if b >= 256-4 {
		return opFlush + int(b-(256-4))
	}
	return opMix[int(b)%len(opMix)]
}

// FuzzTLBModel drives one op stream through the hint-table TLB and the
// map-indexed reference model and requires identical return values,
// counters, valid counts and encoded state after every op. The first byte
// picks the capacity (32 or 64), the working-set size (smaller and larger
// than capacity) and its shape; each later byte pair is one op (modelOp)
// and its argument.
func FuzzTLBModel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		b := make([]byte, 1+2*1000)
		rng.Read(b)
		b[0] = byte(i)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := data[0]
		size := 32
		if cfg&1 != 0 {
			size = 64
		}
		setSizes := [...]int{8, 24, 48, 96}
		got, want := New(size), newRef(size)
		vpns := modelVPNs(int(cfg>>3)&3, setSizes[(cfg>>1)&3], uint32(len(got.hint)))

		for p := 1; p+1 < len(data); p += 2 {
			op, arg := modelOp(data[p]), data[p+1]
			vpn := vpns[int(arg)%len(vpns)]
			switch op {
			case opLookup:
				ge, gok := got.Lookup(vpn)
				we, wok := want.Lookup(vpn)
				if ge != we || gok != wok {
					t.Fatalf("op %d Lookup(%#x) = %+v,%v want %+v,%v", p, vpn, ge, gok, we, wok)
				}
			case opInsert:
				e := Entry{Frame: uint32(arg) * 7, User: arg&1 != 0, Writable: arg&2 != 0, NoExec: arg&4 != 0}
				got.Insert(vpn, e)
				want.Insert(vpn, e)
			case opInvalidate:
				got.Invalidate(vpn)
				want.Invalidate(vpn)
			case opFlush:
				got.Flush()
				want.Flush()
			case opFlushRetaining:
				retain := func(v uint32) bool { return (v+uint32(arg))%3 == 0 }
				if g, w := got.FlushRetaining(retain), want.FlushRetaining(retain); g != w {
					t.Fatalf("op %d FlushRetaining kept %d want %d", p, g, w)
				}
			case opEvictNth:
				n := int(arg)%(size+2) - 1
				gv, gok := got.EvictNth(n)
				wv, wok := want.EvictNth(n)
				if gv != wv || gok != wok {
					t.Fatalf("op %d EvictNth(%d) = %#x,%v want %#x,%v", p, n, gv, gok, wv, wok)
				}
			case opSlot:
				gi, gok := got.Slot(vpn)
				wi, wok := want.Slot(vpn)
				if gi != wi || gok != wok {
					t.Fatalf("op %d Slot(%#x) = %d,%v want %d,%v", p, vpn, gi, gok, wi, wok)
				}
				if gok {
					for j := 0; j <= int(arg)%3; j++ {
						got.TouchSlot(gi)
						want.TouchSlot(wi)
					}
				}
			case opProbe:
				ge, gok := got.Probe(vpn)
				we, wok := want.Probe(vpn)
				if ge != we || gok != wok {
					t.Fatalf("op %d Probe(%#x) = %+v,%v want %+v,%v", p, vpn, ge, gok, we, wok)
				}
			case opRoundTrip:
				// Encode→Decode round trip into fresh TLBs, which carry on.
				g2, w2 := New(size), newRef(size)
				if err := g2.DecodeState(snapshot.NewReader(encodeTLB(got.EncodeState))); err != nil {
					t.Fatalf("op %d round trip: %v", p, err)
				}
				if err := w2.DecodeState(snapshot.NewReader(encodeTLB(want.EncodeState))); err != nil {
					t.Fatalf("op %d reference round trip: %v", p, err)
				}
				got, want = g2, w2
			case opDuplicate:
				// A corrupt image caching one vpn in two valid slots: both
				// decoders must reject it.
				img := encodeTLB(want.EncodeState)
				src, dst := int(arg)%size, (int(arg)/size+1+int(arg))%size
				if src == dst {
					dst = (dst + 1) % size
				}
				so, do := encHeader+src*encSlot, encHeader+dst*encSlot
				img[so], img[do] = 1, 1
				binary.LittleEndian.PutUint32(img[do+1:], binary.LittleEndian.Uint32(img[so+1:]))
				gerr := New(size).DecodeState(snapshot.NewReader(img))
				werr := newRef(size).DecodeState(snapshot.NewReader(img))
				if gerr == nil || werr == nil {
					t.Fatalf("op %d duplicate vpn accepted: got %v, reference %v", p, gerr, werr)
				}
			}
			gh, gm, ge, gf := got.Stats()
			wh, wm, we, wf := want.Stats()
			if gh != wh || gm != wm || ge != we || gf != wf {
				t.Fatalf("op %d (%d) stats %d/%d/%d/%d want %d/%d/%d/%d", p, op, gh, gm, ge, gf, wh, wm, we, wf)
			}
			if g, w := got.Valid(), want.Valid(); g != w {
				t.Fatalf("op %d (%d) Valid = %d want %d", p, op, g, w)
			}
			if g, w := encodeTLB(got.EncodeState), encodeTLB(want.EncodeState); !bytes.Equal(g, w) {
				t.Fatalf("op %d (%d) encoded state differs from the reference", p, op)
			}
		}
	})
}
