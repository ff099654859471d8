package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"splitmem/internal/snapshot"
)

func TestNewPhysicalValidation(t *testing.T) {
	tests := []struct {
		size int
		ok   bool
	}{
		{0, false},
		{-4096, false},
		{100, false},
		{PageSize, true},
		{16 * PageSize, true},
	}
	for _, tt := range tests {
		_, err := NewPhysical(tt.size)
		if (err == nil) != tt.ok {
			t.Errorf("NewPhysical(%d): err=%v, want ok=%v", tt.size, err, tt.ok)
		}
	}
}

func TestAllocFreeCycle(t *testing.T) {
	p, err := NewPhysical(8 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreeFrames() != 7 { // frame 0 reserved
		t.Fatalf("free=%d want 7", p.FreeFrames())
	}
	var frames []uint32
	for i := 0; i < 7; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if f == 0 {
			t.Fatal("allocated reserved frame 0")
		}
		frames = append(frames, f)
	}
	if _, err := p.Alloc(); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
	for _, f := range frames {
		p.Free(f)
	}
	if p.FreeFrames() != 7 {
		t.Fatalf("free=%d after freeing all", p.FreeFrames())
	}
}

func TestAllocReturnsZeroedFrame(t *testing.T) {
	p, _ := NewPhysical(4 * PageSize)
	f, _ := p.Alloc()
	fr := p.Frame(f)
	for i := range fr {
		fr[i] = 0xAA
	}
	p.Free(f)
	f2, _ := p.Alloc()
	if f2 != f {
		// The free list is a stack, so we should get the same frame back.
		t.Logf("got different frame %d (was %d); still verifying zeroing", f2, f)
	}
	for i, b := range p.Frame(f2) {
		if b != 0 {
			t.Fatalf("byte %d = %#x, frame not zeroed", i, b)
		}
	}
}

func TestRefcounts(t *testing.T) {
	p, _ := NewPhysical(4 * PageSize)
	f, _ := p.Alloc()
	p.IncRef(f)
	if p.RefCount(f) != 2 {
		t.Fatalf("refcount=%d", p.RefCount(f))
	}
	p.Free(f)
	if p.RefCount(f) != 1 {
		t.Fatalf("refcount=%d after one free", p.RefCount(f))
	}
	free := p.FreeFrames()
	p.Free(f)
	if p.FreeFrames() != free+1 {
		t.Fatal("frame not returned to free list")
	}
}

func TestRefcountMisuseContained(t *testing.T) {
	p, _ := NewPhysical(4 * PageSize)
	var hooked []error
	p.FaultHook = func(err error) { hooked = append(hooked, err) }
	for name, fn := range map[string]func() error{
		"free unallocated":   func() error { return p.Free(2) },
		"incref unallocated": func() error { return p.IncRef(2) },
		"free frame 0":       func() error { return p.Free(0) },
	} {
		err := fn()
		if err == nil {
			t.Errorf("%s: expected FrameError", name)
			continue
		}
		if _, ok := err.(*FrameError); !ok {
			t.Errorf("%s: got %T, want *FrameError", name, err)
		}
	}
	if p.Faults() != 3 || len(hooked) != 3 {
		t.Fatalf("faults=%d hooked=%d, want 3 each", p.Faults(), len(hooked))
	}
	// Misuse must not disturb allocator state.
	if p.RefCount(0) != 1 || p.RefCount(2) != 0 {
		t.Fatal("refcounts disturbed by contained misuse")
	}
}

func TestPoisonFrameContainment(t *testing.T) {
	p, _ := NewPhysical(4 * PageSize)
	fr := p.Frame(99) // out of range
	if len(fr) != PageSize {
		t.Fatalf("poison frame len=%d", len(fr))
	}
	fr[0] = 0xFF // writable scratch; must not touch real memory
	if p.Byte(0) != 0 {
		t.Fatal("poison write leaked into frame 0")
	}
	if got := p.Byte(uint32(p.Size())); got != 0 {
		t.Fatalf("out-of-range Byte=%#x, want 0", got)
	}
	p.SetByte(uint32(p.Size()), 0xAB) // must be a no-op
	if p.Faults() < 3 {
		t.Fatalf("faults=%d, want >=3", p.Faults())
	}
}

func TestFlipBit(t *testing.T) {
	p, _ := NewPhysical(4 * PageSize)
	f, _ := p.Alloc()
	if !p.FlipBit(f, 13) {
		t.Fatal("FlipBit refused an allocated frame")
	}
	if p.Frame(f)[1] != 1<<5 {
		t.Fatalf("byte 1 = %#x after flipping bit 13", p.Frame(f)[1])
	}
	if !p.FlipBit(f, 13) || p.Frame(f)[1] != 0 {
		t.Fatal("second flip did not restore the bit")
	}
	if p.FlipBit(0, 0) {
		t.Fatal("FlipBit accepted reserved frame 0")
	}
	if p.FlipBit(3, 0) {
		t.Fatal("FlipBit accepted an unallocated frame")
	}
	if p.FlipBit(1000, 0) {
		t.Fatal("FlipBit accepted an out-of-range frame")
	}
}

func TestReadWrite32(t *testing.T) {
	p, err := NewPhysical(4 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	p.Write32(100, 0xdeadbeef)
	if got := p.Read32(100); got != 0xdeadbeef {
		t.Fatalf("got %#x", got)
	}
	// Little-endian byte order.
	if p.Byte(100) != 0xef || p.Byte(103) != 0xde {
		t.Fatal("not little-endian")
	}
	// Page-crossing word.
	p.Write32(PageSize-2, 0x11223344)
	if got := p.Read32(PageSize - 2); got != 0x11223344 {
		t.Fatalf("page-crossing got %#x", got)
	}

	// Every way a word can be held reads and writes alike: a frame
	// materialized in the private overlay (the direct path), an absent
	// frame, a frame shared through a Base, and a fork whose allocator
	// state is still shared; at aligned, unaligned, last in-page and
	// page-crossing offsets. A store bumps the write generation once per
	// in-page word, once per byte across a page boundary.
	for _, kind := range []string{"private", "absent", "shared", "fork"} {
		for _, off := range []uint32{0, 1, 2, 3, 100, PageSize - 4, PageSize - 2} {
			q, _ := NewPhysical(4 * PageSize)
			pa := PageSize + off
			if kind != "absent" {
				q.Frame(1)
				for i := uint32(0); i < 4; i++ {
					q.SetByte(pa+i, byte(0x10+off+i))
				}
			}
			switch kind {
			case "shared":
				q.Seal()
			case "fork":
				base := q.Seal()
				q = bootFrom(t, q, base)
			}
			var want uint32
			for i := uint32(0); i < 4; i++ {
				want |= uint32(q.Byte(pa+i)) << (8 * i)
			}
			if got := q.Read32(pa); got != want {
				t.Errorf("%s frame, offset %d: Read32 %#x, bytes say %#x", kind, off, got, want)
			}
			g1, g2 := q.Gen(1), q.Gen(2)
			q.Write32(pa, 0xA1B2C3D4)
			if got := q.Read32(pa); got != 0xA1B2C3D4 || q.Byte(pa) != 0xD4 || q.Byte(pa+3) != 0xA1 {
				t.Errorf("%s frame, offset %d: wrote 0xA1B2C3D4, read %#x", kind, off, got)
			}
			bump1, bump2 := uint64(1), uint64(0)
			if off > PageSize-4 {
				bump1, bump2 = uint64(PageSize-off), uint64(4-(PageSize-off))
			}
			if q.Gen(1)-g1 != bump1 || q.Gen(2)-g2 != bump2 {
				t.Errorf("%s frame, offset %d: generations moved by %d and %d, want %d and %d",
					kind, off, q.Gen(1)-g1, q.Gen(2)-g2, bump1, bump2)
			}
		}
	}
}

func TestCopyFrame(t *testing.T) {
	p, _ := NewPhysical(4 * PageSize)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	fr := p.Frame(a)
	for i := range fr {
		fr[i] = byte(i)
	}
	p.CopyFrame(b, a)
	for i, v := range p.Frame(b) {
		if v != byte(i) {
			t.Fatalf("byte %d: got %d", i, v)
		}
	}
}

// Property: alloc/free sequences never corrupt the free list (no double
// handing-out of the same frame).
func TestQuickAllocUnique(t *testing.T) {
	f := func(ops []bool) bool {
		p, err := NewPhysical(16 * PageSize)
		if err != nil {
			return false
		}
		held := map[uint32]bool{}
		var order []uint32
		for _, alloc := range ops {
			if alloc {
				fr, err := p.Alloc()
				if err != nil {
					continue
				}
				if held[fr] {
					return false // double allocation
				}
				held[fr] = true
				order = append(order, fr)
			} else if len(order) > 0 {
				fr := order[len(order)-1]
				order = order[:len(order)-1]
				delete(held, fr)
				p.Free(fr)
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFrameSectionCanonical: the frame section depends only on frame
// contents. A materialized all-zero frame is skipped like a never-touched
// one, the decoded Base holds exactly the nonzero frames, and re-encoding
// the Base reproduces the bytes; a truncated section fails typed. The
// one-pass writer matches the two-pass reference on every way a frame can
// be held.
func TestFrameSectionCanonical(t *testing.T) {
	p, err := NewPhysical(8 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	p.SetByte(3*PageSize+5, 0xAB)
	p.SetByte(5*PageSize, 1)
	p.SetByte(5*PageSize, 0) // materialized, but all zero again
	w := snapshot.NewWriter()
	ScanFrames(p).Encode(w)
	enc := w.Bytes()
	if want := 4 + 4 + 4 + PageSize; len(enc) != want {
		t.Fatalf("section is %d bytes, want %d (one nonzero frame)", len(enc), want)
	}

	b, err := DecodeBase(snapshot.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	for f := uint32(0); f < b.NumFrames(); f++ {
		if got := b.View(f) != nil; got != (f == 3) {
			t.Errorf("frame %d decoded present=%v", f, got)
		}
	}
	if b.View(3)[5] != 0xAB {
		t.Fatal("frame 3 contents lost")
	}
	w2 := snapshot.NewWriter()
	ScanFrames(b).Encode(w2)
	if !bytes.Equal(enc, w2.Bytes()) {
		t.Fatal("re-encoding the decoded base changed the bytes")
	}

	if _, err := DecodeBase(snapshot.NewReader(enc[:len(enc)-1])); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("truncated section: err %v, want ErrTruncated", err)
	}

	for _, c := range frameSectionCases(t) {
		w := snapshot.NewWriter()
		sec := ScanFrames(c.src)
		sec.Encode(w)
		if want := encodeFramesRef(c.src); !bytes.Equal(w.Bytes(), want) {
			t.Errorf("%s: wrote %d bytes, the reference %d, not identical", c.name, w.Len(), len(want))
		}
		if sec.Len() != w.Len() {
			t.Errorf("%s: Len %d, encoded %d", c.name, sec.Len(), w.Len())
		}
	}
}

// encodeFramesRef is the frame-section writer as first written: one byte-
// by-byte pass counting the nonzero frames, a second writing them, the
// buffer grown by appending. FrameSection.Encode must write the same bytes.
func encodeFramesRef(src FrameSource) []byte {
	nonzero := func(b []byte) bool {
		for _, v := range b {
			if v != 0 {
				return true
			}
		}
		return false
	}
	w := snapshot.NewWriter()
	n := src.NumFrames()
	w.U32(n)
	var count uint32
	for f := uint32(0); f < n; f++ {
		if nonzero(src.View(f)) {
			count++
		}
	}
	w.U32(count)
	for f := uint32(0); f < n; f++ {
		if b := src.View(f); nonzero(b) {
			w.U32(f)
			w.Raw(b)
		}
	}
	return w.Bytes()
}

// frameSectionCases builds frame sources covering every way a frame can be
// held: never touched (nil), materialized but all zero, nonzero only at one
// offset (in each word of the 32-byte zero test, and the frame's last
// byte), shared through a Base, private in a copy-on-write overlay, and a
// fork that wrote to a few shared frames.
func frameSectionCases(t *testing.T) []struct {
	name string
	src  FrameSource
} {
	t.Helper()
	newPhys := func() *Physical {
		p, err := NewPhysical(16 * PageSize)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var cases []struct {
		name string
		src  FrameSource
	}
	add := func(name string, src FrameSource) {
		cases = append(cases, struct {
			name string
			src  FrameSource
		}{name, src})
	}

	add("nil frames", newPhys())

	zero := newPhys()
	for f := uint32(1); f < 16; f += 3 {
		zero.Frame(f) // materialized, never written
	}
	add("materialized zero frames", zero)

	for _, off := range []uint32{0, 7, 8, 17, 30, PageSize - 1} {
		p := newPhys()
		p.Frame(4) // a zero neighbour, materialized
		p.SetByte(5*PageSize+off, 0x5A)
		add(fmt.Sprintf("one nonzero byte at offset %d", off), p)
	}

	// A template with nonzero, zeroed and untouched frames, sealed into a
	// Base; then private overlays over it: a rewritten frame, a frame
	// cleared back to zero, and a frame first written after the seal.
	tmpl := newPhys()
	for f := uint32(1); f < 12; f++ {
		tmpl.Write32(f*PageSize+4*f, 0xC0DE0000|f)
	}
	tmpl.SetByte(13*PageSize, 1)
	tmpl.SetByte(13*PageSize, 0)
	base := tmpl.Seal()
	add("sealed base", base)
	add("fully shared machine", tmpl)
	tmpl.Write32(3*PageSize+12, 0xFFFFFFFF) // private copy, still nonzero
	tmpl.Write32(6*PageSize+24, 0)          // private copy, now all zero
	tmpl.SetByte(14*PageSize+PageSize-1, 9) // private, past the template
	add("private overlays over a base", tmpl)

	fork := bootFrom(t, tmpl, base)
	fork.SetByte(2*PageSize+100, 0xEE)
	fork.Write32(9*PageSize+36, 0) // unshared and zeroed
	fork.CopyFrame(15, 11)         // a shared frame copied to a fresh one
	add("copy-on-write fork", fork)
	return cases
}

// bootFrom boots a Physical over base from p's allocator section, as an
// Image boot does.
func bootFrom(t *testing.T, p *Physical, base *Base) *Physical {
	t.Helper()
	w := snapshot.NewWriter()
	p.EncodeMeta(w)
	q, err := DecodePhysical(snapshot.NewReader(w.Bytes()), base)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAllocOrderMatchesFreeList: the high-water mark and released stack
// hand out frames in exactly the order of the free list they replaced (all
// frames pushed high to low, frees pushed on top, allocations popped from
// the top), through seeded alloc/free sequences that exhaust memory and
// through boots from an encoded allocator section partway.
func TestAllocOrderMatchesFreeList(t *testing.T) {
	const n = 16
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewPhysical(n * PageSize)
		if err != nil {
			t.Fatal(err)
		}
		var free, held []uint32
		for f := uint32(n - 1); f >= 1; f-- {
			free = append(free, f)
		}
		for op := 0; op < 200; op++ {
			switch r := rng.Intn(10); {
			case r == 0:
				p = bootFrom(t, p, p.Seal())
			case r < 6:
				got, err := p.Alloc()
				if len(free) == 0 {
					if err != ErrOutOfMemory {
						t.Fatalf("seed %d op %d: Alloc on full memory = %d, %v", seed, op, got, err)
					}
					continue
				}
				want := free[len(free)-1]
				free = free[:len(free)-1]
				if err != nil || got != want {
					t.Fatalf("seed %d op %d: Alloc = %d, %v; the free list gives %d", seed, op, got, err, want)
				}
				held = append(held, got)
			case len(held) > 0:
				i := rng.Intn(len(held))
				f := held[i]
				held = append(held[:i], held[i+1:]...)
				if err := p.Free(f); err != nil {
					t.Fatal(err)
				}
				free = append(free, f)
			}
			if p.FreeFrames() != len(free) {
				t.Fatalf("seed %d op %d: FreeFrames = %d, the free list holds %d", seed, op, p.FreeFrames(), len(free))
			}
		}
	}
}
