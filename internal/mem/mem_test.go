package mem

import (
	"bytes"
	"errors"
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
	p, _ := NewPhysical(4 * PageSize)
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
// the Base reproduces the bytes; a truncated section fails typed.
func TestFrameSectionCanonical(t *testing.T) {
	p, err := NewPhysical(8 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	p.SetByte(3*PageSize+5, 0xAB)
	p.SetByte(5*PageSize, 1)
	p.SetByte(5*PageSize, 0) // materialized, but all zero again
	w := snapshot.NewWriter()
	EncodeFrames(w, p)
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
	EncodeFrames(w2, b)
	if !bytes.Equal(enc, w2.Bytes()) {
		t.Fatal("re-encoding the decoded base changed the bytes")
	}

	if _, err := DecodeBase(snapshot.NewReader(enc[:len(enc)-1])); !errors.Is(err, snapshot.ErrTruncated) {
		t.Fatalf("truncated section: err %v, want ErrTruncated", err)
	}
}
