// Package mem implements the simulated physical memory: 4 KiB frames with a
// high-water-mark allocator and per-frame reference counts (used by
// copy-on-write sharing in the kernel).
//
// Every per-frame array is bounded by the memory's extent: the frames below
// the allocator's high-water mark, plus any frame written above it. A
// machine, its Image and its checkpoints therefore cost what the guest
// touched, not the configured memory size; frames past the extent are
// unallocated and read as zero.
//
// Storage is layered, Firecracker snap-start style: a machine may attach an
// immutable, refcounted Base image whose frames are shared (by pointer) with
// every other machine attached to the same Base, plus a per-machine
// copy-on-write overlay. The first store to a shared frame copies it into the
// overlay; the store then bumps that machine's write generation exactly as a
// store to a private frame would, so the CPU's compiled superblocks see the
// same invalidation contract whether a frame is shared or not. Frames that are
// neither shared nor materialized read as zero, so a cold machine allocates
// host pages only for frames the guest actually touches.
//
// Misuse of the allocator (double free, refcount on an unallocated frame,
// out-of-range frame access) is contained, never fatal to the host: the
// offending operation is turned into a FrameError delivered through the
// FaultHook — the software analogue of a machine-check exception — and the
// access is redirected to a dedicated poison frame so the simulation can
// keep running while the kernel reports the event.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"splitmem/internal/snapshot"
	"splitmem/internal/telemetry"
)

// PageSize is the size of a physical frame and of a virtual page, in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageMask masks the offset within a page.
const PageMask = PageSize - 1

// FrameError describes a contained physical-memory fault: an allocator or
// frame access that, before host panic containment, would have crashed the
// simulator process.
type FrameError struct {
	Op    string // "free", "incref", "frame", "read", "write"
	Frame uint32 // implicated frame number (or address>>PageShift for raw accesses)
}

// Error implements the error interface.
func (e *FrameError) Error() string {
	return fmt.Sprintf("mem: machine check: %s of invalid frame %d", e.Op, e.Frame)
}

// Base is an immutable set of frame contents shareable across machines. A nil
// entry, or a frame past the end of the array, means the frame is all-zero.
// Bases are created by Physical.Seal or DecodeBase and must never be written
// after creation; machines attached to a Base copy frames into their private
// overlay before the first store (copy-on-write).
//
// The reference count tracks attached Physicals only. It is atomic so that
// machines in different goroutines (fleet workers, serve jobs) can attach and
// detach concurrently; the frame contents need no synchronization because they
// are immutable.
type Base struct {
	frames  []*page
	nframes uint32
	refs    atomic.Int32
}

// page is one frame's contents. The frame arrays hold pointers to pages, a
// word per frame, rather than slices, three words per frame: a 16 MiB
// machine's array is 32 KiB instead of 96 KiB.
type page = [PageSize]byte

// NumFrames returns the number of frames the Base covers.
func (b *Base) NumFrames() uint32 { return b.nframes }

// Extent returns one past the last frame the Base may hold nonzero.
func (b *Base) Extent() uint32 { return uint32(len(b.frames)) }

// Refs returns the number of Physicals currently attached to the Base.
func (b *Base) Refs() int { return int(b.refs.Load()) }

// View returns the contents of frame f (nil when the frame is all-zero or out
// of range). The slice is shared and must not be written.
func (b *Base) View(f uint32) []byte {
	if f >= uint32(len(b.frames)) || b.frames[f] == nil {
		return nil
	}
	return b.frames[f][:]
}

// Physical is one machine's physical memory.
//
// Frames are identified by frame number (physical address >> PageShift).
// Frame 0 is reserved and never handed out, so a zero frame number can be
// used as "no frame" by callers.
type Physical struct {
	// The per-frame arrays all have the extent's length: grow lengthens them
	// together before the first write to a frame past it. A frame past the
	// extent is unallocated, all zero, at write generation 0 and, with a
	// base attached, shared.
	//
	// frames is the private overlay; a nil entry is all-zero or shared
	// through base.
	frames []*page
	// priv marks frames that have left the shared Base (copied out, released,
	// or freshly allocated); meaningful only while base != nil. The inverted
	// polarity ("private" rather than "shared") means a freshly attached or
	// booted machine needs only a zeroed allocation, and detaching needs no
	// loop at all.
	priv []bool
	refs []uint16 // reference count per frame; 0 = free
	gens []uint64 // per-frame write generation (see Gen)

	base    *Base // immutable shared image, nil for a cold machine
	nframes uint32

	// The allocator hands out released frames last-freed first, then the
	// frame at the high-water mark: frames at or above mark were never
	// allocated.
	mark     uint32
	released []uint32

	allocCnt uint64 // lifetime allocations, for stats
	faults   uint64 // contained machine-check faults
	poison   []byte // scratch frame returned for out-of-range Frame calls, made on first use

	nshared   int    // frames currently read through base
	nprivate  int    // frames materialized in the private overlay
	cowCopies uint64 // lifetime shared-frame unshares (first write after fork)

	// FaultHook, when non-nil, receives every contained memory fault (a
	// *FrameError). The kernel surfaces these as machine-check events.
	FaultHook func(error)
}

// NewPhysical creates a physical memory of the given size, which must be a
// positive multiple of PageSize.
func NewPhysical(size int) (*Physical, error) {
	if size <= 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("mem: size %d is not a positive multiple of %d", size, PageSize)
	}
	// Frame 0 is reserved: allocated from the start and never handed out.
	p := &Physical{nframes: uint32(size / PageSize), mark: 1}
	p.grow(0)
	p.refs[0] = 1
	return p, nil
}

// grow lengthens the per-frame arrays to cover frame f, which must be below
// nframes.
func (p *Physical) grow(f uint32) {
	n := int(f) + 1 - len(p.gens)
	if n <= 0 {
		return
	}
	p.frames = append(p.frames, make([]*page, n)...)
	p.priv = append(p.priv, make([]bool, n)...)
	p.refs = append(p.refs, make([]uint16, n)...)
	p.gens = append(p.gens, make([]uint64, n)...)
}

// bump records a change to frame f's contents, which must be below nframes,
// by advancing its write generation.
func (p *Physical) bump(f uint32) {
	p.grow(f)
	p.gens[f]++
}

// Size returns the total physical memory size in bytes.
func (p *Physical) Size() int { return int(p.nframes) * PageSize }

// NumFrames returns the total number of frames, including reserved frame 0.
func (p *Physical) NumFrames() uint32 { return p.nframes }

// FreeFrames returns the number of currently allocatable frames.
func (p *Physical) FreeFrames() int { return int(p.nframes-p.mark) + len(p.released) }

// Extent returns one past the last frame the machine has allocated or
// written: every frame from it up is unallocated and all zero.
func (p *Physical) Extent() uint32 { return uint32(len(p.gens)) }

// Allocations returns the lifetime number of frame allocations.
func (p *Physical) Allocations() uint64 { return p.allocCnt }

// Faults returns the lifetime number of contained memory faults.
func (p *Physical) Faults() uint64 { return p.faults }

// SharedFrames returns the number of frames currently read through the
// attached Base image (they cost no per-machine memory).
func (p *Physical) SharedFrames() int { return p.nshared }

// PrivateFrames returns the number of frames materialized in this machine's
// private overlay.
func (p *Physical) PrivateFrames() int { return p.nprivate }

// CowCopies returns the lifetime number of shared frames this machine has
// unshared (copied into its overlay before a first write).
func (p *Physical) CowCopies() uint64 { return p.cowCopies }

// Base returns the attached shared image, or nil for a cold machine.
func (p *Physical) Base() *Base { return p.base }

// View returns the current contents of frame f (nil when the frame is
// all-zero or out of range) without affecting sharing or write generations.
// The slice must not be written.
func (p *Physical) View(f uint32) []byte {
	if pg := p.page(f); pg != nil {
		return pg[:]
	}
	return nil
}

// page returns frame f's contents, nil when all-zero. An attached base
// never extends past the extent (Seal and DecodePhysical see to it), but
// may end before it.
func (p *Physical) page(f uint32) *page {
	switch {
	case f >= p.Extent():
		return nil
	case p.base != nil && !p.priv[f]:
		if f < p.base.Extent() {
			return p.base.frames[f]
		}
		return nil
	}
	return p.frames[f]
}

// writable returns a private, writable page for frame f, materializing it in
// the overlay first if it is currently shared (copy-on-write) or all-zero.
// The caller must have bumped f's write generation, which also grows the
// arrays to cover it.
func (p *Physical) writable(f uint32) []byte {
	if p.base != nil && !p.priv[f] {
		pg := new(page)
		if src := p.page(f); src != nil { // nil leaves the page zero
			*pg = *src
		}
		p.frames[f] = pg
		p.priv[f] = true
		p.nshared--
		p.nprivate++
		p.cowCopies++
		return pg[:]
	}
	if p.frames[f] == nil {
		p.frames[f] = new(page)
		p.nprivate++
	}
	return p.frames[f][:]
}

// release drops frame f's contents (back to all-zero) without touching the
// write generation: the caller bumps it.
func (p *Physical) release(f uint32) {
	if p.base != nil && !p.priv[f] {
		p.priv[f] = true
		p.nshared--
	}
	if p.frames[f] != nil {
		p.frames[f] = nil
		p.nprivate--
	}
}

// Seal freezes the machine's current frame contents into an immutable Base
// and attaches the machine to it: every frame becomes shared, private overlay
// pages move into the Base without copying, and the machine's next store to
// any frame copies it back out (copy-on-write). Other machines may attach to
// the returned Base concurrently. When the machine is already fully shared
// (freshly attached or sealed, no writes since), the existing Base is
// returned unchanged, so sealing is idempotent and forks of forks stay cheap.
func (p *Physical) Seal() *Base {
	if p.base != nil && p.nshared == int(p.nframes) {
		return p.base
	}
	nb := &Base{frames: make([]*page, p.Extent()), nframes: p.nframes}
	for f := range nb.frames {
		nb.frames[f] = p.page(uint32(f))
	}
	clear(p.priv)
	clear(p.frames)
	if p.base != nil {
		p.base.refs.Add(-1)
	}
	p.base = nb
	nb.refs.Add(1)
	p.nshared = int(p.nframes)
	p.nprivate = 0
	return nb
}

// Close detaches the machine from its Base image, releasing its reference.
// The memory must not be used afterwards (shared frames read as zero).
// Close is idempotent and a no-op for cold machines.
func (p *Physical) Close() {
	if p.base == nil {
		return
	}
	p.base.refs.Add(-1)
	p.base = nil
	p.nshared = 0
}

// Gen returns the write generation of frame f: a counter bumped by every
// operation that can change the frame's contents (stores, Frame hand-outs,
// frame copies, allocation zeroing, chaos bit flips). Consumers that cache
// anything derived from a frame's bytes — the CPU's compiled superblocks —
// snapshot the generation at fill time and treat any later mismatch
// as an invalidation. Copy-on-write materialization does not bump the
// generation by itself (the contents are unchanged); the store that triggered
// it does, exactly as on a private frame. Frames past the extent, never
// written, report generation 0.
func (p *Physical) Gen(f uint32) uint64 {
	if f >= p.Extent() {
		return 0
	}
	return p.gens[f]
}

// fault records a contained machine-check fault and notifies the hook.
func (p *Physical) fault(op string, frame uint32) *FrameError {
	err := &FrameError{Op: op, Frame: frame}
	p.faults++
	if p.FaultHook != nil {
		p.FaultHook(err)
	}
	return err
}

// ErrOutOfMemory is returned when no free frame is available.
var ErrOutOfMemory = fmt.Errorf("mem: out of physical frames")

// Alloc allocates a zeroed frame with reference count 1.
func (p *Physical) Alloc() (uint32, error) {
	var f uint32
	switch {
	case len(p.released) > 0:
		f = p.released[len(p.released)-1]
		p.released = p.released[:len(p.released)-1]
	case p.mark < p.nframes:
		f = p.mark
		p.mark++
	default:
		return 0, ErrOutOfMemory
	}
	// Zero the frame by releasing its contents; one generation bump, matching
	// the historical clear-through-Frame behavior.
	p.bump(f)
	p.refs[f] = 1
	p.allocCnt++
	p.release(f)
	return f, nil
}

// IncRef increments the reference count of an allocated frame. Misuse
// (frame 0, out of range, or unallocated) is contained: the refcount is left
// untouched and a FrameError is returned and delivered to the FaultHook.
func (p *Physical) IncRef(f uint32) error {
	if f == 0 || f >= p.Extent() || p.refs[f] == 0 {
		return p.fault("incref", f)
	}
	p.refs[f]++
	return nil
}

// RefCount returns the current reference count of frame f.
func (p *Physical) RefCount(f uint32) int {
	if f >= p.Extent() {
		return 0
	}
	return int(p.refs[f])
}

// Free decrements the reference count of frame f, releasing it to the
// allocator when the count reaches zero. A double free or a free of frame 0
// is contained the same way IncRef misuse is.
func (p *Physical) Free(f uint32) error {
	if f == 0 || f >= p.Extent() || p.refs[f] == 0 {
		return p.fault("free", f)
	}
	p.refs[f]--
	if p.refs[f] == 0 {
		p.released = append(p.released, f)
	}
	return nil
}

// Frame returns the backing bytes of frame f. The slice aliases this
// machine's physical memory: writes through it are real stores (a shared
// frame is copied out of the Base first). An out-of-range frame yields the
// zeroed poison frame (and a machine-check fault) so that callers can never
// index outside physical memory.
func (p *Physical) Frame(f uint32) []byte {
	if f >= p.nframes {
		p.fault("frame", f)
		if p.poison == nil {
			p.poison = make([]byte, PageSize)
		}
		clear(p.poison)
		return p.poison
	}
	// The slice may be written through, so conservatively treat every hand-out
	// as a content change. Callers must not retain the slice across guest
	// instructions for this to be sound (Seal relies on it too: sealed pages
	// move into the immutable Base).
	p.bump(f)
	pg := p.writable(f)
	return pg[:PageSize:PageSize]
}

// WriteFrame stores b into frame f at offset off with one write
// generation bump, the cadence of a store through Frame. A store of zeros
// into an all-zero frame changes nothing, so it leaves the frame
// unmaterialized. b must fit in the frame from off.
func (p *Physical) WriteFrame(f, off uint32, b []byte) {
	if f >= p.nframes {
		p.fault("frame", f)
		return
	}
	p.bump(f)
	if p.View(f) == nil && !frameNonzero(b) {
		return
	}
	copy(p.writable(f)[off:], b)
}

// Byte returns the byte at physical address pa (0 with a contained fault
// when pa is outside physical memory).
func (p *Physical) Byte(pa uint32) byte {
	f := pa >> PageShift
	if f >= p.nframes {
		p.fault("read", f)
		return 0
	}
	b := p.View(f)
	if b == nil {
		return 0
	}
	return b[pa&PageMask]
}

// SetByte writes the byte at physical address pa.
func (p *Physical) SetByte(pa uint32, v byte) {
	f := pa >> PageShift
	if f >= p.nframes {
		p.fault("write", f)
		return
	}
	p.bump(f)
	p.writable(f)[pa&PageMask] = v
}

// Read32 reads a little-endian 32-bit word at physical address pa, which may
// span a frame boundary. An in-page word of a frame materialized in the
// private overlay is read directly; everything else takes read32Slow.
func (p *Physical) Read32(pa uint32) uint32 {
	f, off := pa>>PageShift, pa&PageMask
	// A frame in the overlay is private: Seal empties the overlay, and a
	// copy-on-write unshare marks the frame private as it fills it.
	if fr := p.frames; f < uint32(len(fr)) && fr[f] != nil && off <= PageSize-4 {
		return binary.LittleEndian.Uint32(fr[f][off:])
	}
	return p.read32Slow(pa)
}

func (p *Physical) read32Slow(pa uint32) uint32 {
	f := pa >> PageShift
	if off := pa & PageMask; f < p.nframes && off <= PageSize-4 {
		b := p.View(f)
		if b == nil {
			return 0
		}
		return binary.LittleEndian.Uint32(b[off:])
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(p.Byte(pa+i)) << (8 * i)
	}
	return v
}

// Write32 writes a little-endian 32-bit word at physical address pa. An
// in-page word of a private, materialized frame is written directly, with
// the same generation bump as every other store; everything else takes
// write32Slow.
func (p *Physical) Write32(pa uint32, v uint32) {
	f, off := pa>>PageShift, pa&PageMask
	if fr := p.frames; f < uint32(len(fr)) && fr[f] != nil && off <= PageSize-4 {
		p.gens[f]++
		binary.LittleEndian.PutUint32(fr[f][off:], v)
		return
	}
	p.write32Slow(pa, v)
}

func (p *Physical) write32Slow(pa uint32, v uint32) {
	f := pa >> PageShift
	if off := pa & PageMask; f < p.nframes && off <= PageSize-4 {
		p.bump(f)
		binary.LittleEndian.PutUint32(p.writable(f)[off:], v)
		return
	}
	for i := uint32(0); i < 4; i++ {
		p.SetByte(pa+i, byte(v>>(8*i)))
	}
}

// CopyFrame copies the contents of frame src into frame dst.
func (p *Physical) CopyFrame(dst, src uint32) {
	d := p.Frame(dst)
	if src >= p.nframes {
		// Match the historical copy-from-poison behavior: fault, copy zeros.
		p.fault("frame", src)
		clear(d)
		return
	}
	p.bump(src) // Frame(src) would have bumped it; keep the cadence
	if s := p.View(src); s != nil {
		copy(d, s)
	} else {
		clear(d)
	}
}

// RegisterTelemetry registers the allocator's counters as sampled gauges.
// Sampling happens at export time; allocation paths are untouched.
func (p *Physical) RegisterTelemetry(r *telemetry.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("splitmem_mem_frames_total", "physical frames (including reserved frame 0)",
		func() float64 { return float64(p.nframes) })
	r.GaugeFunc("splitmem_mem_frames_free", "allocatable frames remaining",
		func() float64 { return float64(p.FreeFrames()) })
	r.GaugeFunc("splitmem_mem_allocations_total", "lifetime frame allocations",
		func() float64 { return float64(p.allocCnt) })
	r.GaugeFunc("splitmem_mem_machine_checks_total", "contained physical-memory faults",
		func() float64 { return float64(p.faults) })
	r.GaugeFunc("splitmem_mem_frames_shared", "frames read through the shared base image",
		func() float64 { return float64(p.nshared) })
	r.GaugeFunc("splitmem_mem_frames_private", "frames materialized in the private overlay",
		func() float64 { return float64(p.nprivate) })
	r.GaugeFunc("splitmem_mem_cow_copies_total", "lifetime copy-on-write frame unshares",
		func() float64 { return float64(p.cowCopies) })
}

// EncodeMeta serializes the allocator state — everything except frame
// contents: the high-water mark, the released stack (whose order, with the
// mark, decides every future allocation), refcounts and write generations
// up to the extent, and counters.
func (p *Physical) EncodeMeta(w *snapshot.Writer) {
	w.Grow(4 + 8 + 8 + 4 + 4 + 4*len(p.released) + 4 + (2+8)*len(p.gens))
	w.U32(p.nframes)
	w.U64(p.allocCnt)
	w.U64(p.faults)
	w.U32(p.mark)
	w.U32(uint32(len(p.released)))
	for _, f := range p.released {
		w.U32(f)
	}
	w.U32(p.Extent())
	for _, r := range p.refs {
		w.U16(r)
	}
	for _, g := range p.gens {
		w.U64(g)
	}
}

// DecodePhysical reads an allocator section written by EncodeMeta into a
// Physical attached to b, the frames of the machine that wrote it: how
// every machine booted from an Image gets its memory. The frames stay
// shared until the first store to each.
func DecodePhysical(r *snapshot.Reader, b *Base) (*Physical, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > (1<<30)/PageSize {
		return nil, snapshot.Corruptf("mem: implausible frame count %d", n)
	}
	if n != b.NumFrames() {
		return nil, snapshot.Corruptf("mem: allocator of %d frames, image of %d", n, b.NumFrames())
	}
	p := &Physical{base: b, nframes: n, nshared: int(n), allocCnt: r.U64(), faults: r.U64(), mark: r.U32()}
	if p.mark == 0 || p.mark > n {
		return nil, snapshot.Corruptf("mem: high-water mark %d of %d frames", p.mark, n)
	}
	nrel := r.U32()
	if nrel >= p.mark {
		return nil, snapshot.Corruptf("mem: %d released frames below mark %d", nrel, p.mark)
	}
	p.released = make([]uint32, nrel)
	for i := range p.released {
		p.released[i] = r.U32()
	}
	ext := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ext < p.mark || ext > n || ext < b.Extent() {
		return nil, snapshot.Corruptf("mem: extent %d, mark %d, image frames to %d", ext, p.mark, b.Extent())
	}
	p.grow(ext - 1)
	for f := range p.refs {
		p.refs[f] = r.U16()
	}
	for f := range p.gens {
		p.gens[f] = r.U64()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for _, f := range p.released {
		if f == 0 || f >= p.mark {
			return nil, snapshot.Corruptf("mem: released frame %d out of range", f)
		}
	}
	b.refs.Add(1)
	return p, nil
}

// FrameSource is read-only access to frame contents: a sealed Base, or a
// live Physical read without going through Frame (which would bump write
// generations and make serializing a machine a mutation).
type FrameSource interface {
	NumFrames() uint32
	Extent() uint32 // frames from it up are all zero
	View(f uint32) []byte
}

// FrameSection is the frame section of an image, scanned from a
// FrameSource once: the numbers of the frames holding a nonzero byte. Its
// encoding is the frame count, then every such frame as its number and
// contents. Frames that are all zero are skipped whether or not they are
// materialized, so the bytes depend only on what the frames hold, never on
// how a machine came to hold it (cold, forked, or booted from an image).
// Len is known before anything is written, so a writer sizes its buffer
// once.
type FrameSection struct {
	src     FrameSource
	nonzero []uint32
}

// ScanFrames scans src's frames for the section. The frames must not change
// until the section is encoded.
func ScanFrames(src FrameSource) FrameSection {
	n := src.Extent()
	s := FrameSection{src: src, nonzero: make([]uint32, 0, n)}
	for f := uint32(0); f < n; f++ {
		if frameNonzero(src.View(f)) {
			s.nonzero = append(s.nonzero, f)
		}
	}
	return s
}

// Len returns the encoded size of the section in bytes.
func (s FrameSection) Len() int { return 8 + len(s.nonzero)*(4+PageSize) }

// Encode writes the section, growing w once to fit it.
func (s FrameSection) Encode(w *snapshot.Writer) {
	w.Grow(s.Len())
	w.U32(s.src.NumFrames())
	w.U32(uint32(len(s.nonzero)))
	for _, f := range s.nonzero {
		w.U32(f)
		w.Raw(s.src.View(f))
	}
}

// DecodeBase reads a section written by FrameSection.Encode into a new Base,
// whose frame array ends at the highest nonzero frame. The frames must come
// in ascending order, as Encode writes them.
func DecodeBase(r *snapshot.Reader) (*Base, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > (1<<30)/PageSize {
		return nil, snapshot.Corruptf("mem: image claims %d frames", n)
	}
	nonzero := r.U32()
	if nonzero > n {
		return nil, snapshot.Corruptf("mem: %d nonzero frames of %d", nonzero, n)
	}
	var frames []*page
	for i := uint32(0); i < nonzero; i++ {
		f := r.U32()
		b := r.Raw(PageSize)
		if b == nil {
			break // truncated: r.Err says so
		}
		if f >= n || f < uint32(len(frames)) {
			return nil, snapshot.Corruptf("mem: frame %d out of range or order", f)
		}
		frames = append(frames, make([]*page, int(f)-len(frames))...)
		frames = append(frames, (*page)(b))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Base{frames: frames, nframes: n}, nil
}

// frameNonzero reports whether b holds a nonzero byte, testing 32 bytes at
// a time; a frame's contents are nil or PageSize bytes.
func frameNonzero(b []byte) bool {
	for ; len(b) >= 32; b = b[32:] {
		if binary.LittleEndian.Uint64(b)|binary.LittleEndian.Uint64(b[8:])|
			binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:]) != 0 {
			return true
		}
	}
	for _, v := range b {
		if v != 0 {
			return true
		}
	}
	return false
}

// FlipBit flips one bit of an allocated frame — the chaos engine's model of
// a DRAM single-bit upset. bit indexes into the frame (0 ..
// PageSize*8-1). Flips of unallocated or reserved frames are refused so the
// injector only corrupts memory that is actually in use.
func (p *Physical) FlipBit(f uint32, bit uint32) bool {
	if f == 0 || f >= p.Extent() || p.refs[f] == 0 {
		return false
	}
	bit %= PageSize * 8
	p.bump(f)
	p.writable(f)[bit>>3] ^= 1 << (bit & 7)
	return true
}
