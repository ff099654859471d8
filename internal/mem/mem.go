// Package mem implements the simulated physical memory: 4 KiB frames with a
// free-list allocator and per-frame reference counts (used by copy-on-write
// sharing in the kernel).
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
// entry means the frame is all-zero. Bases are created by Physical.Seal or
// DecodeBase and must never be written after creation; machines attached to
// a Base copy frames into their private overlay before the first store
// (copy-on-write).
//
// The reference count tracks attached Physicals only. It is atomic so that
// machines in different goroutines (fleet workers, serve jobs) can attach and
// detach concurrently; the frame contents need no synchronization because they
// are immutable.
type Base struct {
	frames [][]byte
	refs   atomic.Int32
}

// NumFrames returns the number of frames the Base covers.
func (b *Base) NumFrames() uint32 { return uint32(len(b.frames)) }

// Refs returns the number of Physicals currently attached to the Base.
func (b *Base) Refs() int { return int(b.refs.Load()) }

// View returns the contents of frame f (nil when the frame is all-zero or out
// of range). The slice is shared and must not be written.
func (b *Base) View(f uint32) []byte {
	if f >= uint32(len(b.frames)) {
		return nil
	}
	return b.frames[f]
}

// Physical is one machine's physical memory.
//
// Frames are identified by frame number (physical address >> PageShift).
// Frame 0 is reserved and never handed out, so a zero frame number can be
// used as "no frame" by callers.
type Physical struct {
	// frames is the private overlay; a nil entry is all-zero or shared
	// through base. The whole array is allocated lazily on the first private
	// materialization: a pointer array this size dominates both machine
	// construction and every GC cycle, and a freshly booted or freshly
	// attached machine has nothing private to store in it.
	frames [][]byte
	// priv marks frames that have left the shared Base (copied out, released,
	// or freshly allocated); meaningful only while base != nil. The inverted
	// polarity ("private" rather than "shared") means a freshly attached or
	// booted machine needs only a zeroed allocation, and detaching needs no
	// loop at all.
	priv    []bool
	base    *Base // immutable shared image, nil for a cold machine
	nframes uint32

	free     []uint32 // free-list stack of frame numbers
	refs     []uint16 // reference count per frame; 0 = free
	gens     []uint64 // per-frame write generation (see Gen)
	allocCnt uint64   // lifetime allocations, for stats
	faults   uint64   // contained machine-check faults
	poison   []byte   // scratch frame returned for out-of-range Frame calls

	// metaShared marks free/refs/gens as aliases of an immutable Meta
	// (BootPhysical): they are copy-on-write like the frames themselves, and
	// every mutation of allocator state goes through ownMeta first. This is
	// what makes booting from an Image O(1) in the frame count.
	metaShared bool

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
	n := uint32(size / PageSize)
	p := &Physical{
		priv:    make([]bool, n),
		nframes: n,
		refs:    make([]uint16, n),
		gens:    make([]uint64, n),
		free:    make([]uint32, 0, n-1),
		poison:  make([]byte, PageSize),
	}
	// Push high frames first so allocation order is low-to-high; frame 0 is
	// reserved.
	for f := n - 1; f >= 1; f-- {
		p.free = append(p.free, f)
	}
	p.refs[0] = 1
	return p, nil
}

// BootPhysical builds a Physical attached to base b with allocator state mt —
// how every machine booted from an Image gets its memory. No allocator
// arrays are built or copied: the new machine aliases the immutable Meta
// until its first allocator mutation (ownMeta), exactly as its frames alias
// the Base until the first store.
func BootPhysical(b *Base, mt *Meta) (*Physical, error) {
	if b == nil || mt == nil || mt.nframes == 0 || b.NumFrames() != mt.nframes {
		return nil, fmt.Errorf("mem: image frames and allocator meta do not match")
	}
	n := mt.nframes
	p := &Physical{
		priv:       make([]bool, n),
		base:       b,
		nframes:    n,
		free:       mt.free,
		refs:       mt.refs,
		gens:       mt.gens,
		allocCnt:   mt.allocCnt,
		faults:     mt.faults,
		poison:     make([]byte, PageSize),
		metaShared: true,
		nshared:    int(n),
	}
	b.refs.Add(1)
	return p, nil
}

// ownMeta makes the allocator arrays privately owned before a mutation. The
// check is a single predictable branch so it can sit on the store hot path;
// the clone itself runs at most once per machine.
func (p *Physical) ownMeta() {
	if p.metaShared {
		p.unshareMeta()
	}
}

func (p *Physical) unshareMeta() {
	p.metaShared = false
	p.free = append(make([]uint32, 0, p.nframes-1), p.free...)
	p.refs = append([]uint16(nil), p.refs...)
	p.gens = append([]uint64(nil), p.gens...)
}

// Size returns the total physical memory size in bytes.
func (p *Physical) Size() int { return int(p.nframes) * PageSize }

// NumFrames returns the total number of frames, including reserved frame 0.
func (p *Physical) NumFrames() uint32 { return p.nframes }

// FreeFrames returns the number of currently allocatable frames.
func (p *Physical) FreeFrames() int { return len(p.free) }

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
	if f >= p.nframes {
		return nil
	}
	return p.view(f)
}

// view returns the current contents of frame f without affecting sharing or
// write generations. nil means all-zero. The caller must have bounds-checked
// f. The slice must not be written.
func (p *Physical) view(f uint32) []byte {
	if p.base != nil && !p.priv[f] {
		return p.base.frames[f]
	}
	if p.frames == nil {
		return nil
	}
	return p.frames[f]
}

// writable returns a private, writable page for frame f, materializing it in
// the overlay first if it is currently shared (copy-on-write) or all-zero.
// The caller must have bounds-checked f and is responsible for the write
// generation bump.
func (p *Physical) writable(f uint32) []byte {
	if p.frames == nil {
		p.frames = make([][]byte, p.nframes)
	}
	if p.base != nil && !p.priv[f] {
		pg := make([]byte, PageSize)
		copy(pg, p.base.frames[f]) // nil source leaves the page zero
		p.frames[f] = pg
		p.priv[f] = true
		p.nshared--
		p.nprivate++
		p.cowCopies++
		return pg
	}
	if p.frames[f] == nil {
		p.frames[f] = make([]byte, PageSize)
		p.nprivate++
	}
	return p.frames[f]
}

// release drops frame f's contents (back to all-zero) without touching the
// write generation: the caller bumps it.
func (p *Physical) release(f uint32) {
	if p.base != nil && !p.priv[f] {
		p.priv[f] = true
		p.nshared--
	}
	if p.frames != nil && p.frames[f] != nil {
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
	nb := &Base{frames: make([][]byte, p.nframes)}
	for f := uint32(0); f < p.nframes; f++ {
		switch {
		case p.base != nil && !p.priv[f]:
			nb.frames[f] = p.base.frames[f]
		case p.frames != nil && p.frames[f] != nil:
			nb.frames[f] = p.frames[f]
		}
	}
	clear(p.priv)
	p.frames = nil
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
// it does, exactly as on a private frame. Out-of-range frames report
// generation 0.
func (p *Physical) Gen(f uint32) uint64 {
	if f >= p.nframes {
		return 0
	}
	return p.gens[f]
}

// dirty bumps the write generation of the frame containing physical
// address pa (no-op when out of range; the accessor already faulted).
func (p *Physical) dirty(pa uint32) {
	if f := pa >> PageShift; f < p.nframes {
		p.ownMeta()
		p.gens[f]++
	}
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
	if len(p.free) == 0 {
		return 0, ErrOutOfMemory
	}
	p.ownMeta()
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.refs[f] = 1
	p.allocCnt++
	// Zero the frame by releasing its contents; one generation bump, matching
	// the historical clear-through-Frame behavior.
	p.gens[f]++
	p.release(f)
	return f, nil
}

// IncRef increments the reference count of an allocated frame. Misuse
// (frame 0, out of range, or unallocated) is contained: the refcount is left
// untouched and a FrameError is returned and delivered to the FaultHook.
func (p *Physical) IncRef(f uint32) error {
	if f == 0 || f >= p.nframes || p.refs[f] == 0 {
		return p.fault("incref", f)
	}
	p.ownMeta()
	p.refs[f]++
	return nil
}

// RefCount returns the current reference count of frame f.
func (p *Physical) RefCount(f uint32) int {
	if f >= p.nframes {
		return 0
	}
	return int(p.refs[f])
}

// Free decrements the reference count of frame f, returning it to the free
// list when the count reaches zero. A double free or a free of frame 0 is
// contained the same way IncRef misuse is.
func (p *Physical) Free(f uint32) error {
	if f == 0 || f >= p.nframes || p.refs[f] == 0 {
		return p.fault("free", f)
	}
	p.ownMeta()
	p.refs[f]--
	if p.refs[f] == 0 {
		p.free = append(p.free, f)
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
		clear(p.poison)
		return p.poison
	}
	// The slice may be written through, so conservatively treat every hand-out
	// as a content change. Callers must not retain the slice across guest
	// instructions for this to be sound (Seal relies on it too: sealed pages
	// move into the immutable Base).
	p.ownMeta()
	p.gens[f]++
	pg := p.writable(f)
	return pg[:PageSize:PageSize]
}

// Byte returns the byte at physical address pa (0 with a contained fault
// when pa is outside physical memory).
func (p *Physical) Byte(pa uint32) byte {
	f := pa >> PageShift
	if f >= p.nframes {
		p.fault("read", f)
		return 0
	}
	b := p.view(f)
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
	p.ownMeta()
	p.gens[f]++
	p.writable(f)[pa&PageMask] = v
}

// Read32 reads a little-endian 32-bit word at physical address pa, which may
// span a frame boundary.
func (p *Physical) Read32(pa uint32) uint32 {
	f := pa >> PageShift
	if off := pa & PageMask; f < p.nframes && off <= PageSize-4 {
		b := p.view(f)
		if b == nil {
			return 0
		}
		b = b[off:]
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(p.Byte(pa+i)) << (8 * i)
	}
	return v
}

// Write32 writes a little-endian 32-bit word at physical address pa.
func (p *Physical) Write32(pa uint32, v uint32) {
	f := pa >> PageShift
	if off := pa & PageMask; f < p.nframes && off <= PageSize-4 {
		p.ownMeta()
		p.gens[f]++
		b := p.writable(f)[off:]
		b[0] = byte(v)
		b[1] = byte(v >> 8)
		b[2] = byte(v >> 16)
		b[3] = byte(v >> 24)
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
	p.ownMeta()
	p.gens[src]++ // Frame(src) would have bumped it; keep the cadence
	if s := p.view(src); s != nil {
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
		func() float64 { return float64(len(p.free)) })
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
// contents: free list order (a stack whose order decides every future
// allocation), refcounts, write generations and counters.
func (p *Physical) EncodeMeta(w *snapshot.Writer) {
	w.U32(p.nframes)
	w.U64(p.allocCnt)
	w.U64(p.faults)
	w.U32(uint32(len(p.free)))
	for _, f := range p.free {
		w.U32(f)
	}
	for _, r := range p.refs {
		w.U16(r)
	}
	for _, g := range p.gens {
		w.U64(g)
	}
}

// FrameSource is read-only access to frame contents: a sealed Base, or a
// live Physical read without going through Frame (which would bump write
// generations and make serializing a machine a mutation).
type FrameSource interface {
	NumFrames() uint32
	View(f uint32) []byte
}

// EncodeFrames serializes src's frame contents sparsely: the frame count,
// then every frame with at least one nonzero byte as its number and
// contents. Frames that are all zero are skipped whether or not they are
// materialized, so the bytes depend only on what the frames hold, never on
// how a machine came to hold it (cold, forked, or booted from an image).
func EncodeFrames(w *snapshot.Writer, src FrameSource) {
	n := src.NumFrames()
	w.U32(n)
	var nonzero uint32
	for f := uint32(0); f < n; f++ {
		if frameNonzero(src.View(f)) {
			nonzero++
		}
	}
	w.U32(nonzero)
	for f := uint32(0); f < n; f++ {
		if b := src.View(f); frameNonzero(b) {
			w.U32(f)
			w.Raw(b)
		}
	}
}

// DecodeBase reads a section written by EncodeFrames into a new Base.
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
	frames := make([][]byte, n)
	for i := uint32(0); i < nonzero; i++ {
		f := r.U32()
		if f >= n {
			return nil, snapshot.Corruptf("mem: frame %d out of range", f)
		}
		frames[f] = r.Raw(PageSize)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &Base{frames: frames}, nil
}

// Meta is a decoded, immutable copy of the allocator state EncodeMeta
// serializes: the free-list order, per-frame refcounts and write generations,
// and the lifetime counters. An Image caches one so repeated boots from the
// same template alias the allocator state (BootPhysical) instead of
// re-parsing the byte section every time.
type Meta struct {
	nframes  uint32
	allocCnt uint64
	faults   uint64
	free     []uint32
	refs     []uint16
	gens     []uint64
}

// SnapMeta captures the current allocator state as an immutable Meta. The
// copy is deep, so the machine may keep running (and mutating its free list,
// refcounts and generations) without disturbing the snapshot. A machine whose
// arrays still alias a Meta (BootPhysical, no mutation since) shares them
// onward instead of copying: re-imaging an undisturbed fork is free.
func (p *Physical) SnapMeta() *Meta {
	if p.metaShared {
		return &Meta{
			nframes:  p.nframes,
			allocCnt: p.allocCnt,
			faults:   p.faults,
			free:     p.free,
			refs:     p.refs,
			gens:     p.gens,
		}
	}
	return &Meta{
		nframes:  p.nframes,
		allocCnt: p.allocCnt,
		faults:   p.faults,
		free:     append([]uint32(nil), p.free...),
		refs:     append([]uint16(nil), p.refs...),
		gens:     append([]uint64(nil), p.gens...),
	}
}

// DecodeMeta reads a section written by EncodeMeta as an immutable Meta.
func DecodeMeta(r *snapshot.Reader) (*Meta, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 || n > (1<<30)/PageSize {
		return nil, snapshot.Corruptf("mem: implausible frame count %d", n)
	}
	mt := &Meta{nframes: n, allocCnt: r.U64(), faults: r.U64()}
	nfree := r.U32()
	if nfree >= n {
		return nil, snapshot.Corruptf("mem: free list of %d frames", nfree)
	}
	mt.free = make([]uint32, nfree)
	for i := range mt.free {
		mt.free[i] = r.U32()
	}
	mt.refs = make([]uint16, n)
	for f := range mt.refs {
		mt.refs[f] = r.U16()
	}
	mt.gens = make([]uint64, n)
	for f := range mt.gens {
		mt.gens[f] = r.U64()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for _, f := range mt.free {
		if f == 0 || f >= n {
			return nil, snapshot.Corruptf("mem: free frame %d out of range", f)
		}
	}
	return mt, nil
}

// SkipMeta advances the reader past a section written by EncodeMeta without
// decoding it, validating only the framing. It lets a boot that already holds
// the decoded Meta (BootPhysical) keep the reader aligned with the canonical
// section sequence.
func SkipMeta(r *snapshot.Reader) error {
	n := r.U32()
	if n == 0 || n > (1<<30)/PageSize {
		return snapshot.Corruptf("mem: implausible frame count %d", n)
	}
	r.U64() // allocCnt
	r.U64() // faults
	nfree := r.U32()
	if nfree >= n {
		return snapshot.Corruptf("mem: free list of %d frames", nfree)
	}
	r.Skip(int(nfree) * 4) // free list
	r.Skip(int(n) * 2)     // refcounts
	r.Skip(int(n) * 8)     // write generations
	return r.Err()
}

func frameNonzero(b []byte) bool {
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
	if f == 0 || f >= p.nframes || p.refs[f] == 0 {
		return false
	}
	bit %= PageSize * 8
	p.ownMeta()
	p.gens[f]++
	p.writable(f)[bit>>3] ^= 1 << (bit & 7)
	return true
}
