package splitmem

// The typed Image API: a machine parked at a timeslice boundary freezes into
// an Image — architectural metadata plus an immutable, refcounted set of
// physical frames (mem.Base) — and any number of machines boot from it,
// sharing every frame copy-on-write until their first write. This is the
// Firecracker/snap-start shape: boot a template once, fork per job, pay only
// for the frames each fork actually dirties.
//
// The determinism contract is absolute: a machine booted from an Image (or
// returned by Machine.Fork) is bit-identical to one restored from a Snapshot
// taken at the same instant — same retired-instruction stream, same events,
// same architectural stats. Only the host-side compiled superblocks start
// cold, exactly as they do after Restore; the oracle suite
// (TestOracleFork*) holds this across workloads, the Wilander attack grid,
// and every chaos fault class.

import (
	"fmt"
	"io"
	"sync/atomic"

	"splitmem/internal/mem"
	"splitmem/internal/snapshot"
)

// imgMagic brands a serialized Image; imgVersion is bumped on any format
// change. The Image format shares the section codec with Snapshot but stores
// frame contents once, outside the metadata, so a written image is also the
// natural interchange format for warm-pool templates.
const (
	imgMagic   = "S86IMG\x00\x01"
	imgVersion = 1
)

// Image is an immutable machine image: everything a Snapshot captures, with
// the physical frame contents held in a shareable mem.Base instead of inline
// bytes. An Image is safe for concurrent use — any number of goroutines may
// Boot from it at once — and stays valid however many machines attach to or
// detach from it.
//
// Obtain one with Machine.Image (freezing a live machine) or ReadImage
// (deserializing a written one).
type Image struct {
	meta []byte    // canonical section sequence, frames elided
	base *mem.Base // immutable shared frame contents

	// pmeta caches the decoded physical-allocator section of meta so repeated
	// boots install it by copy instead of re-parsing bytes (the warm-pool hot
	// path). Machine.Image fills it at freeze time; an Image read from bytes
	// self-warms after its first successful Boot, which is also the boot that
	// fully validates the byte section. Atomic because Boot is documented
	// safe for concurrent use.
	pmeta atomic.Pointer[mem.Meta]
}

// Image freezes the machine's current architectural state into an Image.
// Call it only between Run/RunContext invocations, like Snapshot.
//
// The machine itself keeps running afterwards: its frames become shared with
// the Image and are copied back out on first write (copy-on-write), so
// taking an Image is cheap — no frame bytes move — and repeated calls on an
// undisturbed machine reuse the same frame store.
func (m *Machine) Image() (*Image, error) {
	w := snapshot.NewWriter()
	m.encodeBody(w, false)
	img := &Image{meta: w.Bytes(), base: m.mach.Phys.Seal()}
	img.pmeta.Store(m.mach.Phys.SnapMeta())
	return img, nil
}

// Boot builds a fresh machine from the Image. The machine shares the Image's
// physical frames copy-on-write and is bit-identical to one restored from a
// Snapshot of the original at the same instant. Failures wrap ErrBadImage.
func (img *Image) Boot() (*Machine, error) { return img.BootWithHook(nil) }

// BootWithHook is Boot with an event hook attached to the new machine
// (hooks are functions and cannot live in an image).
func (img *Image) BootWithHook(hook func(Event)) (*Machine, error) {
	if img == nil || img.base == nil {
		return nil, fmt.Errorf("%w: nil image", ErrBadImage)
	}
	pmeta := img.pmeta.Load()
	m, err := decodeBody(snapshot.NewReader(img.meta), hook, img.base, pmeta)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadImage, err)
	}
	if pmeta == nil {
		// First boot of a deserialized image just decoded (and validated) the
		// allocator section the slow way; cache it so the next boot doesn't.
		img.pmeta.CompareAndSwap(nil, m.mach.Phys.SnapMeta())
	}
	return m, nil
}

// Fork returns a new machine bit-identical to m at this instant — the same
// architectural state a cold boot replayed to the same cycle would hold —
// sharing all physical frames with m copy-on-write. Both machines remain
// fully independent afterwards: neither can observe the other's writes.
// Call it only between Run/RunContext invocations, like Snapshot.
//
// The fork carries no event hook (use ForkWithHook) and, like a restored
// machine, starts with cold host-side compiled superblocks.
func (m *Machine) Fork() (*Machine, error) { return m.ForkWithHook(nil) }

// ForkWithHook is Fork with an event hook attached to the child.
func (m *Machine) ForkWithHook(hook func(Event)) (*Machine, error) {
	img, err := m.Image()
	if err != nil {
		return nil, err
	}
	return img.BootWithHook(hook)
}

// Close releases the machine's reference to any shared frame store it is
// attached to (from Image.Boot, Fork, or a previous Image call). The machine
// must not be used afterwards. Close is idempotent and a no-op for machines
// that never shared frames; it exists so warm pools can prove refcounts drain
// to zero when a generation of forks retires.
func (m *Machine) Close() {
	m.mach.Phys.Close()
}

// SharedBase returns the shared frame store the machine is attached to, or
// nil. Exposed for pool accounting and tests (mem.Base.Refs).
func (m *Machine) SharedBase() *mem.Base { return m.mach.Phys.Base() }

// WriteTo serializes the Image: magic, version, the metadata section, the
// nonzero frames of the shared base, and a CRC-32 trailer over everything
// before it. Image implements io.WriterTo.
func (img *Image) WriteTo(dst io.Writer) (int64, error) {
	w := snapshot.NewWriter()
	w.Raw([]byte(imgMagic))
	w.U32(imgVersion)
	w.Bytes32(img.meta)
	n := img.base.NumFrames()
	w.U32(n)
	var nonzero uint32
	for f := uint32(0); f < n; f++ {
		if img.base.View(f) != nil {
			nonzero++
		}
	}
	w.U32(nonzero)
	for f := uint32(0); f < n; f++ {
		if b := img.base.View(f); b != nil {
			w.U32(f)
			w.Raw(b)
		}
	}
	w.U32(snapshot.Checksum(w.Bytes()))
	written, err := dst.Write(w.Bytes())
	return int64(written), err
}

// ReadFrom deserializes an Image written by WriteTo, replacing the
// receiver's contents. Image implements io.ReaderFrom. Failures wrap
// ErrBadImage.
func (img *Image) ReadFrom(src io.Reader) (int64, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return int64(len(raw)), err
	}
	dec, err := decodeImage(raw)
	if err != nil {
		return int64(len(raw)), err
	}
	img.meta = dec.meta
	img.base = dec.base
	img.pmeta.Store(dec.pmeta.Load())
	return int64(len(raw)), nil
}

// ReadImage deserializes an Image written by WriteTo. Failures wrap
// ErrBadImage (and the snapshot sentinels ErrSnapshotTruncated /
// ErrSnapshotCorrupt / ErrSnapshotVersion for classification).
func ReadImage(src io.Reader) (*Image, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return decodeImage(raw)
}

func decodeImage(raw []byte) (*Image, error) {
	badf := func(err error) error { return fmt.Errorf("%w: %w", ErrBadImage, err) }
	if len(raw) < len(imgMagic)+12 {
		return nil, badf(snapshot.ErrTruncated)
	}
	if string(raw[:len(imgMagic)]) != imgMagic {
		return nil, badf(snapshot.Corruptf("bad image magic"))
	}
	body := raw[:len(raw)-4]
	want := snapshot.NewReader(raw[len(raw)-4:]).U32()
	if got := snapshot.Checksum(body); got != want {
		return nil, badf(snapshot.Corruptf("checksum mismatch: image says %#x, content hashes to %#x", want, got))
	}
	r := snapshot.NewReader(body[len(imgMagic):])
	if v := r.U32(); v != imgVersion {
		return nil, badf(fmt.Errorf("%w: image version %d, this build reads %d", snapshot.ErrVersion, v, imgVersion))
	}
	meta := r.Bytes32()
	nframes := r.U32()
	if err := r.Err(); err != nil {
		return nil, badf(err)
	}
	if nframes == 0 || nframes > (1<<30)/mem.PageSize {
		return nil, badf(snapshot.Corruptf("image claims %d frames", nframes))
	}
	frames := make([][]byte, nframes)
	nonzero := r.U32()
	if nonzero > nframes {
		return nil, badf(snapshot.Corruptf("%d nonzero frames of %d", nonzero, nframes))
	}
	for i := uint32(0); i < nonzero; i++ {
		f := r.U32()
		if f >= nframes {
			return nil, badf(snapshot.Corruptf("frame %d out of range", f))
		}
		pg := r.Raw(mem.PageSize)
		if len(pg) == mem.PageSize {
			cp := make([]byte, mem.PageSize)
			copy(cp, pg)
			frames[f] = cp
		}
	}
	if err := r.Err(); err != nil {
		return nil, badf(err)
	}
	if r.Remaining() != 0 {
		return nil, badf(snapshot.Corruptf("%d trailing bytes after frame section", r.Remaining()))
	}
	// The meta section is validated lazily by Boot (it runs the same decoder
	// Restore does, behind the same sanity caps); a copy keeps the Image
	// detached from the caller's buffer.
	metaCp := make([]byte, len(meta))
	copy(metaCp, meta)
	return &Image{meta: metaCp, base: mem.NewBase(frames)}, nil
}
