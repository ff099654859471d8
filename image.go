package splitmem

// The Image: the one serialized form of a machine, and the typed API over
// it. A machine parked at a timeslice boundary freezes into an Image —
// architectural metadata plus an immutable, refcounted set of physical
// frames (mem.Base) — and any number of machines boot from it, sharing every
// frame copy-on-write until their first write. This is the
// Firecracker/snap-start shape: boot a template once, fork per job, pay only
// for the frames each fork actually dirties. Checkpoints use the same wire
// format: Machine.Snapshot writes it from a live machine, and ReadImage plus
// Boot resumes one.
//
// The determinism contract is absolute: a machine booted from an Image (or
// returned by Machine.Fork) is bit-identical to the source at the instant
// the Image was taken — same retired-instruction stream, same events, same
// architectural stats. Only host-side state differs (compiled superblocks
// start cold, frames start shared); the oracle suites (TestOracleSnapshot*,
// TestOracleFork*) hold this across workloads, the Wilander attack grid, and
// every chaos fault class.
//
// Wire format: magic, version, the length-prefixed metadata section
// (snapshot.go), the frame count, the nonzero frames as (number, contents)
// pairs in ascending order, and a CRC-32 trailer over everything before it.
// The writer makes one pass over the frames up to the allocator's extent
// (mem.Physical.Extent; every frame past it is zero), testing each for a
// nonzero byte a word at a time, and sizes its buffer once for all of it.
// Nothing in the format grows with the configured memory size: the
// allocator section holds its high-water mark, its released stack and
// per-frame state up to the extent, and the trace section only the
// entries the ring holds.

import (
	"bytes"
	"fmt"
	"io"

	"splitmem/internal/mem"
	"splitmem/internal/snapshot"
)

// imgMagic brands a serialized Image; imgVersion is bumped on any format
// change. There is no cross-version decoding: a checkpoint is a short-lived
// crash-recovery artifact, not an archival format.
const (
	imgMagic   = "S86IMG\x00\x01"
	imgVersion = 3 // v3: allocator and trace sections hold only what the machine used
)

// Image is an immutable machine image: the machine's architectural state,
// with the physical frame contents held in a shareable mem.Base. An Image is
// safe for concurrent use — any number of goroutines may Boot from it at
// once — and stays valid however many machines attach to or detach from it.
//
// Obtain one with Machine.Image (freezing a live machine) or ReadImage
// (deserializing a written one).
type Image struct {
	meta []byte    // canonical section sequence, frames elided
	base *mem.Base // immutable shared frame contents
}

// Image freezes the machine's current architectural state into an Image.
// Call it only between Run/RunContext invocations, like Snapshot.
//
// The machine itself keeps running afterwards: its frames become shared with
// the Image and are copied back out on first write (copy-on-write), so
// taking an Image is cheap — no frame bytes move — and repeated calls on an
// undisturbed machine reuse the same frame store.
func (m *Machine) Image() (*Image, error) {
	return &Image{meta: m.encodeMeta(), base: m.mach.Phys.Seal()}, nil
}

// Boot builds a fresh machine from the Image. The machine shares the Image's
// physical frames copy-on-write and is bit-identical to the source machine
// at the instant the Image was taken. Failures wrap ErrBadImage.
func (img *Image) Boot() (*Machine, error) { return img.BootWithHook(nil) }

// BootWithHook is Boot with an event hook attached to the new machine
// (hooks are functions and cannot live in an image).
func (img *Image) BootWithHook(hook func(Event)) (*Machine, error) {
	if img == nil || img.base == nil {
		return nil, fmt.Errorf("%w: nil image", ErrBadImage)
	}
	m, err := decodeMeta(img.meta, hook, img.base)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadImage, err)
	}
	return m, nil
}

// Fork returns a new machine bit-identical to m at this instant — the same
// architectural state a cold boot replayed to the same cycle would hold —
// sharing all physical frames with m copy-on-write. Both machines remain
// fully independent afterwards: neither can observe the other's writes.
// Call it only between Run/RunContext invocations, like Snapshot.
//
// The fork carries no event hook (use ForkWithHook) and, like any booted
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

// WriteTo serializes the Image (see the wire format above). Image
// implements io.WriterTo.
func (img *Image) WriteTo(dst io.Writer) (int64, error) {
	written, err := dst.Write(writeImage(img.meta, img.base))
	return int64(written), err
}

// writeImage is the one Image writer, shared by WriteTo (frames from the
// sealed base) and Snapshot (frames read live from a machine).
func writeImage(meta []byte, frames mem.FrameSource) []byte {
	sec := mem.ScanFrames(frames)
	w := snapshot.NewWriter()
	w.Grow(len(imgMagic) + 4 + 4 + len(meta) + sec.Len() + 4)
	w.Raw([]byte(imgMagic))
	w.U32(imgVersion)
	w.Bytes32(meta)
	sec.Encode(w)
	w.U32(snapshot.Checksum(w.Bytes()))
	return w.Bytes()
}

// ReadFrom deserializes an Image written by WriteTo (or Snapshot),
// replacing the receiver's contents. Image implements io.ReaderFrom.
// Failures wrap ErrBadImage.
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
	return int64(len(raw)), nil
}

// ReadImage deserializes an Image written by WriteTo or Snapshot. Failures
// wrap ErrBadImage (and the sentinels ErrSnapshotTruncated /
// ErrSnapshotCorrupt / ErrSnapshotVersion for classification).
func ReadImage(src io.Reader) (*Image, error) {
	raw, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return decodeImage(raw)
}

// VerifyImage checks that a serialized Image arrived intact — its minimum
// length and the CRC-32 trailer over everything before it — without
// decoding any state or allocating a machine. It is the transfer gate for
// checkpoints shipped between processes (the cluster gateway verifies every
// image it relays, and a replica re-verifies before resuming) and the first
// step of ReadImage, which then checks magic and version. Failures wrap
// ErrBadImage and ErrSnapshotTruncated or ErrSnapshotCorrupt: any flipped
// bit, the header's included, fails here, so refetch.
//
// An intact image of another format or format version passes, since
// refetching could not change it; such bytes (a checkpoint shipped across an
// upgrade, say) then fail ReadImage with ErrSnapshotVersion.
func VerifyImage(raw []byte) error {
	if len(raw) < len(imgMagic)+8 {
		return fmt.Errorf("%w: %w", ErrBadImage, snapshot.ErrTruncated)
	}
	want := snapshot.NewReader(raw[len(raw)-4:]).U32()
	if got := snapshot.Checksum(raw[:len(raw)-4]); got != want {
		return fmt.Errorf("%w: %w", ErrBadImage,
			snapshot.Corruptf("checksum mismatch: image says %#x, content hashes to %#x", want, got))
	}
	return nil
}

func decodeImage(raw []byte) (*Image, error) {
	if err := VerifyImage(raw); err != nil {
		return nil, err
	}
	badf := func(err error) error { return fmt.Errorf("%w: %w", ErrBadImage, err) }
	if !bytes.HasPrefix(raw, []byte(imgMagic)) {
		return nil, badf(fmt.Errorf("%w: not a machine image of this format (magic %q)", snapshot.ErrVersion, raw[:len(imgMagic)]))
	}
	r := snapshot.NewReader(raw[len(imgMagic) : len(raw)-4])
	if v := r.U32(); v != imgVersion {
		return nil, badf(fmt.Errorf("%w: image version %d, this build reads %d", snapshot.ErrVersion, v, imgVersion))
	}
	// The meta section is validated lazily by Boot (behind the sanity caps
	// in decodeMeta); both sections are copied out, so the Image stays
	// detached from raw.
	meta := r.Bytes32()
	base, err := mem.DecodeBase(r)
	if err == nil && r.Remaining() != 0 {
		err = snapshot.Corruptf("%d trailing bytes after frame section", r.Remaining())
	}
	if err != nil {
		return nil, badf(err)
	}
	return &Image{meta: meta, base: base}, nil
}
