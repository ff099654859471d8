// Package snapshot provides the binary codec primitives for the machine's
// checkpoint/restore format: a Writer that appends fixed-width little-endian
// fields to a growing buffer, and a Reader that consumes them with a sticky
// error so decoders can be written straight-line and checked once at the end.
//
// The format deliberately has no reflection, no varints and no framing
// cleverness: every field is written and read in an explicit, fixed order, so
// the bytes a machine state serializes to are a pure function of that state —
// the property the restore oracle depends on. Integrity is a single CRC32
// over the whole image (see the splitmem package), not per-field.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Typed decode failures. Everything a corrupt, truncated or version-skewed
// image can produce wraps one of these, so callers can branch on the class
// without string matching.
var (
	// ErrTruncated: the reader ran off the end of the image.
	ErrTruncated = errors.New("snapshot: truncated image")
	// ErrCorrupt: the image is structurally invalid (bad magic, checksum
	// mismatch, impossible field value).
	ErrCorrupt = errors.New("snapshot: corrupt image")
	// ErrVersion: the image was written by an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported version")
)

// Corruptf wraps ErrCorrupt with context.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Checksum is the integrity hash used by the image trailer (CRC-32/IEEE).
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Writer accumulates an encoded state image.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Grow makes room for n more bytes, so that writing them appends without
// reallocating the buffer.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		buf := make([]byte, len(w.buf), len(w.buf)+n)
		copy(buf, w.buf)
		w.buf = buf
	}
}

// Bytes returns the accumulated image.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a uint32 length prefix followed by the raw bytes.
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes32([]byte(s)) }

// Raw appends bytes with no length prefix (for fixed-size payloads whose
// length both sides already know).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader consumes an encoded state image. The first failure sticks: every
// subsequent read returns the zero value, and Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an image for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.buf) - r.off
}

// Fail records a decode failure (used by decoders for semantic errors found
// after a structurally successful read).
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written with Writer.Int. Values that do not fit the host
// int fail as corrupt.
func (r *Reader) Int() int {
	v := r.I64()
	n := int(v)
	if int64(n) != v {
		r.Fail(Corruptf("int64 %d overflows host int", v))
		return 0
	}
	return n
}

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a bool. Any byte other than 0 or 1 is corrupt.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(Corruptf("bool byte out of range"))
		return false
	}
}

// Bytes32 reads a length-prefixed byte slice. The declared length is bounded
// by the remaining image size, so a corrupt length cannot cause a huge
// allocation: allocation is at most the image itself.
func (r *Reader) Bytes32() []byte {
	n := r.U32()
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes32()) }

// Raw reads exactly n bytes with no length prefix.
func (r *Reader) Raw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
