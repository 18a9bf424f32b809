// Package snapshot is the versioned binary encoding layer under the chip
// checkpoint feature: a deterministic little-endian Writer/Reader pair with
// a magic header, a schema stamp and a whole-blob CRC, shared by every
// component's SaveState/LoadState implementation.
//
// Design rules, in service of the two contracts the feature depends on:
//
//   - Determinism. The same chip state always encodes to the same bytes:
//     maps are emitted in sorted key order, floats as their IEEE-754 bit
//     patterns, and there is no timestamp, pointer or padding anywhere in
//     the stream. Snapshot bytes are therefore directly comparable (the
//     component round-trip tests re-encode a restored state and compare
//     bytes).
//
//   - Translation invariance. Components never store absolute cycle
//     numbers; busy-until style fields are delta-encoded against the
//     snapshot cycle via Delta/Abs, clamped at zero, so a restored chip
//     behaves identically no matter what clock base it resumes from.
//
//   - Hostile-input safety. A Reader never panics on corrupt input:
//     the header, schema and CRC are validated up front, every length
//     prefix is bounds-checked against the remaining payload, and the
//     first failure latches a sticky error that every subsequent accessor
//     observes. Callers check Err (or Close) once at the end.
//
// Section tags (Tag) frame each component's region so a drifted encoder/
// decoder pair fails loudly at the component boundary instead of silently
// misinterpreting the stream.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// SchemaVersion identifies the snapshot wire layout. Bump it on any change
// to what any component encodes: restore refuses blobs from another schema
// (ErrSchema), and the serve-layer snapshot store keys its directory by this
// constant so skewed blobs from older builds are never even offered.
// Schema 2 encodes the L2 tag store per chunk of sets, with a presence flag
// and the ways of allocated chunks only.
const SchemaVersion = 2

// magic opens every snapshot blob. The trailing zero byte keeps it from
// being a prefix of any plausible text format.
var magic = [8]byte{'T', 'A', 'R', 'S', 'N', 'A', 'P', 0}

// headerLen is magic + uint32 schema; the blob ends with a uint32 CRC.
const headerLen = len(magic) + 4

// ErrCorrupt tags every decode failure caused by the blob itself —
// truncation, CRC mismatch, bad magic, an over-long length prefix, a tag
// mismatch. Callers branch on it with errors.Is to route bad blobs to
// quarantine instead of treating them as internal faults.
var ErrCorrupt = errors.New("snapshot: corrupt blob")

// ErrSchema tags a well-formed blob written by a different schema version.
// Distinct from ErrCorrupt so stores can count skew separately from damage,
// though both are non-fatal cache misses to the feature's callers.
var ErrSchema = errors.New("snapshot: schema mismatch")

// Writer builds one snapshot blob. The zero value is ready to use; Finish
// seals the header, payload and CRC into the final byte slice.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with the header pre-staged.
func NewWriter() *Writer {
	w := &Writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, SchemaVersion)
	return w
}

// U64 appends one little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U32 appends one little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// I64 appends one little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Delta appends abs relative to base, clamped at zero. Busy-until fields in
// the past are equivalent to "free now", so the clamp loses nothing, and the
// encoding is identical whatever clock base the chip ran under.
func (w *Writer) Delta(abs, base uint64) {
	if abs <= base {
		w.U64(0)
		return
	}
	w.U64(abs - base)
}

// Tag frames the start of a named section. Reader.Tag verifies it, turning
// any encoder/decoder drift into a positional error at the component
// boundary.
func (w *Writer) Tag(name string) { w.String(name) }

// Finish seals the blob: payload so far plus a CRC-32 (IEEE) over
// everything before it. The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	crc := crc32.ChecksumIEEE(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc)
	return w.buf
}

// payload validates the envelope and returns the payload bytes between the
// header and the CRC trailer.
func payload(blob []byte) ([]byte, error) {
	if len(blob) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(blob))
	}
	for i := range magic {
		if blob[i] != magic[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	if schema := binary.LittleEndian.Uint32(blob[len(magic):]); schema != SchemaVersion {
		return nil, fmt.Errorf("%w: blob is schema %d, this build reads schema %d", ErrSchema, schema, SchemaVersion)
	}
	return body[headerLen:], nil
}

// Reader decodes one snapshot blob. Construction validates the envelope;
// accessors return zero values after the first failure and latch it for Err.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader validates blob's magic, schema and CRC and returns a Reader
// positioned at the payload. ErrSchema and ErrCorrupt are distinguishable
// with errors.Is.
func NewReader(blob []byte) (*Reader, error) {
	p, err := payload(blob)
	if err != nil {
		return nil, err
	}
	return &Reader{buf: p}, nil
}

// fail latches the first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: offset %d: %s", ErrCorrupt, r.pos, fmt.Sprintf(format, args...))
	}
}

// take returns the next n payload bytes, or nil after latching truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.pos {
		r.fail("need %d bytes, %d remain", n, len(r.buf)-r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U64 reads one uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I64 reads one int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64-encoded int, rejecting values outside the platform
// int range is unnecessary (64-bit builds) but negative-where-impossible
// checks belong to callers.
func (r *Reader) Int() int { return int(r.I64()) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool, rejecting anything but 0 or 1.
func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte")
		return false
	}
}

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length prefix and bounds-checks it against the remaining
// payload scaled by elemSize (1 for raw bytes), so a hostile length cannot
// drive an allocation beyond the blob itself.
func (r *Reader) Len(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(r.buf)-r.pos)/uint64(elemSize) {
		r.fail("length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice (copied out of the blob).
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Abs reads a Delta-encoded cycle field and rebases it onto base. A zero
// delta decodes to base itself — "free now" — matching the Writer's clamp.
func (r *Reader) Abs(base uint64) uint64 {
	d := r.U64()
	if d > math.MaxUint64-base {
		r.fail("cycle delta %d overflows base %d", d, base)
		return base
	}
	return base + d
}

// Tag consumes a section tag and verifies it matches name.
func (r *Reader) Tag(name string) {
	got := r.String()
	if r.err == nil && got != name {
		r.fail("section tag %q, want %q", got, name)
	}
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Close finishes a decode: it returns the sticky error if any, and
// otherwise requires the payload to be fully consumed — trailing garbage
// means the encoder and decoder disagree about the layout.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes after decode", ErrCorrupt, len(r.buf)-r.pos)
	}
	return nil
}
