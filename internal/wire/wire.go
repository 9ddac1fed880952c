// Package wire is the one binary format behind both persistent encodings
// of the analyzer: the .apkb container (package dex) and the report-cache
// entry (package resultcache). Each is sealed as
//
//	magic [4]byte | u16 version | u32 crc32(payload) | payload
//
// with little-endian header fields. A payload is a sequence of varints
// (unsigned, or zig-zag signed for ints), one-byte bools and tags,
// length-prefixed strings and 8-byte little-endian floats; what the values
// mean is the encoding package's business.
//
// Reader accepts only what Writer produces: a varint in more bytes than it
// needs or a bool byte other than 0 and 1 is an error, so a payload that
// decodes re-encodes to the same bytes. Reader.Count bounds every element
// count by the payload bytes left at the element's minimum encoded size, so
// hostile input fails before anything is sized from it.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// HeaderLen is the length of the seal in front of every payload.
const HeaderLen = 10

// Errors returned by Unseal. Each encoding package wraps them with its
// own prefix.
var (
	ErrBadMagic    = errors.New("bad magic")
	ErrBadVersion  = errors.New("unsupported format version")
	ErrBadChecksum = errors.New("payload checksum mismatch")
)

// Seal returns magic | version | crc32(payload) | payload, where the
// payload is the concatenation of parts.
func Seal(magic [4]byte, version uint16, parts ...[]byte) []byte {
	n, crc := HeaderLen, uint32(0)
	for _, p := range parts {
		n += len(p)
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	out := make([]byte, 0, n)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint16(out, version)
	out = binary.LittleEndian.AppendUint32(out, crc)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Unseal checks the magic, version and checksum of data and returns its
// payload.
func Unseal(data []byte, magic [4]byte, version uint16) ([]byte, error) {
	if len(data) < HeaderLen || !bytes.Equal(data[:4], magic[:]) {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != version {
		return nil, fmt.Errorf("%w %d (want %d)", ErrBadVersion, v, version)
	}
	payload := data[HeaderLen:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[6:HeaderLen]) {
		return nil, ErrBadChecksum
	}
	return payload, nil
}

// Writer appends a payload to a buffer that doubles as it fills.
type Writer struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

// Bytes returns the payload written so far.
func (w *Writer) Bytes() []byte { return w.buf.Bytes() }

func (w *Writer) Uvarint(v uint64) { w.buf.Write(binary.AppendUvarint(w.tmp[:0], v)) }

func (w *Writer) Varint(v int64) { w.buf.Write(binary.AppendVarint(w.tmp[:0], v)) }

func (w *Writer) Byte(b byte) { w.buf.WriteByte(b) }

func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// String writes s prefixed with its length.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *Writer) Float64(v float64) {
	w.buf.Write(binary.LittleEndian.AppendUint64(w.tmp[:0], math.Float64bits(v)))
}

// Reader decodes a payload. Its first error sticks: every later read
// returns a zero value, so a decoder checks Err where it must stop (before
// a loop's next element) and once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a Reader at the start of payload.
func NewReader(payload []byte) Reader { return Reader{data: payload} }

// Err returns the first error the reader met.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier error stuck.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Offset returns how many payload bytes have been read.
func (r *Reader) Offset() int { return r.off }

// Len returns how many payload bytes are left.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Uvarint and Varint decode a one-byte value before anything else: nearly
// every register, opcode, count, index and length in either encoding is
// one byte.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		r.off++
		return uint64(r.data[r.off-1])
	}
	v, n := binary.Uvarint(r.data[r.off:])
	r.varintLen(n)
	return v
}

func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.data) && r.data[r.off] < 0x80 {
		b := r.data[r.off]
		r.off++
		if b&1 != 0 {
			return ^int64(b >> 1)
		}
		return int64(b >> 1)
	}
	v, n := binary.Varint(r.data[r.off:])
	r.varintLen(n)
	return v
}

// varintLen advances past a multi-byte varint of n bytes, where n is what
// binary.Uvarint or Varint returned; a last byte of 0 means the value fits
// in fewer bytes, which Writer never produces.
func (r *Reader) varintLen(n int) {
	switch {
	case n <= 0:
		r.Fail(io.ErrUnexpectedEOF)
	case r.data[r.off+n-1] == 0:
		r.Fail(fmt.Errorf("varint at offset %d is not in its shortest form", r.off))
	default:
		r.off += n
	}
}

// Byte reads one byte, such as a tag.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.Fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.off++
	return r.data[r.off-1]
}

func (r *Reader) Bool() bool {
	switch b := r.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("bool byte %d at offset %d", b, r.off-1))
		return false
	}
}

// Span reads a length-prefixed string and returns the offsets of its bytes
// in the payload, so a decoder can slice every string out of one copy of
// the payload instead of allocating each.
func (r *Reader) Span() (start, end int) {
	n := r.Uvarint()
	if r.err != nil {
		return 0, 0
	}
	if n > uint64(r.Len()) {
		r.Fail(io.ErrUnexpectedEOF)
		return 0, 0
	}
	start = r.off
	r.off += int(n)
	return start, r.off
}

func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if r.Len() < 8 {
		r.Fail(io.ErrUnexpectedEOF)
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off-8:]))
}

// Count reads an element count and rejects one that cannot fit in the
// rest of the payload: every element encodes in at least minSize bytes.
// This bounds both preallocation sizes and loop trip counts.
func (r *Reader) Count(minSize int) uint64 {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if left := r.Len(); n > uint64(left/minSize) {
		r.Fail(fmt.Errorf("count %d of elements of at least %d bytes exceeds %d remaining payload bytes", n, minSize, left))
		return 0
	}
	return n
}
