package wire

import (
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(math.MinInt64)
	w.Bool(true)
	w.Byte(0xFE)
	w.String("héllo")
	w.Float64(-0.25)
	w.Uvarint(2) // a count of two one-byte elements
	w.Bool(false)
	w.Bool(false)
	payload, err := Unseal(Seal(testMagic, 3, w.Bytes()[:4], w.Bytes()[4:]), testMagic, 3)
	if err != nil {
		t.Fatal(err)
	}

	r := NewReader(payload)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -1 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if b := r.Byte(); b != 0xFE {
		t.Errorf("Byte = %#x", b)
	}
	if s, e := r.Span(); string(payload[s:e]) != "héllo" {
		t.Errorf("Span = %q", payload[s:e])
	}
	if f := r.Float64(); f != -0.25 {
		t.Errorf("Float64 = %v", f)
	}
	if n := r.Count(1); n != 2 {
		t.Errorf("Count = %d", n)
	}
	r.Bool()
	r.Bool()
	if r.Err() != nil || r.Len() != 0 || r.Offset() != len(payload) {
		t.Fatalf("err %v, %d bytes left at offset %d", r.Err(), r.Len(), r.Offset())
	}
}

func TestUnsealRejects(t *testing.T) {
	sealed := Seal(testMagic, 3, []byte{1, 2, 3})
	flip := func(i int) []byte {
		out := append([]byte(nil), sealed...)
		out[i] ^= 1
		return out
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"short", sealed[:HeaderLen-1], ErrBadMagic},
		{"magic", flip(0), ErrBadMagic},
		{"version", flip(4), ErrBadVersion},
		{"checksum", flip(6), ErrBadChecksum},
		{"payload", flip(HeaderLen), ErrBadChecksum},
	} {
		if _, err := Unseal(tc.data, testMagic, 3); !errors.Is(err, tc.want) {
			t.Errorf("%s: Unseal = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReaderRejects checks that the reader accepts only what Writer
// writes, and that its first error sticks.
func TestReaderRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		read    func(r *Reader)
		want    string
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, io.ErrUnexpectedEOF.Error()},
		{"cut uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, io.ErrUnexpectedEOF.Error()},
		{"long uvarint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, "not in its shortest form"},
		{"long varint", []byte{0x80, 0x80, 0x00}, func(r *Reader) { r.Varint() }, "not in its shortest form"},
		{"bool", []byte{2}, func(r *Reader) { r.Bool() }, "bool byte 2"},
		{"byte", nil, func(r *Reader) { r.Byte() }, io.ErrUnexpectedEOF.Error()},
		{"span", []byte{3, 'a', 'b'}, func(r *Reader) { r.Span() }, io.ErrUnexpectedEOF.Error()},
		{"float", make([]byte, 7), func(r *Reader) { r.Float64() }, io.ErrUnexpectedEOF.Error()},
		{"count", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) },
			"count 3 of elements of at least 2 bytes exceeds 5 remaining payload bytes"},
	} {
		r := NewReader(tc.payload)
		tc.read(&r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		first := r.Err()
		if r.Uvarint() != 0 || r.Err() != first {
			t.Errorf("%s: a read after the error returned a value or replaced the error", tc.name)
		}
	}
}
