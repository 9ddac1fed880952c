package dex

import (
	"testing"

	"extractocol/internal/wire"
)

// FuzzDexDecode throws mutated .apkb containers at the decoder. Corrupt
// input must surface as an error, never a panic or a runaway allocation:
// the decoder bounds every element count by the number of elements of its
// minimum encoded size the remaining payload can hold (wire.Reader.Count)
// precisely so that hostile containers cannot make it preallocate
// gigabytes or spin on phantom elements.
//
// The target calls decode, not Decode: Decode turns a decoder panic into
// an error, which would pass here as a clean rejection, while a panic is
// a hole in the bounds checks. Every container the decoder accepts must
// re-encode to one that decodes to an equal program.
//
// Most random mutations die at the CRC check without touching the decoder
// body, so the target also re-seals the mutated payload with a fresh
// checksum and decodes that; this drives the fuzzer into the string pool,
// class, method and instruction parsers.
func FuzzDexDecode(f *testing.F) {
	valid, err := Encode(sampleProgram())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:10]) // header only, empty payload
	f.Add([]byte{})
	f.Add([]byte("APKB"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-3] ^= 0xFF
	f.Add(corrupt)
	f.Add(hostileClassCount())

	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data)
		// Re-seal: keep the mutated payload but make the header honest,
		// so the mutation reaches the section parsers.
		if len(data) >= wire.HeaderLen {
			checkRoundTrip(t, wire.Seal(Magic, Version, data[wire.HeaderLen:]))
		}
	})
}

// checkRoundTrip decodes data and, if the decoder accepts it, requires
// the program to survive Encode and decode unchanged.
func checkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	p, err := decode(data)
	if err != nil {
		return
	}
	enc, err := Encode(p)
	if err != nil {
		t.Fatalf("decoded program fails to re-encode: %v", err)
	}
	got, err := decode(enc)
	if err != nil {
		t.Fatalf("re-encoded program fails to decode: %v", err)
	}
	assertProgramsEqual(t, p, got)
}
