package dex

import (
	"testing"

	"extractocol/internal/wire"
)

// FuzzDexDecode throws mutated .apkb containers at Decode. Corrupt input
// must surface as an error, never a panic or a runaway allocation: the
// decoder bounds every element count by the number of elements of its
// minimum encoded size the remaining payload can hold (wire.Reader.Count)
// precisely so that hostile containers cannot make it preallocate
// gigabytes or spin on phantom elements.
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
		if p, err := Decode(data); err == nil {
			// Whatever the decoder accepts must re-encode cleanly.
			if _, err := Encode(p); err != nil {
				t.Fatalf("decoded program fails to re-encode: %v", err)
			}
		}

		// Re-seal: keep the mutated payload but make the header honest,
		// so the mutation reaches the section parsers.
		if len(data) < wire.HeaderLen {
			return
		}
		sealed := wire.Seal(Magic, Version, data[wire.HeaderLen:])
		if p, err := Decode(sealed); err == nil {
			if _, err := Encode(p); err != nil {
				t.Fatalf("decoded program fails to re-encode: %v", err)
			}
		}
	})
}
