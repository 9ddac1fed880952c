package resultcache

// FuzzResultCacheCodec guards the cache entry codec against the two ways a
// persistent format goes wrong: losing information on its own output, and
// trusting foreign bytes. Arbitrary input must never panic the decoder
// (the target decodes through decodeReport, which has no recover, so a
// panic fails it), and anything the decoder accepts must re-encode
// byte-identically (the codec is a fixed point on its own output — the
// invariant behind serving cached entries without re-validating them
// against the pipeline).

import (
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/wire"
)

func FuzzResultCacheCodec(f *testing.F) {
	for _, seed := range []struct {
		app     string
		explain bool
	}{
		{"Diode", false},
		{"radio reddit", true},
		{"TED", false},
	} {
		app, err := corpus.ByName(seed.app)
		if err != nil {
			f.Fatal(err)
		}
		opts := core.NewOptions()
		opts.Explain = seed.explain
		rep, err := core.Analyze(app.Prog, opts)
		if err != nil {
			f.Fatal(err)
		}
		rep.Duration = 0
		rep.Profile = nil
		enc, err := EncodeReport(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(hostileHeaderCount())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw mutation first: must reject or accept cleanly, never panic.
		if rep, err := decodeReport(data); err == nil {
			roundTrip(t, rep, data)
		}

		// Re-seal the payload so mutations reach the structure decoding
		// behind the checksum, not just the envelope check.
		if len(data) < wire.HeaderLen {
			return
		}
		sealed := wire.Seal(codecMagic, CodecVersion, data[wire.HeaderLen:])
		if rep, err := decodeReport(sealed); err == nil {
			roundTrip(t, rep, sealed)
		}
	})
}

// roundTrip checks the fixed-point invariant on a decoder-accepted entry:
// re-encoding reproduces the input bytes, and the re-encoding still decodes.
func roundTrip(t *testing.T, rep *core.Report, data []byte) {
	t.Helper()
	enc, err := EncodeReport(rep)
	if err != nil {
		t.Fatalf("decoder accepted an entry the encoder rejects: %v", err)
	}
	if string(enc) != string(data) {
		t.Fatalf("codec is not a fixed point:\n in: %d bytes\nout: %d bytes", len(data), len(enc))
	}
	if _, err := decodeReport(enc); err != nil {
		t.Fatalf("re-encoded entry fails to decode: %v", err)
	}
}
