package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"extractocol/internal/core"
	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/ir"
)

// TestWireFormatsPinned pins the bytes of both encodings: an .apkb
// container written by this version must decode in the next, and a cache
// entry must never be misread, so neither format may change unless its
// version changes with it. Each hash runs over the encodings of the 34
// corpus apps and 100 generated ones, in order. The container hash moves
// only with the .apkb format or the corpus. The entry hash moves with the
// cache format and also with any change to the reports themselves, which
// testdata/report_digest.json and the -gen digest pin as well; a change
// that moves those on purpose re-pins this too.
func TestWireFormatsPinned(t *testing.T) {
	const (
		wantContainers = "9ae5ad185e6d6863d63072ae4ecd4bb916e1f2bb6b97b2cd8f3e5427f8cfb9e9"
		wantEntries    = "c20e95f6f5f09efa399af140a13e96535f500f815cc68cc8050876b413de3500"
	)
	var progs []*ir.Program
	for _, a := range corpus.Apps() {
		progs = append(progs, a.Prog)
	}
	for _, a := range corpus.Rand(1729, 100) {
		progs = append(progs, a.Prog)
	}
	containers, entries := sha256.New(), sha256.New()
	opts := core.NewOptions()
	opts.Explain = true
	for _, p := range progs {
		data, err := dex.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		containers.Write(data)
		decoded, err := dex.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Analyze(decoded, opts)
		if err != nil {
			t.Fatal(err)
		}
		entry, err := EncodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		entries.Write(entry)
	}
	for _, c := range []struct{ name, got, want string }{
		{".apkb containers", hex.EncodeToString(containers.Sum(nil)), wantContainers},
		{"cache entries", hex.EncodeToString(entries.Sum(nil)), wantEntries},
	} {
		if c.got != c.want {
			t.Errorf("%s hash to %s, want %s: bump dex.Version / resultcache.CodecVersion and re-pin", c.name, c.got, c.want)
		}
	}
}
