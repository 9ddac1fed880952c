package dex

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"extractocol/internal/ir"
)

func sampleProgram() *ir.Program {
	p := ir.NewProgram("com.example.app")
	p.Manifest.AppName = "Example"
	p.Resources["api_key"] = "SECRET-123"
	p.Resources["base_url"] = "https://api.example.com"

	c := p.AddClass(&ir.Class{
		Name:       "com.example.app.Main",
		Super:      "android.app.Activity",
		Interfaces: []string{"java.lang.Runnable"},
		Fields: []*ir.Field{
			{Name: "token", Type: "java.lang.String"},
			{Name: "count", Type: "int", Static: true},
		},
	})
	b := ir.NewMethod(c, "onCreate", false, nil, "void")
	url := b.ConstStr("https://api.example.com/v1/items.json")
	req := b.New("org.apache.http.client.methods.HttpGet")
	b.InvokeSpecial("org.apache.http.client.methods.HttpGet.<init>", req, url)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial("org.apache.http.impl.client.DefaultHttpClient.<init>", cl)
	resp := b.Invoke("org.apache.http.client.HttpClient.execute", cl, req)
	n := b.ConstInt(-42)
	b.FieldPut(b.This(), "token", n)
	_ = resp
	b.ReturnVoid()
	b.Done()

	p.Manifest.EntryPoints = []ir.EntryPoint{
		{Method: "com.example.app.Main.onCreate", Kind: ir.EventCreate, Label: "launch"},
	}
	return p
}

func TestRoundTrip(t *testing.T) {
	p := sampleProgram()
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	assertProgramsEqual(t, p, got)
}

func assertProgramsEqual(t *testing.T, want, got *ir.Program) {
	t.Helper()
	if !reflect.DeepEqual(want.Manifest, got.Manifest) {
		t.Fatalf("manifest mismatch:\nwant %+v\ngot  %+v", want.Manifest, got.Manifest)
	}
	if !reflect.DeepEqual(want.Resources, got.Resources) {
		t.Fatalf("resources mismatch: %v vs %v", want.Resources, got.Resources)
	}
	wc, gc := want.Classes(), got.Classes()
	if len(wc) != len(gc) {
		t.Fatalf("class count %d vs %d", len(wc), len(gc))
	}
	for i := range wc {
		if wc[i].Name != gc[i].Name || wc[i].Super != gc[i].Super || wc[i].Library != gc[i].Library {
			t.Fatalf("class %d header mismatch", i)
		}
		if !reflect.DeepEqual(wc[i].Interfaces, gc[i].Interfaces) {
			t.Fatalf("class %s interfaces mismatch", wc[i].Name)
		}
		if !reflect.DeepEqual(wc[i].Fields, gc[i].Fields) {
			t.Fatalf("class %s fields mismatch", wc[i].Name)
		}
		if len(wc[i].Methods) != len(gc[i].Methods) {
			t.Fatalf("class %s method count mismatch", wc[i].Name)
		}
		for j := range wc[i].Methods {
			wm, gm := wc[i].Methods[j], gc[i].Methods[j]
			if wm.Name != gm.Name || wm.Return != gm.Return || wm.Static != gm.Static ||
				wm.Registers != gm.Registers {
				t.Fatalf("method %s.%s header mismatch", wc[i].Name, wm.Name)
			}
			if !reflect.DeepEqual(wm.Params, gm.Params) {
				t.Fatalf("method %s params mismatch", wm.Name)
			}
			if !reflect.DeepEqual(wm.Instrs, gm.Instrs) {
				t.Fatalf("method %s instrs mismatch:\nwant %v\ngot  %v", wm.Name, wm.Instrs, gm.Instrs)
			}
		}
	}
}

func TestEncodeIsDeterministic(t *testing.T) {
	a, err := Encode(sampleProgram())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(sampleProgram())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same program differ")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data, _ := Encode(sampleProgram())
	data[0] = 'X'
	if _, err := Decode(data); err == nil {
		t.Fatal("accepted bad magic")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	data, _ := Encode(sampleProgram())
	data[4] = 0xFF
	if _, err := Decode(data); err == nil {
		t.Fatal("accepted bad version")
	}
}

func TestDecodeRejectsCorruptPayload(t *testing.T) {
	data, _ := Encode(sampleProgram())
	data[len(data)-1] ^= 0x55
	if _, err := Decode(data); err == nil {
		t.Fatal("accepted corrupted payload (checksum should fail)")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	data, _ := Encode(sampleProgram())
	for _, n := range []int{0, 3, 9} {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("accepted %d-byte truncation", n)
		}
	}
}

// Encode writes any program; Decode must refuse one whose superclass chain
// is cyclic, since every dispatch walk over it would never terminate.
func TestDecodeRejectsSuperclassCycle(t *testing.T) {
	p := sampleProgram()
	p.AddClass(&ir.Class{Name: "com.example.app.A", Super: "com.example.app.B"})
	p.AddClass(&ir.Class{Name: "com.example.app.B", Super: "com.example.app.A"})
	data, err := Encode(p)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	_, err = Decode(data)
	if err == nil || !strings.Contains(err.Error(), "class com.example.app.A: superclass chain is cyclic") {
		t.Fatalf("Decode = %v, want a cyclic superclass chain error", err)
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.apkb")
	p := sampleProgram()
	if err := WriteFile(path, p); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	assertProgramsEqual(t, p, got)
}

// Property: any syntactically valid single-method program round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(pkg string, res map[string]string, strs []string, ints []int64) bool {
		p := ir.NewProgram("p." + sanitize(pkg))
		if res != nil {
			for k, v := range res {
				p.Resources[k] = v
			}
		}
		c := p.AddClass(&ir.Class{Name: "p.C"})
		b := ir.NewMethod(c, "m", true, nil, "void")
		for _, s := range strs {
			b.ConstStr(s)
		}
		for _, v := range ints {
			b.ConstInt(v)
		}
		b.ReturnVoid()
		b.Done()

		data, err := Encode(p)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		gm := got.Method("p.C.m")
		if gm == nil || len(gm.Instrs) != len(strs)+len(ints)+1 {
			return false
		}
		if !reflect.DeepEqual(got.Resources, p.Resources) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == '.' {
			continue
		}
		out = append(out, r)
	}
	return string(out)
}

func TestStringPoolDeduplicates(t *testing.T) {
	// A program repeating one long string many times must encode smaller
	// than the repeated strings themselves.
	p := ir.NewProgram("t")
	c := p.AddClass(&ir.Class{Name: "t.C"})
	b := ir.NewMethod(c, "m", true, nil, "void")
	long := string(bytes.Repeat([]byte("x"), 1000))
	for i := 0; i < 50; i++ {
		b.ConstStr(long)
	}
	b.ReturnVoid()
	b.Done()
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 5000 {
		t.Fatalf("encoding is %d bytes; string pool not deduplicating", len(data))
	}
}
