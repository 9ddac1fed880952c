// Command apkgen writes the 34-application evaluation corpus to disk as
// .apkb binary containers, ready for cmd/extractocol.
//
// Usage:
//
//	apkgen [-out dir] [-obfuscate] [app names...]
//
// Without arguments every corpus app is generated. -obfuscate applies the
// ProGuard-like renamer before encoding (entry points kept).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"extractocol/internal/corpus"
	"extractocol/internal/dex"
	"extractocol/internal/obfuscate"
)

func main() {
	out := flag.String("out", "apks", "output directory")
	obf := flag.Bool("obfuscate", false, "obfuscate app identifiers before encoding")
	flag.Parse()

	if err := run(*out, *obf, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "apkgen:", err)
		os.Exit(1)
	}
}

func run(dir string, obf bool, names []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	apps := corpus.Apps()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, app := range apps {
		if len(want) > 0 && !want[app.Spec.Name] {
			continue
		}
		if obf {
			obfuscate.Apply(app.Prog)
		}
		path := filepath.Join(dir, slug(app.Spec.Name)+".apkb")
		if err := dex.WriteFile(path, app.Prog); err != nil {
			return fmt.Errorf("%s: %w", app.Spec.Name, err)
		}
		fmt.Printf("wrote %s (%d classes, %d instructions)\n",
			path, len(app.Prog.Classes()), app.Prog.InstrCount())
	}
	return nil
}

func slug(name string) string {
	s := strings.ToLower(name)
	s = strings.NewReplacer(" ", "-", ":", "", ",", "", "&", "and").Replace(s)
	return s
}
