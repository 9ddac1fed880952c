// Exported functions must have a production caller: a function or method
// that only _test.go files reach is test code living in the program, and it
// belongs in the tests that use it.
package extractocol

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods that no non-test
// file mentions and that stay anyway, each with its reason. Keys are
// "<pkg>.<Name>" for functions and "<pkg>.<Recv>.<Name>" for methods, where
// <pkg> is the package's directory, or "extractocol" for the root.
var testOnlyExports = map[string]string{
	"extractocol.AnalyzeFile":    "the module's public API (README quickstart)",
	"extractocol.DefaultOptions": "the module's public API",
	"extractocol.TextReport":     "the module's public API",
	"extractocol.JSONReport":     "the module's public API",
	"extractocol.DOTReport":      "the module's public API",

	"internal/obfuscate.Deobfuscate": "the paper's §3.4 step, not on the analysis path yet; whether it joins it or leaves the tree is still open",

	"internal/budget.NewFaultInjector": "how a caller arms core.Options.Faults; the root fault, determinism and telemetry tests build injectors with it",
	"internal/ir.B.IfEq":               "runtime's TestBranchTakenByInput builds its branch with it",
	"internal/ir.B.InvokeStaticVoid":   "sigbuild's TestCalleeWritesCallerObjects builds its helper calls with it",

	"internal/taint.Result.AddHeapRead":  "one-line setter; the legacy replay in legacy_test.go and TestResultHelpers fill Results with it",
	"internal/taint.Result.AddHeapWrite": "one-line setter; the legacy replay in legacy_test.go and TestResultHelpers fill Results with it",
	"internal/taint.Result.AddSink":      "one-line setter; the legacy replay in legacy_test.go and TestResultHelpers fill Results with it",
	"internal/taint.Result.AddSource":    "one-line setter; the legacy replay in legacy_test.go and TestResultHelpers fill Results with it",
}

// stdInterfaceMethods are method names that satisfy standard-library
// interfaces (fmt.Stringer, error, io.Writer, sort.Interface, ...): the
// standard library calls them, so no file of this tree need name them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Read": true, "Write": true, "Close": true, "WriteString": true,
	"ReadFrom": true, "WriteTo": true, "Seek": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "RoundTrip": true,
}

// TestNoTestOnlyExports parses every .go file of the tree, perfbench/ and
// examples/ included, and fails on an exported function or method whose
// name no non-test file mentions outside its own body. The match is by
// name, so it can miss a test-only export that shares a used name; it
// cannot flag a used one.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // key → name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = "extractocol"
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				markUsed(used, decl, "")
				continue
			}
			if fd.Recv != nil {
				markUsed(used, fd.Recv, "")
			}
			markUsed(used, fd.Type, "")
			if fd.Body != nil {
				markUsed(used, fd.Body, fd.Name.Name)
			}
			if !fd.Name.IsExported() {
				continue
			}
			key := dir + "." + fd.Name.Name
			if fd.Recv != nil {
				if stdInterfaceMethods[fd.Name.Name] {
					continue
				}
				key = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			declared[key] = fd.Name.Name
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for key, name := range declared {
		if _, ok := testOnlyExports[key]; !ok && !used[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported, but only tests call it; move it into the tests that use it, delete it, or allow-list it with a reason", key)
	}
	for key, reason := range testOnlyExports {
		if _, ok := declared[key]; !ok {
			t.Errorf("allow-list entry %s (%s) names no declared function", key, reason)
		} else if used[declared[key]] {
			t.Errorf("allow-list entry %s has a production caller now; drop it from the list", key)
		}
	}
}

// markUsed records every identifier under n, except self: a function that
// names itself in its own body is recursive, not called.
func markUsed(used map[string]bool, n ast.Node, self string) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name != self {
			used[id.Name] = true
		}
		return true
	})
}

// recvName is a method receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
