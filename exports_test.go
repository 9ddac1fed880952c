// Exported functions must have a production caller: a function or method
// that only _test.go files reach is test code living in the program, and it
// belongs in the tests that use it.
package extractocol

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported functions and methods that no non-test
// file uses and that stay anyway, each with its reason. Keys are
// "<pkg>.<Name>" for functions and "<pkg>.<Recv>.<Name>" for methods, where
// <pkg> is the package's directory, or "extractocol" for the root.
var testOnlyExports = map[string]string{
	"extractocol.Analyze":        "the module's public API",
	"extractocol.AnalyzeFile":    "the module's public API (README quickstart)",
	"extractocol.DefaultOptions": "the module's public API",
	"extractocol.TextReport":     "the module's public API",
	"extractocol.JSONReport":     "the module's public API",
	"extractocol.DOTReport":      "the module's public API",

	"internal/budget.NewFaultInjector": "how a caller arms core.Options.Faults; the root fault, determinism and telemetry tests build injectors with it",
	"internal/ir.B.IfEq":               "runtime's TestBranchTakenByInput builds its branch with it",
	"internal/ir.B.InvokeStaticVoid":   "sigbuild's TestCalleeWritesCallerObjects builds its helper calls with it",
	"internal/siglang.Parse":           "FuzzSigVM and the sigvm, report and trace tests build signatures from their text form",
	"internal/taint.Result.Clone":      "the root BenchmarkAugment and the augment row of TestAllocCeilings copy the seed slice before every augmentation",
}

// modulePath is the import path of the repository root; perfbench's module
// path extends it, so one prefix covers both modules.
const modulePath = "extractocol"

// stdInterfaces declares the standard-library interfaces through which the
// standard library calls methods of this tree: a method that completes one
// of them has a caller that no file here names. They are checked against
// the same empty stubs as the tree, so a standard-library type in a
// signature (fmt.State, io.Writer, *http.Request) matches any other; the
// same holds for the tree's own interfaces.
const stdInterfaces = `package std

import (
	"fmt"
	"io"
	"net/http"
)

type (
	Stringer        interface{ String() string }
	GoStringer      interface{ GoString() string }
	Formatter       interface{ Format(fmt.State, rune) }
	Error           interface{ Error() string }
	Unwrapper       interface{ Unwrap() error }
	ErrorIs         interface{ Is(error) bool }
	ErrorAs         interface{ As(any) bool }
	Reader          interface{ Read([]byte) (int, error) }
	Writer          interface{ Write([]byte) (int, error) }
	Closer          interface{ Close() error }
	StringWriter    interface{ WriteString(string) (int, error) }
	ReaderFrom      interface{ ReadFrom(io.Reader) (int64, error) }
	WriterTo        interface{ WriteTo(io.Writer) (int64, error) }
	Seeker          interface{ Seek(int64, int) (int64, error) }
	Sorter          interface{ Len() int; Less(i, j int) bool; Swap(i, j int) }
	Heap            interface{ Sorter; Push(any); Pop() any }
	JSONMarshaler   interface{ MarshalJSON() ([]byte, error) }
	JSONUnmarshaler interface{ UnmarshalJSON([]byte) error }
	TextMarshaler   interface{ MarshalText() ([]byte, error) }
	TextUnmarshaler interface{ UnmarshalText([]byte) error }
	Handler         interface{ ServeHTTP(http.ResponseWriter, *http.Request) }
	RoundTripper    interface{ RoundTrip(*http.Request) (*http.Response, error) }
)
`

// TestNoTestOnlyExports type-checks every non-test .go file of the tree,
// perfbench/ and examples/ included, and fails on an exported function or
// method that no non-test file uses outside its own body. Uses resolve by
// type, so a test-only method is reported by its full name even where
// production calls another method of the same name. A method also counts
// as used when it implements a method of an interface that a non-test file
// calls, or completes one of stdInterfaces.
//
// This module's packages are checked from source. Every other import is
// an empty stub, and the type errors the stubs cause are ignored: a use
// they leave unresolved can only make a used export look unused, never
// hide a test-only one.
func TestNoTestOnlyExports(t *testing.T) {
	imp := &srcImporter{
		fset:  token.NewFileSet(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(imp.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := modulePath
		if dir != "." {
			ip += "/" + filepath.ToSlash(dir)
		}
		imp.files[ip] = append(imp.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for ip := range imp.files {
		imp.Import(ip)
	}
	stdFile, err := parser.ParseFile(imp.fset, "std.go", stdInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	std := imp.check("std", []*ast.File{stdFile})

	// Declared exports, with their bodies for the recursion rule.
	declared := map[string]*types.Func{}
	bodies := map[*types.Func]*ast.BlockStmt{}
	for ip, files := range imp.files {
		pkg := strings.TrimPrefix(ip, modulePath+"/")
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, _ := imp.info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				bodies[fn] = fd.Body
				if !fd.Name.IsExported() {
					continue
				}
				key := pkg + "." + fn.Name()
				if named := recvNamed(fn); named != nil {
					key = pkg + "." + named.Obj().Name() + "." + fn.Name()
				}
				declared[key] = fn
			}
		}
	}

	// Uses, except a function's own: one that names itself in its body is
	// recursive, not called. Interface methods used this way are calls
	// through an interface, which reach every implementation.
	used := map[*types.Func]bool{}
	var ifaceCalls []*types.Func
	for id, obj := range imp.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if body := bodies[fn]; body != nil && body.Pos() <= id.Pos() && id.Pos() < body.End() {
			continue
		}
		if !used[fn] {
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls = append(ifaceCalls, fn)
			}
		}
	}
	var stdIfaces []*types.Interface
	for _, name := range std.Scope().Names() {
		stdIfaces = append(stdIfaces, std.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	isUsed := func(fn *types.Func) bool {
		if used[fn] {
			return true
		}
		named := recvNamed(fn)
		if named == nil {
			return false
		}
		for _, call := range ifaceCalls {
			if call.Name() == fn.Name() && implements(named, call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		for _, iface := range stdIfaces {
			if hasMethod(iface, fn.Name()) && implements(named, iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	for key, fn := range declared {
		if _, ok := testOnlyExports[key]; !ok && !isUsed(fn) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s: exported, but only tests call it; move it into the tests that use it, delete it, or allow-list it with a reason", key)
	}
	for key, reason := range testOnlyExports {
		if fn, ok := declared[key]; !ok {
			t.Errorf("allow-list entry %s (%s) names no declared function", key, reason)
		} else if reason == "" {
			t.Errorf("allow-list entry %s has no reason", key)
		} else if isUsed(fn) {
			t.Errorf("allow-list entry %s has a production caller now; drop it from the list", key)
		}
	}
}

// srcImporter type-checks this module's packages from their parsed files,
// recording every package's definitions and uses into one Info, and stubs
// every other import with an empty package.
type srcImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path → non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *srcImporter) Import(ip string) (*types.Package, error) {
	if pkg, ok := im.pkgs[ip]; ok {
		return pkg, nil
	}
	files, ok := im.files[ip]
	if !ok {
		pkg := types.NewPackage(ip, path.Base(ip))
		pkg.MarkComplete()
		im.pkgs[ip] = pkg
		return pkg, nil
	}
	pkg := im.check(ip, files)
	im.pkgs[ip] = pkg
	return pkg, nil
}

// check type-checks one package, ignoring its type errors.
func (im *srcImporter) check(ip string, files []*ast.File) *types.Package {
	conf := types.Config{Importer: im, Error: func(error) {}}
	pkg, _ := conf.Check(ip, im.fset, files, im.info)
	return pkg
}

// recvNamed is a method's receiver type without pointer, nil for a
// function or a receiver the stubs left unresolved.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// implements reports whether T or *T implements iface. A generic type is
// never checked: only its instances have method sets.
func implements(named *types.Named, iface *types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// hasMethod reports whether iface's method set has a method of that name.
func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}
