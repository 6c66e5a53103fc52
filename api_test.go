package katara

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the functions and methods under internal/ that
// may lack a non-test caller, each with the reason it stays.
var testOnlyAllowlist = map[string]string{
	"katara/internal/propcheck.RunSeed": "the oracle harness's entry point; its tests and fuzz target drive it",

	"katara/internal/crowd.Crowd.Calibrate":           "quality.go is kept until the crowd-aggregation comparison (ROADMAP item 7) decides it",
	"katara/internal/crowd.Crowd.EstimateReliability": "quality.go is kept until the crowd-aggregation comparison (ROADMAP item 7) decides it",
	"katara/internal/crowd.Crowd.Estimates":           "quality.go is kept until the crowd-aggregation comparison (ROADMAP item 7) decides it",
	"katara/internal/crowd.Crowd.SetWeightedVoting":   "quality.go is kept until the crowd-aggregation comparison (ROADMAP item 7) decides it",
	"katara/internal/crowd.Stats.Cost":                "quality.go is kept until the crowd-aggregation comparison (ROADMAP item 7) decides it",
}

// TestInternalExportsHaveCallers type-checks every non-test package of the
// module and of bench/ and fails on any package-level function or method
// under internal/, exported or not, that no non-test file calls: code only
// tests reach, or nothing at all, is code the tests and docs must carry
// while nothing runs it. A method also counts as
// called when its receiver satisfies, through it, an interface declared in
// or imported by the loaded packages (sort.Interface, slog.Handler,
// crowd.Transport, ...), since calls through the interface do not name it.
// An allowlist entry that names nothing test-only fails too.
func TestInternalExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	l := &moduleLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*loadedPackage{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !hasGoSources(path) {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.load(strings.TrimSuffix("katara/"+filepath.ToSlash(rel), "/."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.pkgs["katara/bench"] == nil {
		t.Fatal("bench/ was not loaded: its calls would go uncounted")
	}

	called := map[*types.Func]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				called[fn.Origin()] = true
			}
		}
	}
	ifaces := l.interfaces()
	var testOnly []string
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "katara/internal/") {
			continue
		}
		for _, fn := range p.funcs() {
			if !called[fn] && !satisfiesInterface(fn, ifaces) {
				testOnly = append(testOnly, funcName(fn))
			}
		}
	}
	sort.Strings(testOnly)
	allowed := map[string]bool{}
	for _, name := range testOnly {
		if _, ok := testOnlyAllowlist[name]; ok {
			allowed[name] = true
			continue
		}
		t.Errorf("%s has no non-test caller: delete it, move it into a _test.go file, or allowlist it with a reason", name)
	}
	for name, reason := range testOnlyAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s names no test-only function: drop it", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist entry %s gives no reason", name)
		}
	}
}

// hasGoSources reports whether dir holds a non-test Go file.
func hasGoSources(dir string) bool {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

type loadedPackage struct {
	pkg  *types.Package
	info *types.Info
}

// moduleLoader type-checks the module's packages (katara/...) from their
// non-test files and hands every other import to the standard library's
// source importer, so one *types.Func stands for each declaration across
// all loaded packages.
type moduleLoader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*loadedPackage
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *moduleLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path != "katara" && !strings.HasPrefix(path, "katara/") {
		return l.std.ImportFrom(path, dir, mode)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load type-checks the package at importPath from the files the default
// build context selects, once.
func (l *moduleLoader) load(importPath string) (*loadedPackage, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(importPath, "katara"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: l}).Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPackage{pkg: pkg, info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// interfaces returns every non-generic method-set interface declared at
// package level in a loaded package or in a package they import,
// transitively, plus error.
func (l *moduleLoader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.pkg)
	}
	return out
}

// funcs lists the package's top-level functions, init aside, and the
// methods of its concrete types.
func (p *loadedPackage) funcs() []*types.Func {
	var out []*types.Func
	for _, obj := range p.info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() == "init" {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv == nil {
			if fn.Parent() != p.pkg.Scope() {
				continue
			}
		} else if types.IsInterface(recv.Type()) {
			continue // an interface's method declaration
		}
		out = append(out, fn)
	}
	return out
}

// receiverNamed returns the named type a method is declared on, or nil.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// satisfiesInterface reports whether fn is a method through which its
// receiver type (or a pointer to it) implements an interface in ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	named := receiverNamed(fn)
	if named == nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					return true
				}
				break
			}
		}
	}
	return false
}

// funcName is "importpath.Func" or "importpath.Type.Method".
func funcName(fn *types.Func) string {
	if named := receiverNamed(fn); named != nil {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
