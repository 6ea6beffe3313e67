package xdropipu_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// reachAllowed names the functions production may keep although no
// production code reaches them, each with its reason: at most three.
// Everything else a reachability run reports is deleted or moved into the
// _test.go of the one package that uses it. DESIGN.md "Invariants" lists
// the categories that are exempt without an entry here.
var reachAllowed = map[string]string{
	"internal/oracle.Seed":                 "the independent X-Drop oracle's seed extension, kept as a reference the lattice and core tests compare against",
	"internal/core.SetTraceCellCapForTest": "driver and ipukernel tests lower the trace cap through it to force ErrTraceTooLarge; a test-only file cannot cross packages",
	"internal/clock.Manual.Advance":        "engine, service and client tests step the manual clock through it; production runs on clock.Real, and one fake shared across packages cannot live in a test-only file",
}

// reachStdInterfaces are the standard-library interfaces whose methods
// count as reached when a module type implements them: the runtime, fmt,
// errors, encoding/json, sort, container/heap, io and net/http call them
// through the interface, where no identifier in the module names them.
const reachStdInterfaces = `package stdifaces

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

type (
	stringer  = fmt.Stringer
	errorer   = error
	unwrapper interface{ Unwrap() error }
	marshaler = json.Marshaler
	sorter    = sort.Interface
	heaper    = heap.Interface
	reader    = io.Reader
	handler   = http.Handler
)
`

// reachConfigs are the build configurations whose file sets the test
// unions: internal/core's row body is row_amd64.go by default and
// row_generic.go under purego, and a function only one of them calls is
// still reached.
var reachConfigs = [][]string{nil, {"purego"}}

// TestProductionReachesEveryFunction: every function and method declared
// in a non-test file of the module is reached from production — from a
// main or init function, a package-level initializer, a name the facade
// (xdropipu.go) declares, a method that satisfies an interface (one the
// module declares, or one of reachStdInterfaces), the benchmark module's
// code, or reachAllowed — through references in non-test code. A
// function only tests call, or only other unreached functions call,
// fails the test with its file:line: delete it, or move it into the
// _test.go of the package that uses it.
//
// The benchmark module may not change with the code it measures, so the
// functions only it reaches are its doors: each is declared in its
// package's benchdoors.go, and nothing production reaches is.
func TestProductionReachesEveryFunction(t *testing.T) {
	start := time.Now()
	const module = "github.com/sram-align/xdropipu"
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{} // path → AST, shared by every configuration
	dirs := map[string][]string{}    // import path → its non-test .go files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed[path] = f
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir == "benchmark" {
			pkg = "benchmark" // a module of its own; its code only calls
		} else if dir != "." {
			pkg += "/" + dir
		}
		dirs[pkg] = append(dirs[pkg], path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs[module]) == 0 || len(dirs["benchmark"]) == 0 {
		t.Fatal("found no facade or benchmark files; run from the module root")
	}
	stdFile, err := parser.ParseFile(fset, "stdifaces.go", reachStdInterfaces, 0)
	if err != nil {
		t.Fatal(err)
	}
	imports := []*ast.File{stdFile}
	for _, f := range parsed {
		imports = append(imports, f)
	}
	std := importer.ForCompiler(fset, "gc", stdExports(t, imports, module))
	stdPkg, err := (&types.Config{Importer: std}).Check("stdifaces", fset, []*ast.File{stdFile}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ifaces []*types.Interface
	for _, name := range stdPkg.Scope().Names() {
		ifaces = append(ifaces, stdPkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}

	g := reachGraph{decls: map[token.Pos]*reachDecl{}, edges: map[token.Pos][]token.Pos{}}
	for _, tags := range reachConfigs {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.BuildTags = "linux", "amd64", tags
		files := map[string][]*ast.File{}
		for pkg, paths := range dirs {
			for _, path := range paths {
				ok, err := ctxt.MatchFile(filepath.Dir(path), filepath.Base(path))
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					files[pkg] = append(files[pkg], parsed[path])
				}
			}
		}
		imp := &moduleImporter{fset: fset, std: std, files: files, pkgs: map[string]*types.Package{}, info: newReachInfo()}
		pkgs := make([]string, 0, len(files))
		for pkg := range files {
			pkgs = append(pkgs, pkg)
		}
		slices.Sort(pkgs)
		for _, pkg := range pkgs {
			if _, err := imp.Import(pkg); err != nil {
				t.Fatalf("type-checking %s (tags %v): %v", pkg, tags, err)
			}
		}
		for _, tv := range imp.info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() && iface.NumMethods() > 0 {
				ifaces = append(ifaces, iface)
			}
		}
		for _, pkg := range pkgs {
			for _, f := range files[pkg] {
				g.addFile(fset, module, pkg, f, imp.info)
			}
		}
	}

	for _, d := range g.decls {
		if d.root {
			continue
		}
		if reachAllowed[d.name] != "" {
			d.root = true
			continue
		}
		for _, recv := range d.recvs {
			if satisfies(recv, d.method, ifaces) {
				d.root = true
				break
			}
		}
	}
	if len(reachAllowed) > 3 {
		t.Errorf("reachAllowed holds %d entries; delete functions instead of allowing them", len(reachAllowed))
	}
	for name := range reachAllowed {
		found := false
		for _, d := range g.decls {
			found = found || d.name == name
		}
		if !found {
			t.Errorf("reachAllowed names %s, which the module does not declare", name)
		}
	}

	reached, production := g.reach(true), g.reach(false)
	var faults []string
	unreached := 0
	for pos, d := range g.decls {
		p := fset.Position(pos)
		at := fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, d.name)
		door := filepath.Base(p.Filename) == "benchdoors.go"
		switch {
		case !reached[pos]:
			unreached++
			faults = append(faults, at+" is reached by no production code")
		case production[pos] && door:
			faults = append(faults, at+" is reached by production code; move it out of benchdoors.go")
		case !production[pos] && !door:
			faults = append(faults, at+" is reached only by the benchmark; move it into its package's benchdoors.go")
		}
	}
	slices.Sort(faults)
	for _, f := range faults {
		t.Error(f)
	}
	if len(g.decls) < 500 {
		t.Fatalf("only %d functions declared; the walk missed the module", len(g.decls))
	}
	t.Logf("%d functions, %d unreached, %v", len(g.decls), unreached, time.Since(start).Round(time.Millisecond))
}

// reachDecl is one declared function or method.
type reachDecl struct {
	name   string         // import path (module-relative) and name: internal/core.Workspace.Extend
	method string         // a method's name, "" for a function
	recvs  []*types.Named // a method's receiver base type, one per configuration
	root   bool
}

// reachGraph holds every declaration of the module and, for each, the
// functions its body references, keyed by the position of the declaring
// identifier: the ASTs are shared, so a position names the same function
// in every configuration.
type reachGraph struct {
	decls map[token.Pos]*reachDecl
	edges map[token.Pos][]token.Pos
	roots []token.Pos // functions referenced from outside any function body
	bench []token.Pos // functions the benchmark module references
}

func (g *reachGraph) addFile(fset *token.FileSet, module, pkg string, f *ast.File, info *types.Info) {
	caller := pkg == "benchmark"
	facade := pkg == module && filepath.Base(fset.Position(f.Pos()).Filename) == "xdropipu.go"
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg, module), "/")
	refs := func(n ast.Node) (out []token.Pos) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin().Pkg() != nil {
					out = append(out, fn.Origin().Pos())
				}
			}
			return true
		})
		return out
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if caller {
			g.bench = append(g.bench, refs(decl)...)
			continue
		}
		if !ok {
			g.roots = append(g.roots, refs(decl)...)
			continue
		}
		obj, _ := info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue // func _
		}
		pos := fd.Name.Pos()
		d := g.decls[pos]
		if d == nil {
			d = &reachDecl{name: rel + "." + fd.Name.Name}
			g.decls[pos] = d
		}
		g.edges[pos] = append(g.edges[pos], refs(fd)...)
		if sig := obj.Signature(); sig.Recv() != nil {
			recv := sig.Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok {
				d.name = rel + "." + n.Obj().Name() + "." + fd.Name.Name
				d.method = fd.Name.Name
				d.recvs = append(d.recvs, n.Origin())
			}
		} else if fd.Name.Name == "main" || fd.Name.Name == "init" || facade {
			d.root = true
		}
	}
}

// reach returns every declaration reachable from the roots, and with
// bench from the benchmark module's references too.
func (g *reachGraph) reach(bench bool) map[token.Pos]bool {
	seen := map[token.Pos]bool{}
	var stack []token.Pos
	visit := func(pos token.Pos) {
		if !seen[pos] {
			seen[pos] = true
			stack = append(stack, pos)
		}
	}
	for _, pos := range g.roots {
		visit(pos)
	}
	if bench {
		for _, pos := range g.bench {
			visit(pos)
		}
	}
	for pos, d := range g.decls {
		if d.root {
			visit(pos)
		}
	}
	for len(stack) > 0 {
		pos := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.edges[pos] {
			visit(next)
		}
	}
	return seen
}

// satisfies reports whether recv or *recv implements an interface that
// has a method of that name.
func satisfies(recv *types.Named, method string, ifaces []*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false // a generic type implements nothing until instantiated
	}
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			has = has || iface.Method(i).Name() == method
		}
		if has && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
			return true
		}
	}
	return false
}

// stdExports finds the compiler's export data of every standard-library
// package the module imports, and of everything those import, with one
// go list call (the importer's default runs one per package), and
// returns the importer's lookup over it.
func stdExports(t *testing.T, files []*ast.File, module string) func(string) (io.ReadCloser, error) {
	t.Helper()
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); !strings.HasPrefix(path, module) {
				seen[path] = true
			}
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range seen {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}
}

// moduleImporter type-checks the module's packages from source, in
// import order, and hands standard-library imports to the compiler's
// export data.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	p, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

func newReachInfo() *types.Info {
	return &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
}
