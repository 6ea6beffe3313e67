package xdropipu_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsCiteExistingTests: every Test*, Fuzz* and Benchmark* name the
// documentation and the CI workflow cite is the name of a function in the
// tree, or a prefix of one (the docs write TestServiceRetention*, the
// workflow selects by -run pattern). A renamed or deleted test must take
// its citations with it.
func TestDocsCiteExistingTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build outputs (.bench_build), not the tree
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`)
	names := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "benchmark/README.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, name := range cited.FindAllString(string(text), -1) {
			if seen[name] {
				continue
			}
			seen[name] = true
			names++
			found := false
			for _, f := range funcs {
				if strings.HasPrefix(f, name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s: no test, fuzz or benchmark function in the tree has that name or prefix", doc, name)
			}
		}
	}
	if names == 0 {
		t.Fatal("no test names found in the documents; the pattern matches nothing")
	}
}

// TestDocsCiteExportedNames: every xdropipu.Name and engine.Name that
// README.md or DESIGN.md cites is a top-level declaration of the facade
// (xdropipu.go) or of internal/engine. A deleted option must take its
// citations — prose and snippets alike — with it.
func TestDocsCiteExportedNames(t *testing.T) {
	engineFiles, err := filepath.Glob("internal/engine/*.go")
	if err != nil {
		t.Fatal(err)
	}
	engineFiles = slices.DeleteFunc(engineFiles, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
	declared := map[string]map[string]bool{
		"xdropipu": topLevelNames(t, "xdropipu.go"),
		"engine":   topLevelNames(t, engineFiles...),
	}

	cited := regexp.MustCompile(`\b(xdropipu|engine)\.([A-Z]\w*)`)
	names := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cited.FindAllStringSubmatch(string(text), -1) {
			names++
			if !declared[m[1]][m[2]] {
				t.Errorf("%s cites %s.%s: no such declaration", doc, m[1], m[2])
			}
		}
	}
	if names == 0 {
		t.Fatal("no xdropipu or engine names found in the documents; the pattern matches nothing")
	}
}

// TestDocsCiteDesignHeadings: every section pointer into DESIGN.md — its
// name quoted after "DESIGN.md" or "DESIGN.md's" — in the Go sources,
// README.md and ROADMAP.md names a heading of DESIGN.md. A bold paragraph
// label is not a heading: a reader searching the outline would not find
// it.
func TestDocsCiteDesignHeadings(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+ (.+)$`).FindAllStringSubmatch(string(design), -1) {
		headings[m[1]] = true
	}
	docs := []string{"README.md", "ROADMAP.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			docs = append(docs, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pointer := regexp.MustCompile(`DESIGN\.md(?:'s)? "([^"]+)"`)
	pointers := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pointer.FindAllStringSubmatch(string(text), -1) {
			pointers++
			if name := strings.Join(strings.Fields(m[1]), " "); !headings[name] {
				t.Errorf("%s points at DESIGN.md %q, which is not a heading there", doc, name)
			}
		}
	}
	if pointers == 0 {
		t.Fatal("no DESIGN.md section pointers found; the pattern matches nothing")
	}
}

// topLevelNames returns the package-level funcs, types, vars and consts
// the files declare (methods excluded).
func topLevelNames(t *testing.T, files ...string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return names
}
