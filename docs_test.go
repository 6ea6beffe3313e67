package xdropipu_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
