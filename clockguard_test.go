package xdropipu_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// clockPackages read wall time and arm timers only through
// internal/clock, so that their tests can step a clock.Manual instead of
// waiting.
var clockPackages = []string{"internal/driver", "internal/engine", "internal/service", "internal/serviceclient"}

// clockExempt names the functions of clockPackages that may still read
// the time package's clock, each with its reason.
var clockExempt = map[string]string{
	"internal/service.stallReader.Read": "sets a net.Conn read deadline, which the OS enforces on its own clock",
}

// TestServingReadsOneClock: no non-test file of clockPackages names
// time.Now, Since, Until, Sleep, After, AfterFunc, NewTimer, NewTicker or
// Tick outside clockExempt. A failure gives the file:line; route the read
// through the package's clock.Clock.
func TestServingReadsOneClock(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
		"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}
	fset := token.NewFileSet()
	used := map[string]bool{}
	var lines []string // file:line: function and the time functions it names there
	files := 0
	for _, dir := range clockPackages {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files++
			timePkg := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"time"` {
					timePkg = "time"
					if imp.Name != nil {
						timePkg = imp.Name.Name
					}
				}
			}
			if timePkg == "" {
				continue
			}
			for _, decl := range f.Decls {
				fn := dir + "."
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fd.Recv != nil {
						recv := fd.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						fn += fmt.Sprint(recv) + "."
					}
					fn += fd.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || !banned[sel.Sel.Name] {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != timePkg {
						return true
					}
					if clockExempt[fn] != "" {
						used[fn] = true
						return true
					}
					p := fset.Position(sel.Pos())
					at := fmt.Sprintf("%s:%d: %s calls", p.Filename, p.Line, fn)
					if i := len(lines) - 1; i >= 0 && strings.HasPrefix(lines[i], at) {
						lines[i] += ", time." + sel.Sel.Name
					} else {
						lines = append(lines, at+" time."+sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	for _, l := range lines {
		t.Errorf("%s; use the package's clock", l)
	}
	if files < 10 {
		t.Fatalf("parsed %d files; run from the module root", files)
	}
	for fn := range clockExempt {
		if !used[fn] {
			t.Errorf("clockExempt names %s, which reads no wall clock", fn)
		}
	}
}
