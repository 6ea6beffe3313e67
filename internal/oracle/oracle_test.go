package oracle

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/sram-align/xdropipu/internal/scoring"
)

// TestExtendHandWorked pins the oracle to extensions worked by hand under
// +1/−1, gap −1.
func TestExtendHandWorked(t *testing.T) {
	for _, tc := range []struct {
		name, h, v string
		x          int
		want       End
	}{{
		// Two optimal alignments score 1: C against a gap, then A/A A/A,
		// ending at (3, 2); and C/A, A/A, A/A ending at (3, 3). The first
		// in (d, i) order is the result, tied with the second. X = 1 drops
		// (0, 2) and (2, 0) on d = 2 and (1, 2) on d = 3.
		name: "two optimal paths", h: "CAA", v: "AAA", x: 1,
		want: End{Score: 1, EndH: 3, EndV: 2, Tied: true,
			Computed: []Span{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 3}, {3, 3}},
			Live:     []Span{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3}, {2, 3}, {3, 3}}},
	}, {
		// One best cell, (4, 3) = 2, reached by two paths: the gap takes
		// either A of h. Nothing drops.
		name: "one best cell, two paths", h: "AACC", v: "ACC", x: 10,
		want: End{Score: 2, EndH: 4, EndV: 3, Tied: true,
			Computed: []Span{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}, {4, 4}},
			Live:     []Span{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 4}, {3, 4}, {4, 4}}},
	}, {
		// Every path scores below 0: the corners drop on d = 3, all but
		// (2, 2) on d = 4, and nothing survives d = 5.
		name: "poly-A against poly-C", h: "AAAAAA", v: "CCCCCC", x: 2,
		want: End{
			Computed: []Span{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}},
			Live:     []Span{{0, 0}, {0, 1}, {0, 2}, {1, 2}, {2, 2}, {0, -1}}},
	}, {
		name: "empty v", h: "ACGT", v: "", x: 2,
		want: End{
			Computed: []Span{{0, 0}, {1, 1}, {2, 2}, {3, 3}},
			Live:     []Span{{0, 0}, {1, 1}, {2, 2}, {0, -1}}},
	}, {
		name: "both empty", x: 2,
		want: End{Computed: []Span{{0, 0}}, Live: []Span{{0, 0}}},
	}} {
		got := Extend([]byte(tc.h), []byte(tc.v), scoring.DNADefault.Table(), -1, tc.x)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// TestImportsStayIndependent keeps the oracle independent of the code it
// checks: its non-test files import the standard library and
// internal/scoring, nothing else.
func TestImportsStayIndependent(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first, _, _ := strings.Cut(path, "/")
			if path != "github.com/sram-align/xdropipu/internal/scoring" && strings.Contains(first, ".") {
				t.Errorf("%s imports %s; the oracle may use the standard library and internal/scoring only", name, path)
			}
		}
	}
}
