package xdropipu_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mutationTable is the file of mutations the test suite must kill; its
// header says how a row is written.
const mutationTable = "testdata/mutations.txt"

// mutation is one row of the table: old replaced by new in file, and the
// tests of pkg that must each fail on the result.
type mutation struct {
	id, file, old, new, pkg string
	tests, flags            []string
	line                    int // of the row's id, for messages
}

// mutant is the row's file with the mutation applied, and the number of
// times the old text occurs in the file as it stands.
func (m mutation) mutant() (src string, occurs int, err error) {
	b, err := os.ReadFile(m.file)
	if err != nil {
		return "", 0, err
	}
	return strings.Replace(string(b), m.old, m.new, 1), strings.Count(string(b), m.old), nil
}

// runPattern selects exactly the row's tests.
func (m mutation) runPattern() string {
	return "^(" + strings.Join(m.tests, "|") + ")$"
}

// allowedFlag is every go test flag a row may carry: what a concurrency
// mutant needs to show, and nothing that could hide it.
var allowedFlag = regexp.MustCompile(`^(-race|-cpu=[1-9][0-9]*(,[1-9][0-9]*)*|-count=[1-9][0-9]*)$`)

// readMutationTable parses the table. A row is a run of "key value"
// lines ending at a blank line; old and new are Go-quoted strings, and
// the strings of consecutive old (or new) lines are joined.
func readMutationTable(t *testing.T) []mutation {
	t.Helper()
	f, err := os.Open(mutationTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []mutation
	var m *mutation
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, val, _ := strings.Cut(line, " ")
		val = strings.TrimSpace(val)
		if key == "" {
			m = nil
			continue
		}
		if m == nil {
			if key != "id" {
				t.Fatalf("%s:%d: a row starts with its id, not %q", mutationTable, n, key)
			}
			rows = append(rows, mutation{line: n})
			m = &rows[len(rows)-1]
		}
		switch key {
		case "id":
			m.id = val
		case "file":
			m.file = val
		case "pkg":
			m.pkg = val
		case "tests":
			m.tests = strings.Fields(val)
		case "flags":
			m.flags = strings.Fields(val)
		case "old", "new":
			s, err := strconv.Unquote(val)
			if err != nil {
				t.Fatalf("%s:%d: %s is not a Go-quoted string: %v", mutationTable, n, key, err)
			}
			if key == "old" {
				m.old += s
			} else {
				m.new += s
			}
		default:
			t.Fatalf("%s:%d: unknown key %q", mutationTable, n, key)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestMutationTableIsCurrent checks every row of the mutation table
// against the tree as it stands, without building a mutant: its file
// holds its old text exactly once, its new text differs, its flags are
// allowed, and each test it names is declared in its package. A refactor
// or rename that strands a row fails here, not only where the table runs
// (TestMutationTable, under the mutations build tag).
func TestMutationTableIsCurrent(t *testing.T) {
	rows := readMutationTable(t)
	if len(rows) == 0 {
		t.Fatalf("%s has no rows", mutationTable)
	}
	declared := declaredTests(t)
	ids := map[string]int{}
	for _, m := range rows {
		at := fmt.Sprintf("%s:%d (%s)", mutationTable, m.line, m.id)
		if prev, dup := ids[m.id]; dup || m.id == "" {
			t.Errorf("%s: the id is empty or already used at line %d", at, prev)
		}
		ids[m.id] = m.line
		if m.file == "" || m.pkg == "" || len(m.tests) == 0 {
			t.Errorf("%s: a row needs a file, a pkg and tests", at)
			continue
		}
		if _, occurs, err := m.mutant(); err != nil {
			t.Errorf("%s: %v", at, err)
		} else if occurs != 1 {
			t.Errorf("%s: the old text occurs %d times in %s, want once", at, occurs, m.file)
		}
		if m.old == m.new {
			t.Errorf("%s: the new text is the old text", at)
		}
		for _, fl := range m.flags {
			if !allowedFlag.MatchString(fl) {
				t.Errorf("%s: flag %q is not allowed", at, fl)
			}
		}
		dir := filepath.Clean(m.pkg)
		for _, name := range m.tests {
			in := false
			for _, d := range declared[name] {
				in = in || d == dir
			}
			if !in || !(strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")) {
				t.Errorf("%s: no test or fuzz target %s is declared in %s", at, name, m.pkg)
			}
		}
	}
}
