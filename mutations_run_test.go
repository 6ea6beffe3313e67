//go:build mutations

package xdropipu_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestMutationTable builds every mutant of the mutation table and runs
// the tests its row names against it: `go test -overlay` swaps the one
// file at build time, so the tree is never edited. A row passes only
// when the mutant builds and each named test reports a failure; a
// survivor, a mutant that does not build, a named test that did not run
// and old text that does not occur exactly once each fail it.
//
//	go test -tags mutations -run TestMutationTable -count=1 .
//	go test -tags mutations -run 'TestMutationTable/engine-' -count=1 -v .
func TestMutationTable(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	for _, m := range readMutationTable(t) {
		t.Run(m.id, func(t *testing.T) {
			t.Parallel()
			src, occurs, err := m.mutant()
			if err != nil {
				t.Fatal(err)
			}
			if occurs != 1 {
				t.Fatalf("%s:%d: the old text occurs %d times in %s, want once", mutationTable, m.line, occurs, m.file)
			}
			dir := t.TempDir()
			mutant := filepath.Join(dir, filepath.Base(m.file))
			abs, err := filepath.Abs(m.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: mutant}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mutant, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "overlay.json"), overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			args := append([]string{"test", "-overlay", filepath.Join(dir, "overlay.json"), "-json", "-count=1", "-timeout=2m",
				"-run", m.runPattern()}, m.flags...) // a row's own -count comes last and wins
			out, err := exec.Command(gobin, append(args, m.pkg)...).CombinedOutput()
			if err != nil && !errors.As(err, new(*exec.ExitError)) {
				t.Fatal(err)
			}
			ran, failed, built := readTestEvents(out)
			if !built {
				t.Fatalf("%s:%d: the mutant of %s does not build:\n%s", mutationTable, m.line, m.file, testOutput(out))
			}
			for _, name := range m.tests {
				switch {
				case !ran[name]:
					t.Errorf("%s:%d: %s did not run in %s: -run %s selects no such test, or the binary exited first", mutationTable, m.line, name, m.pkg, m.runPattern())
				case !failed[name]:
					t.Errorf("%s:%d: the mutant of %s survives %s", mutationTable, m.line, m.file, name)
				}
			}
		})
	}
}

// testEvent is the part of a `go test -json` event the table reads.
type testEvent struct {
	Action, Test, Output string
}

// readTestEvents reads which top-level tests ran and which failed, and
// whether the package built.
func readTestEvents(out []byte) (ran, failed map[string]bool, built bool) {
	ran, failed, built = map[string]bool{}, map[string]bool{}, true
	for _, line := range bytes.Split(out, []byte("\n")) {
		var e testEvent
		if len(line) == 0 || json.Unmarshal(line, &e) != nil {
			continue
		}
		name, _, _ := strings.Cut(e.Test, "/")
		switch {
		case e.Action == "build-fail", strings.Contains(e.Output, "[build failed]"), strings.Contains(e.Output, "[setup failed]"):
			built = false
		case name != "" && e.Action == "run":
			ran[name] = true
		case name != "" && e.Action == "fail":
			failed[name] = true
		}
	}
	return ran, failed, built
}

// testOutput is what go test printed, the events' output lines joined
// with the lines that were not events, for a build error.
func testOutput(out []byte) string {
	var b strings.Builder
	for _, line := range bytes.Split(out, []byte("\n")) {
		var e struct{ Output string }
		if json.Unmarshal(line, &e) == nil {
			b.WriteString(e.Output)
		} else if len(line) > 0 {
			b.Write(append(line, '\n'))
		}
	}
	return b.String()
}
