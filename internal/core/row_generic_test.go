//go:build !amd64 || purego

package core

import "testing"

// TestRowISAGeneric: without the assembly (another GOARCH, or -tags
// purego) the process reports, and runs, the Go row body.
func TestRowISAGeneric(t *testing.T) {
	if got := RowISA(); got != "generic" {
		t.Fatalf("RowISA() = %q, want \"generic\"", got)
	}
}
