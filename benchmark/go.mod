// The benchmark is a module of its own so it builds from its own file and
// stays out of the parent's `go build ./...`; its path sits under the
// parent's, which is what lets it import the parent's internal packages.
module github.com/sram-align/xdropipu/benchmark

go 1.24

require github.com/sram-align/xdropipu v0.0.0

replace github.com/sram-align/xdropipu => ../
