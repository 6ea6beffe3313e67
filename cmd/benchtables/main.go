// Command benchtables regenerates every table and figure of the paper's
// evaluation (§5–§6) on the simulated platforms and prints them as text
// tables.
//
// Usage:
//
//	benchtables [-exp name] [-scale n] [-size f] [-seed n] [-list]
//
// With no -exp it runs the full suite. -scale divides every platform's
// parallel resources (default 8); -size scales dataset sizes. Every
// figure printed is modeled, so the output is a pure function of
// (-scale, -size, -seed); host wall-clock performance is what
// benchmark/run.sh measures.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sram-align/xdropipu/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all); see -list")
	scale := flag.Int("scale", 8, "platform scale divisor (1 = full machines)")
	size := flag.Float64("size", 1.0, "dataset size factor")
	seed := flag.Int64("seed", 0, "generation seed (0 = default)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", r.Name, r.Artifact)
		}
		return
	}

	opt := bench.Options{W: os.Stdout, Scale: *scale, SizeFactor: *size, Seed: *seed}
	var err error
	if *exp == "" {
		err = bench.RunAll(opt)
	} else {
		r, ok := bench.ByName(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stdout, "=== %s: %s ===\n\n", r.Name, r.Artifact)
		err = r.Run(opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}
