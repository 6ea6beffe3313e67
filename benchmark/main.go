// Command benchmark is the repository's performance contract: four
// closed-loop workloads, each stressing a different layer, reporting the
// end-to-end metrics of BENCHMARK.json untraced and the per-layer
// breakdown from a separate traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: every workload, each in its own process)")
	seed := flag.Int64("seed", defaultSeed, "workload seed; dataset i uses seed+i")
	seconds := flag.Float64("seconds", runSeconds, "how long the closed loop (or the traced run) measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced end-to-end run")
	size := flag.Float64("size", 1, "scales dataset size (tests use 0.05)")
	out := flag.String("out", "benchmark/out", "directory for trace-<workload>.json and the all-workload report")
	runs := flag.Int("runs", 1, "all-workload mode: untraced runs per workload")
	compare := flag.Bool("compare", false, "compare two all-workload reports: -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on this code and fail if an end-to-end metric differs by more than its bound")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json")
	golden := flag.Bool("golden", false, "print golden.json for the default seed")
	flag.Parse()

	ctx := context.Background()
	var err error
	switch {
	case *printManifest:
		_, err = os.Stdout.Write(manifest())
	case *golden:
		err = writeGolden(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files, got %d", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(os.Stdout, *seed, *size, *seconds, *out)
	case *workload == "":
		_, err = runAll(os.Stdout, *seed, *size, *seconds, *runs, true, *out)
	default:
		err = runOne(ctx, *workload, *seed, *size, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics by name
// and unit, then the result object as the last line.
func runOne(ctx context.Context, name string, seed int64, size, seconds float64, traced bool, outDir string) error {
	s, err := specByName(name)
	if err != nil {
		return err
	}
	var res result
	if traced {
		res, err = runTraced(ctx, s, seed, size, seconds, outDir)
	} else {
		res, err = runEndToEnd(ctx, s, seed, size, seconds)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
