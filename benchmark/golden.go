package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/sram-align/xdropipu/internal/driver"
)

// fingerprint condenses a report into two hashes. Results covers what a
// user reads per comparison (score, spans, CIGAR) and must match on every
// path, cache-served or not. Modeled covers the simulated-IPU counters of
// an executed job; a cache-served job models no work, so only jobs that
// ran the kernel are held to it.
type fingerprint struct {
	Results string `json:"results"`
	Modeled string `json:"modeled"`
}

// mix is word-wise FNV-1a: one multiply per field keeps the per-job check
// far below the cost of the job it checks, even at 30k results per job.
type mix uint64

const (
	mixOffset mix = 14695981039346656037
	mixPrime  mix = 1099511628211
)

func (h mix) word(v uint64) mix { return (h ^ mix(v)) * mixPrime }
func (h mix) int(v int) mix     { return h.word(uint64(int64(v))) }
func (h mix) str(s string) mix {
	for i := 0; i < len(s); i++ {
		h = (h ^ mix(s[i])) * mixPrime
	}
	return h.int(len(s))
}

func fingerprintOf(rep *driver.Report) fingerprint {
	r := mixOffset.int(len(rep.Results))
	for i := range rep.Results {
		o := &rep.Results[i]
		failed := 0
		if o.Failed {
			failed = 1
		}
		r = r.int(o.GlobalID).int(o.Score).int(o.LeftScore).int(o.RightScore).
			int(o.BegH).int(o.BegV).int(o.EndH).int(o.EndV).int(failed).str(string(o.Cigar))
	}
	m := mixOffset.word(uint64(rep.Cells)).int(rep.Batches).
		word(uint64(rep.HostBytesIn)).word(uint64(rep.HostBytesOut)).
		word(math.Float64bits(rep.WallSeconds))
	return fingerprint{Results: fmt.Sprintf("%016x", uint64(r)), Modeled: fmt.Sprintf("%016x", uint64(m))}
}

// golden.json holds the fingerprints of every dataset at the default seed
// and full size, so a change that alters results fails across commits and
// not only against the reference run of its own process.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      int64                    `json:"seed"`
	Workloads map[string][]fingerprint `json:"workloads"`
}

// checkGolden compares the reference fingerprints of one workload with the
// committed ones. It applies only at the recorded seed and full size;
// any other input has no committed answer and relies on the reference run.
func checkGolden(name string, seed int64, size float64, got []fingerprint) error {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if seed != g.Seed || size != 1 {
		return nil
	}
	want, ok := g.Workloads[name]
	if !ok {
		return fmt.Errorf("golden.json has no workload %q (regenerate with -golden)", name)
	}
	if len(want) != len(got) {
		return fmt.Errorf("golden.json: %s has %d datasets, run has %d", name, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("golden mismatch on %s dataset %d: got %+v, committed %+v", name, i, got[i], want[i])
		}
	}
	return nil
}

// writeGolden prints golden.json: the reference fingerprints of every
// workload's datasets at the default seed.
func writeGolden(w io.Writer) error {
	g := goldenFile{Seed: defaultSeed, Workloads: map[string][]fingerprint{}}
	for _, s := range specs {
		for _, d := range s.datasets(defaultSeed, 1) {
			ref, err := driver.Run(d, s.driverConfig())
			if err != nil {
				return err
			}
			g.Workloads[s.name] = append(g.Workloads[s.name], fingerprintOf(ref))
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
