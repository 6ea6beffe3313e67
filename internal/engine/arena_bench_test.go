package engine

import (
	"context"
	"testing"

	"github.com/sram-align/xdropipu/internal/core"
	"github.com/sram-align/xdropipu/internal/driver"
	"github.com/sram-align/xdropipu/internal/ipukernel"
	"github.com/sram-align/xdropipu/internal/scoring"
	"github.com/sram-align/xdropipu/internal/synth"
	"github.com/sram-align/xdropipu/internal/workload"
)

// benchmarkSubmit measures the warm host-side cost of one submitted job
// at a given submitter concurrency: every job shares one immutable
// dataset, so a submission carries spans and the pool bytes are resident
// once. allocs/op and B/op are per job.
func benchmarkSubmit(b *testing.B, submitters int) {
	d := synth.UniformPairs(synth.UniformPairsSpec{
		Count: 12, Length: 500, ErrorRate: 0.15, SeedLen: 17, Seed: 77})

	cfg := driver.Config{IPUs: 1, Partition: true, Kernel: ipukernel.Config{
		Params: core.Params{Scorer: scoring.DNADefault, Gap: -1, X: 10, DeltaB: 128}}}
	eng := New(WithDriverConfig(cfg), WithQueueDepth(max(submitters, DefaultQueueDepth)))
	defer eng.Close()

	// Warm the engine (device pools, executors) outside the measurement.
	if j, err := eng.Submit(context.Background(), d); err != nil {
		b.Fatal(err)
	} else if _, err := j.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}

	jobs := make(chan *workload.Dataset, submitters)
	done := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		go func() {
			for d := range jobs {
				j, err := eng.Submit(context.Background(), d)
				if err == nil {
					_, err = j.Wait(context.Background())
				}
				done <- err
			}
		}()
	}

	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			jobs <- d
		}
		close(jobs)
	}()
	for i := 0; i < b.N; i++ {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubmitArena1(b *testing.B)  { benchmarkSubmit(b, 1) }
func BenchmarkSubmitArena4(b *testing.B)  { benchmarkSubmit(b, 4) }
func BenchmarkSubmitArena16(b *testing.B) { benchmarkSubmit(b, 16) }
