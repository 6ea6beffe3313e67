package metrics

import (
	"strings"
	"sync"
	"testing"
)

// TestPromHistogramExposition is the golden text of a histogram family:
// cumulative buckets in ascending bound order, +Inf last, then _sum and
// _count, under one HELP/TYPE header. A bound is inclusive (le).
func TestPromHistogramExposition(t *testing.T) {
	h := PromHistogram{Bounds: []float64{0.005, 0.01, 0.25}}
	// Binary-exact observations except the one sitting on a bound, so _sum
	// is exact: 0.00390625 + 0.005 + 0.0078125 + 0.5 + 2.
	for _, v := range []float64{1.0 / 256, 0.005, 1.0 / 128, 0.5, 2} {
		h.Observe(v)
	}
	var empty PromHistogram
	empty.Bounds = []float64{1}
	var sb strings.Builder
	err := WriteProm(&sb, []PromFamily{
		h.Family("demo_first_chunk_seconds", "Submit to first chunk."),
		empty.Family("demo_idle_seconds", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = `# HELP demo_first_chunk_seconds Submit to first chunk.
# TYPE demo_first_chunk_seconds histogram
demo_first_chunk_seconds_bucket{le="0.005"} 2
demo_first_chunk_seconds_bucket{le="0.01"} 3
demo_first_chunk_seconds_bucket{le="0.25"} 3
demo_first_chunk_seconds_bucket{le="+Inf"} 5
demo_first_chunk_seconds_sum 2.51671875
demo_first_chunk_seconds_count 5
# TYPE demo_idle_seconds histogram
demo_idle_seconds_bucket{le="1"} 0
demo_idle_seconds_bucket{le="+Inf"} 0
demo_idle_seconds_sum 0
demo_idle_seconds_count 0
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromHistogramConcurrentObserve: observers and scrapers share the
// histogram; every scrape is one consistent snapshot (_count equals the
// +Inf bucket) and no observation is lost.
func TestPromHistogramConcurrentObserve(t *testing.T) {
	h := PromHistogram{Bounds: []float64{1, 2}}
	const observers, each = 4, 500
	var wg sync.WaitGroup
	for o := 0; o < observers; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 3))
				if i%50 == 0 {
					f := h.Family("x", "")
					n := len(f.Samples)
					if f.Samples[n-1].Value != f.Samples[n-3].Value {
						t.Errorf("scrape: _count %v, +Inf bucket %v", f.Samples[n-1].Value, f.Samples[n-3].Value)
					}
				}
			}
		}()
	}
	wg.Wait()
	f := h.Family("x", "")
	if got := f.Samples[len(f.Samples)-1].Value; got != observers*each {
		t.Fatalf("_count = %v, want %d", got, observers*each)
	}
}
