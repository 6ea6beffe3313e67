// Prometheus text exposition (version 0.0.4): the minimal stdlib-only
// encoder behind the service's GET /v1/metrics. Families render in the
// order given and samples in the order added, so scrapes are
// deterministic and diffable in tests.

package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Prometheus metric types.
const (
	PromCounter       = "counter"
	PromGauge         = "gauge"
	PromHistogramType = "histogram"
)

// PromLabel is one name="value" pair on a sample.
type PromLabel struct {
	Name, Value string
}

// PromSample is one time-series point of a family.
type PromSample struct {
	Labels []PromLabel
	Value  float64
	// suffix follows the family name on the sample line: a histogram's
	// points are named _bucket, _sum and _count under one family header.
	suffix string
}

// PromFamily is one metric family: HELP and TYPE header plus samples.
type PromFamily struct {
	// Name must match [a-zA-Z_:][a-zA-Z0-9_:]*; the caller owns naming
	// discipline (…_total for counters, base units).
	Name string
	// Help is the one-line description (newlines are escaped).
	Help string
	// Type is PromCounter, PromGauge or, from PromHistogram.Family,
	// PromHistogramType.
	Type string
	// Samples hold the family's labeled points.
	Samples []PromSample
}

// Add appends one sample; labels alternate name, value.
func (f *PromFamily) Add(value float64, labels ...string) {
	s := PromSample{Value: value}
	for i := 0; i+1 < len(labels); i += 2 {
		s.Labels = append(s.Labels, PromLabel{Name: labels[i], Value: labels[i+1]})
	}
	f.Samples = append(f.Samples, s)
}

// WriteProm renders the families in Prometheus text exposition format.
func WriteProm(w io.Writer, fams []PromFamily) error {
	for _, f := range fams {
		if len(f.Samples) == 0 {
			continue
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if _, err := io.WriteString(w, f.Name+s.suffix); err != nil {
				return err
			}
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
				}
				if _, err := io.WriteString(w, "{"+strings.Join(parts, ",")+"}"); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, " "+formatPromValue(s.Value)+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// PromHistogram is a fixed-bucket histogram of observations (seconds,
// bytes), safe for concurrent use. Bounds holds the buckets' inclusive
// upper bounds in ascending order and is set before the first Observe;
// the +Inf bucket is implicit.
type PromHistogram struct {
	Bounds []float64

	mu     sync.Mutex
	counts []uint64 // counts[i]: observations in (Bounds[i-1], Bounds[i]]; the last slot: above every bound
	sum    float64
}

// Observe records one observation.
func (h *PromHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.Bounds, v) // first bound >= v
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make([]uint64, len(h.Bounds)+1)
	}
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// Family renders the histogram as one family: a cumulative _bucket
// sample per bound in ascending order, the le="+Inf" bucket, then _sum
// and _count — one consistent snapshot. A histogram nothing was observed
// into still renders, all zeros, so the series exists from the first
// scrape.
func (h *PromHistogram) Family(name, help string) PromFamily {
	f := PromFamily{Name: name, Help: help, Type: PromHistogramType}
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i := 0; i <= len(h.Bounds); i++ {
		le := math.Inf(1)
		if i < len(h.Bounds) {
			le = h.Bounds[i]
		}
		if h.counts != nil {
			cum += h.counts[i]
		}
		f.Samples = append(f.Samples, PromSample{
			Labels: []PromLabel{{Name: "le", Value: formatPromValue(le)}},
			Value:  float64(cum), suffix: "_bucket",
		})
	}
	f.Samples = append(f.Samples,
		PromSample{Value: h.sum, suffix: "_sum"},
		PromSample{Value: float64(cum), suffix: "_count"})
	return f
}

func formatPromValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
