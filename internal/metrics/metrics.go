// Package metrics collects the latency measurements the evaluation
// reports: percentile latencies per class (leader/follower, read/write).
package metrics

import (
	"fmt"
	"sort"
	"time"
)

// Histogram records durations and reports percentiles.
type Histogram struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Percentile returns the p-th percentile (p in [0,100]); zero when empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	idx := int(p / 100 * float64(len(h.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Summary renders "p50/p90/p99 (n)" in milliseconds.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("p50=%.1fms p90=%.1fms p99=%.1fms (n=%d)",
		ms(h.Percentile(50)), ms(h.Percentile(90)), ms(h.Percentile(99)), h.Count())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
