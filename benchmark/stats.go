package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation: when it was due (offset from the
// trial's measured start; negative during warm-up) and how long it took
// from that due time.
type sample struct {
	due     time.Duration
	latency time.Duration
	op      uint64 // writes only: the id the value carried
}

// percentile returns the p-th percentile (0..100) of sorted by the
// nearest-rank rule; 0 on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle value of vs (mean of the two middle values
// for an even count); 0 on an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread is (max-min)/median of vs: how far the trials of one metric sit
// apart, as a share of their median. 0 for fewer than two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

// windowed splits the measured interval [0, total) into windows of the
// given width by due time and returns each window's latencies in
// milliseconds, sorted. Samples due outside the interval (warm-up) are
// dropped. A whole-machine stall lands in one or two windows, so a
// statistic over windows ignores it where a whole-run percentile would not.
func windowed(samples []sample, width, total time.Duration) [][]float64 {
	n := int(total / width)
	if n < 1 {
		n = 1
	}
	wins := make([][]float64, n)
	for _, s := range samples {
		if s.due < 0 || s.due >= total {
			continue
		}
		w := int(s.due / width)
		if w >= n {
			w = n - 1
		}
		wins[w] = append(wins[w], float64(s.latency)/float64(time.Millisecond))
	}
	for _, w := range wins {
		sort.Float64s(w)
	}
	return wins
}

// minWindowSamples is the fewest samples a window needs before its
// percentiles count.
const minWindowSamples = 10

// perWindow returns the p-th percentile of each window that has enough
// samples.
func perWindow(wins [][]float64, p float64) []float64 {
	var per []float64
	for _, w := range wins {
		if len(w) >= minWindowSamples {
			per = append(per, percentile(w, p))
		}
	}
	return per
}

// quietPercentile is the p-th latency percentile of the quietest window:
// the lowest, over the windows, of each window's p-th percentile.
//
// The three replicas fsync to one disk that is shared with other tenants.
// A bare 4 KB write + fsync on it takes 0.15 ms at p50 in one half-minute
// and 0.9 ms in the next, and every latency here moves with it: the
// median over 1 s windows of one binary ranged over 25-65% between runs,
// and stayed off for minutes at a time, so no median within a 30 s run
// can see past it. The disk's quiet moments come every few seconds even
// in its slow phases, and its best case does not move, so the lower
// envelope over short windows is what repeats (2-12% between runs). It
// is what the program does when the disk does not stall; a change to the
// program moves every window and so moves this.
func quietPercentile(wins [][]float64, p float64) float64 {
	per := perWindow(wins, p)
	if len(per) == 0 {
		return 0
	}
	lowest := per[0]
	for _, v := range per {
		lowest = math.Min(lowest, v)
	}
	return lowest
}

// quietRate is the completions per second of the best window, for the
// same reason. On an open-loop stream every window holds the same number
// of due operations, so this is the offered rate when all were acked.
func quietRate(wins [][]float64, width time.Duration) float64 {
	best := 0
	for _, w := range wins {
		if len(w) > best {
			best = len(w)
		}
	}
	return float64(best) / width.Seconds()
}

// quartile returns the q-th percentile of vs by nearest rank.
func quartile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, q)
}

// stallWindows counts windows whose p99 exceeds ten times the median
// window's p99: the whole-machine stalls the windowed medians hide.
func stallWindows(wins [][]float64) int {
	var p99s []float64
	for _, w := range wins {
		if len(w) > 0 {
			p99s = append(p99s, percentile(w, 99))
		}
	}
	limit := 10 * median(p99s)
	n := 0
	for _, v := range p99s {
		if v > limit {
			n++
		}
	}
	return n
}

// flatten merges windows back into one sorted slice (whole-run
// percentiles for the client.* diagnostics).
func flatten(wins [][]float64) []float64 {
	var all []float64
	for _, w := range wins {
		all = append(all, w...)
	}
	sort.Float64s(all)
	return all
}
