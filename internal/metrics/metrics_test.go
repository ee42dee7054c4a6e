package metrics_test

import (
	"testing"
	"time"

	"raftpaxos/internal/metrics"
)

func TestPercentiles(t *testing.T) {
	var h metrics.Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{50, 50 * time.Millisecond},
		{90, 90 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		got := h.Percentile(tc.p)
		if got < tc.want-time.Millisecond || got > tc.want+time.Millisecond {
			t.Fatalf("p%.0f = %v, want ~%v", tc.p, got, tc.want)
		}
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h metrics.Histogram
	if h.Percentile(50) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.Summary() == "" {
		t.Fatal("summary must render")
	}
}

func TestAddAfterPercentileResorts(t *testing.T) {
	var h metrics.Histogram
	h.Add(10 * time.Millisecond)
	_ = h.Percentile(50)
	h.Add(time.Millisecond)
	if got := h.Percentile(0); got != time.Millisecond {
		t.Fatalf("min after re-add = %v", got)
	}
}
