package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json, the contract at the root of the repo.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadID `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type workloadID struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// Verdicts of one (metric, workload) row.
const (
	better     = "better"
	within     = "within bound"
	worse      = "WORSE"
	unresolved = "unresolved" // the trials spread wider than the bound: the medians cannot be told apart
)

// worsening is how much worse new is than old as a share of old, given
// the metric's direction; negative when new is better.
func worsening(m metricSpec, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

func verdict(m metricSpec, old, new e2eValue) string {
	if old.Spread > m.Bound || new.Spread > m.Bound {
		return unresolved
	}
	switch w := worsening(m, old.Value, new.Value); {
	case w > m.Bound:
		return worse
	case w < -m.Bound:
		return better
	}
	return within
}

// compare prints one row per (metric, workload) of two result sets and
// reports whether new is acceptable: no end-to-end metric worse than its
// bound and no workload with a higher failed share.
func compare(w io.Writer, bf *benchmarkFile, old, new *resultSet) bool {
	ok := true
	oldBy := make(map[string]workloadResult)
	for _, wr := range old.Workloads {
		oldBy[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-16s %-44s %14s %14s %8s  %s\n", "workload", "metric", "old", "new", "worse by", "verdict")
	for _, nw := range new.Workloads {
		ow, found := oldBy[nw.Name]
		if !found {
			fmt.Fprintf(w, "%-16s only in the new set\n", nw.Name)
			continue
		}
		for _, m := range bf.EndToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			v := verdict(m, o, n)
			if v == worse {
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-44s %14.4f %14.4f %+7.1f%%  %s (bound %.0f%%, spread %.1f%%/%.1f%%)\n",
				nw.Name, m.Name, o.Value, n.Value, 100*worsening(m, o.Value, n.Value), v,
				100*m.Bound, 100*o.Spread, 100*n.Spread)
		}
		v := within
		if nw.FailedShare > ow.FailedShare {
			v, ok = worse, false
		}
		fmt.Fprintf(w, "%-16s %-44s %14.6f %14.6f %8s  %s (any increase)\n",
			nw.Name, "failed_share", ow.FailedShare, nw.FailedShare, "", v)
		names := make([]string, 0, len(nw.PerLayer))
		for name := range nw.PerLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			o, n := ow.PerLayer[name], nw.PerLayer[name]
			note := "per-layer, no bound"
			if exactMetric(name) && old.Header.Seed == new.Header.Seed && old.Header.Seconds == new.Header.Seconds {
				note = "seeded: identical"
				if o.Value != n.Value {
					note = "seeded: DIFFERS"
				}
			}
			m, _ := specOf(name)
			fmt.Fprintf(w, "%-16s %-44s %14.4f %14.4f %+7.1f%%  %s\n",
				nw.Name, name, o.Value, n.Value, 100*worsening(m, o.Value, n.Value), note)
		}
	}
	return ok
}
