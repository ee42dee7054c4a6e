package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// resultSet is the file a full run writes: every workload, untraced and
// traced, under a header saying where the numbers came from.
type resultSet struct {
	Header    header           `json:"header"`
	Workloads []workloadResult `json:"workloads"`
	// Claim is what the change that produced this file says it gained.
	// This benchmark claims nothing.
	Claim *string `json:"claim"`
}

type header struct {
	Commit     string            `json:"commit"`
	NProc      int               `json:"nproc"`
	GoVersion  string            `json:"go_version"`
	Kernel     string            `json:"kernel"`
	Filesystem string            `json:"filesystem"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trials     int               `json:"trials"`
	WarmupS    float64           `json:"warmup_s"`
	Load       map[string]string `json:"load"`
}

type e2eValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"` // (max-min)/median over the trials
}

type workloadResult struct {
	Name        string                 `json:"name"`
	Correct     bool                   `json:"correct"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]e2eValue    `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer"`
}

func describeStreams(streams []stream) string {
	var parts []string
	for _, st := range streams {
		mix := "writes"
		switch {
		case st.readShare == 1:
			mix = "reads"
		case st.readShare > 0:
			mix = fmt.Sprintf("%.0f%% reads", st.readShare*100)
		}
		if st.rate > 0 {
			parts = append(parts, fmt.Sprintf("open loop %.0f/s %s", st.rate, mix))
		} else {
			parts = append(parts, fmt.Sprintf("closed loop %d callers %s", st.clients, mix))
		}
	}
	return strings.Join(parts, " + ")
}

func oneLine(cmd string, args ...string) string {
	out, err := exec.Command(cmd, args...).Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fs = mount, f[2]
		}
	}
	return fs
}

func (s *session) header() header {
	commit := oneLine("git", "rev-parse", "--short", "HEAD")
	if commit == "" {
		commit = "unknown"
	} else if oneLine("git", "status", "--porcelain") != "" {
		commit += "+uncommitted"
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	h := header{
		Commit: commit, NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), Filesystem: filesystemOf(s.dataDir),
		Seed: s.seed, Seconds: s.seconds, Trials: s.trials, WarmupS: s.warmup.Seconds(),
		Load: map[string]string{wanSimName: "simulated: 5 sites x 20 closed-loop clients, 50% reads, 2% hot key, 8 B"},
	}
	for _, wl := range liveWorkloads {
		h.Load[wl.name] = describeStreams(wl.streams)
	}
	return h
}

// printRun lists a run's metrics by name with value and unit, in table
// order.
func printRun(w io.Writer, name string, table []metricSpec, res *runResult) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, m := range table {
		v := res.Metrics[m.Name]
		line := fmt.Sprintf("  %-44s %14.4f %s", m.Name, v.Value, v.Unit)
		if sp, ok := res.spread[m.Name]; ok && m.Bound > 0 {
			line += fmt.Sprintf("   (trials spread %.1f%%, bound %.0f%%)", sp*100, m.Bound*100)
		}
		fmt.Fprintln(w, line)
	}
}

// runAll runs every workload untraced and traced and returns the result
// set; ok is false if any output check failed.
func (s *session) runAll(w io.Writer) (*resultSet, bool, error) {
	set := &resultSet{Header: s.header()}
	ok := true
	var names []string
	for _, wl := range liveWorkloads {
		names = append(names, wl.name)
	}
	for _, name := range append(names, wanSimName) {
		e2e, err := s.run(name, false)
		if err != nil {
			return nil, false, err
		}
		printRun(w, name, endToEnd, e2e)
		layers, err := s.run(name, true)
		if err != nil {
			return nil, false, err
		}
		printRun(w, name+" (traced)", perLayer, layers)
		wr := workloadResult{
			Name: name, Correct: e2e.Correct && layers.Correct,
			Attempted: e2e.Attempted + layers.Attempted, Failed: e2e.Failed + layers.Failed,
			EndToEnd: make(map[string]e2eValue), PerLayer: layers.Metrics,
		}
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
		for k, v := range e2e.Metrics {
			wr.EndToEnd[k] = e2eValue{Value: v.Value, Unit: v.Unit, Spread: e2e.spread[k]}
		}
		ok = ok && wr.Correct
		set.Workloads = append(set.Workloads, wr)
	}
	return set, ok, nil
}

func writeResultSet(path string, set *resultSet) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}
