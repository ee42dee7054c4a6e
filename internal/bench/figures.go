package bench

import (
	"fmt"
	"strings"
	"time"

	"raftpaxos/internal/workload"
)

// Table is a paper-style result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	width := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		width[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", width[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, c := range r {
			w := 0
			if i < len(width) {
				w = width[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Options scale the experiments.
type Options struct {
	// Quick shrinks client counts and windows for CI/benchmark runs.
	Quick bool
	Seed  int64
}

func (o Options) measure() time.Duration {
	if o.Quick {
		return 1 * time.Second
	}
	return 3 * time.Second
}

func msCell(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}

func kopsCell(v float64) string { return fmt.Sprintf("%.1fK", v/1000) }

// fig9Systems are the systems compared in Figure 9.
var fig9Systems = []Protocol{RaftStarPQL, RaftStarLL, Raft, RaftStar}

// Figure9Latency reproduces Figures 9a and 9b: read and write latency at
// the leader site and at follower sites, 50 clients per region, 90% reads,
// 5% conflict, leases 2s/0.5s. Bars are the 90th percentile with a
// 50th–99th band, as in the paper.
func Figure9Latency(opt Options) ([]*Table, []*Result, error) {
	read := &Table{
		Title:   "Figure 9a: read latency (ms, p90 [p50..p99])",
		Columns: []string{"system", "leader", "followers"},
	}
	write := &Table{
		Title:   "Figure 9b: write latency (ms, p90 [p50..p99])",
		Columns: []string{"system", "leader", "followers"},
	}
	var results []*Result
	for _, p := range fig9Systems {
		res, err := Run(Scenario{
			Protocol:         p,
			LeaderSite:       0,
			ClientsPerRegion: 50,
			Workload:         workload.Config{ReadPercent: 90, ConflictPercent: 5, ValueSize: 8},
			Measure:          opt.measure(),
			Seed:             opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
		band := func(class string) string {
			h := res.LatencyOf(class)
			return fmt.Sprintf("%s [%s..%s]",
				msCell(h.Percentile(90)), msCell(h.Percentile(50)), msCell(h.Percentile(99)))
		}
		read.AddRow(p.String(), band("leader-read"), band("follower-read"))
		write.AddRow(p.String(), band("leader-write"), band("follower-write"))
	}
	return []*Table{read, write}, results, nil
}

// peakThroughput saturates one system: it climbs a client ladder until
// adding clients stops helping (closed-loop saturation, as in the paper's
// sweeps) and returns the best observed rate.
func peakThroughput(opt Options, p Protocol, readPct int) (float64, error) {
	ladder := []int{300, 900, 2000}
	if opt.Quick {
		ladder = []int{300, 1200}
	}
	best := 0.0
	for _, clients := range ladder {
		res, err := Run(Scenario{
			Protocol:         p,
			LeaderSite:       0,
			ClientsPerRegion: clients,
			Workload:         workload.Config{ReadPercent: readPct, ConflictPercent: 5, ValueSize: 8},
			Measure:          opt.measure(),
			Seed:             opt.Seed,
		})
		if err != nil {
			return 0, err
		}
		if res.Throughput < best*1.05 {
			// Saturated: more clients no longer help.
			if res.Throughput > best {
				best = res.Throughput
			}
			break
		}
		best = res.Throughput
	}
	return best, nil
}

// Figure9cPeakThroughput reproduces Figure 9c: peak throughput at 50%,
// 90% and 99% reads. The paper's shape: Raft ≈ Raft* ≈ LL (the leader CPU
// saturates identically for reads and writes), with PQL ahead and its
// advantage growing with the read fraction (paper: 1.6×/1.9× at 90%/99%;
// the simulator's perfect read spreading yields larger factors — see
// EXPERIMENTS.md).
func Figure9cPeakThroughput(opt Options) (*Table, map[Protocol][3]float64, error) {
	tab := &Table{
		Title:   "Figure 9c: peak throughput (ops/s)",
		Columns: []string{"system", "50% read", "90% read", "99% read"},
	}
	readPcts := []int{50, 90, 99}
	out := make(map[Protocol][3]float64)
	for _, p := range fig9Systems {
		var vals [3]float64
		row := []string{p.String()}
		for i, rp := range readPcts {
			v, err := peakThroughput(opt, p, rp)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
			row = append(row, kopsCell(v))
		}
		out[p] = vals
		tab.AddRow(row...)
	}
	return tab, out, nil
}

// Figure9dSpeedup reproduces Figure 9d: Raft*-PQL's throughput speedup
// over Raft* as the conflict rate falls from 50% to 0% (90% reads, fixed
// closed-loop client population).
func Figure9dSpeedup(opt Options) (*Table, map[int]float64, error) {
	tab := &Table{
		Title:   fmt.Sprintf("Figure 9d: %v speedup over %v vs conflict rate", RaftStarPQL, RaftStar),
		Columns: []string{"conflict", RaftStar.String() + " (ops/s)", RaftStarPQL.String() + " (ops/s)", "speedup"},
	}
	clients := 150
	if opt.Quick {
		clients = 80
	}
	speedups := map[int]float64{}
	for _, conflict := range []int{50, 40, 30, 20, 10, 0} {
		wl := workload.Config{ReadPercent: 90, ConflictPercent: conflict, ValueSize: 8}
		base, err := Run(Scenario{
			Protocol: RaftStar, LeaderSite: 0, ClientsPerRegion: clients,
			Workload: wl, Measure: opt.measure(), Seed: opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		pqlRes, err := Run(Scenario{
			Protocol: RaftStarPQL, LeaderSite: 0, ClientsPerRegion: clients,
			Workload: wl, Measure: opt.measure(), Seed: opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		sp := (pqlRes.Throughput - base.Throughput) / base.Throughput
		speedups[conflict] = sp
		tab.AddRow(fmt.Sprintf("%d%%", conflict),
			fmt.Sprintf("%.0f", base.Throughput),
			fmt.Sprintf("%.0f", pqlRes.Throughput),
			fmt.Sprintf("%+.0f%%", sp*100))
	}
	return tab, speedups, nil
}

// fig10System is one line of Figure 10.
type fig10System struct {
	Name         string
	Protocol     Protocol
	LeaderSite   int
	ConflictMode bool
}

// fig10Systems are the five configurations of Figure 10: Mencius under
// 100% and 0% conflict, Raft with the best (Oregon) and worst (Seoul)
// leader placement, and Raft* at Oregon for reference.
func fig10Systems() []fig10System {
	return []fig10System{
		{Name: "Raft*-M-100%", Protocol: RaftStarMencius, ConflictMode: true},
		{Name: "Raft*-M-0%", Protocol: RaftStarMencius, ConflictMode: false},
		{Name: "Raft-Oregon", Protocol: Raft, LeaderSite: 0},
		{Name: "Raft*-Oregon", Protocol: RaftStar, LeaderSite: 0},
		{Name: "Raft-Seoul", Protocol: Raft, LeaderSite: 4},
	}
}

// Figure10Throughput reproduces Figures 10a (8 B, CPU-bound) and 10b
// (4 KB, network-bound): throughput versus closed-loop client count per
// region, 100% puts.
func Figure10Throughput(opt Options, valueSize int) (*Table, map[string][]float64, error) {
	clientCounts := []int{50, 200, 500, 1000}
	if valueSize >= 1024 {
		clientCounts = []int{50, 200, 500, 800}
	}
	if opt.Quick {
		clientCounts = clientCounts[:3]
	}
	cols := []string{"system"}
	for _, c := range clientCounts {
		cols = append(cols, fmt.Sprintf("%d cl/region", c))
	}
	tab := &Table{
		Title:   fmt.Sprintf("Figure 10 throughput, %dB values (ops/s)", valueSize),
		Columns: cols,
	}
	series := map[string][]float64{}
	for _, sys := range fig10Systems() {
		row := []string{sys.Name}
		for _, clients := range clientCounts {
			res, err := Run(Scenario{
				Protocol:         sys.Protocol,
				LeaderSite:       sys.LeaderSite,
				ConflictMode:     sys.ConflictMode,
				ClientsPerRegion: clients,
				Workload:         workload.Config{ReadPercent: 0, ConflictPercent: 0, ValueSize: valueSize},
				Measure:          opt.measure(),
				Seed:             opt.Seed,
			})
			if err != nil {
				return nil, nil, err
			}
			series[sys.Name] = append(series[sys.Name], res.Throughput)
			row = append(row, kopsCell(res.Throughput))
		}
		tab.AddRow(row...)
	}
	return tab, series, nil
}

// Figure10Latency reproduces Figures 10c (8 B) and 10d (4 KB): latency
// with 50 clients per region, 100% puts.
func Figure10Latency(opt Options, valueSize int) (*Table, []*Result, error) {
	tab := &Table{
		Title:   fmt.Sprintf("Figure 10 latency, %dB values (ms, p90 [p50..p99])", valueSize),
		Columns: []string{"system", "leader", "followers"},
	}
	var results []*Result
	for _, sys := range fig10Systems() {
		res, err := Run(Scenario{
			Protocol:         sys.Protocol,
			LeaderSite:       sys.LeaderSite,
			ConflictMode:     sys.ConflictMode,
			ClientsPerRegion: 50,
			Workload:         workload.Config{ReadPercent: 0, ConflictPercent: 0, ValueSize: valueSize},
			Measure:          opt.measure(),
			Seed:             opt.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
		band := func(class string) string {
			h := res.LatencyOf(class)
			if h.Count() == 0 {
				return "-"
			}
			return fmt.Sprintf("%s [%s..%s]",
				msCell(h.Percentile(90)), msCell(h.Percentile(50)), msCell(h.Percentile(99)))
		}
		// Mencius has no leader site; every client is "follower" class.
		tab.AddRow(sys.Name, band("leader-write"), band("follower-write"))
		results = results[:len(results)]
	}
	return tab, results, nil
}
