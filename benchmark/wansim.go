package main

import (
	"fmt"
	"os"
	"time"

	"raftpaxos"
	"raftpaxos/internal/bench"
	ycsb "raftpaxos/internal/workload"
)

// wan-sim runs raftpaxos.RunScenario on the paper's 5-site topology in
// seeded virtual time: 20 closed-loop clients per site, 50% reads, 2% of
// requests on one hot record, 8 B values. It is the only workload with
// message delay (the paper's RTT matrix), so it is where a change in
// protocol rounds shows; the wall clock plays no part in its latencies.

// wanProtocols are the seven names raftpaxos.ParseProto accepts, each
// with the simulator's protocol selector.
var wanProtocols = []struct {
	name  string
	proto bench.Protocol
}{
	{"multipaxos", bench.MultiPaxos},
	{"raft", bench.Raft},
	{"raftstar", bench.RaftStar},
	{"raftstar-pql", bench.RaftStarPQL},
	{"raftstar-ll", bench.RaftStarLL},
	{"raftstar-mencius", bench.RaftStarMencius},
	{"paxos-pql", bench.PaxosPQL},
}

func paperScenario(p bench.Protocol, seed int64, measure time.Duration) raftpaxos.EvalScenario {
	return raftpaxos.EvalScenario{
		Protocol:         p,
		LeaderSite:       0,
		ClientsPerRegion: 20,
		Workload:         ycsb.Config{ReadPercent: 50, ConflictPercent: 2, ValueSize: 8},
		Warmup:           time.Second,
		Measure:          measure,
		Seed:             seed,
	}
}

// wanNumbers is what one scenario run reports. Everything but wall is a
// function of the seed alone.
type wanNumbers struct {
	writeP50, writeP90, readP50, readP90 float64 // follower-site, virtual ms
	opsPerS, writesPerS                  float64 // virtual
	ops                                  int64
	msgs, bytes, events                  uint64
	fastCommits, fallbacks, conflicts    int64
	wall                                 time.Duration
}

func runWan(sc raftpaxos.EvalScenario) (wanNumbers, error) {
	start := time.Now()
	res, err := raftpaxos.RunScenario(sc)
	if err != nil {
		return wanNumbers{}, err
	}
	vms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fw, fr := res.LatencyOf("follower-write"), res.LatencyOf("follower-read")
	writes := fw.Count() + res.LatencyOf("leader-write").Count()
	return wanNumbers{
		writeP50: vms(fw.Percentile(50)), writeP90: vms(fw.Percentile(90)),
		readP50: vms(fr.Percentile(50)), readP90: vms(fr.Percentile(90)),
		opsPerS:     res.Throughput,
		writesPerS:  float64(writes) / sc.Measure.Seconds(),
		ops:         int64(writes + fr.Count() + res.LatencyOf("leader-read").Count()),
		msgs:        res.MsgsSent,
		bytes:       res.BytesSent,
		events:      res.Events,
		fastCommits: res.FastStats.FastCommits, fallbacks: res.FastStats.ClassicFallbacks,
		conflicts: res.FastStats.Conflicts,
		wall:      time.Since(start),
	}, nil
}

// sameNumbers reports whether two runs of one scenario agree on every
// seeded number.
func sameNumbers(a, b wanNumbers) bool {
	a.wall, b.wall = 0, 0
	return a == b
}

// runWanTwice runs a scenario twice in this process and counts a
// violation if the second run does not reproduce the first.
func runWanTwice(name string, sc raftpaxos.EvalScenario) (wanNumbers, int64, error) {
	first, err := runWan(sc)
	if err != nil {
		return wanNumbers{}, 0, err
	}
	second, err := runWan(sc)
	if err != nil {
		return wanNumbers{}, 0, err
	}
	if !sameNumbers(first, second) {
		fmt.Fprintf(os.Stderr, "check: wan-sim %s is not deterministic: %+v then %+v\n", name, first, second)
		return first, 1, nil
	}
	return first, 0, nil
}

// wanSetupRuns is how often the set-up is repeated for its median.
const wanSetupRuns = 21

// runWanSim is the untraced wan-sim run: raftstar, the engine the live
// workloads run, measured for `measure` of virtual time. Set-up is
// everything before the measured window — topology, engines, clients,
// election and one virtual second of warm-up — timed on the wall clock.
func runWanSim(seed int64, measure time.Duration) (*runResult, error) {
	var setups []float64
	for i := 0; i < wanSetupRuns; i++ {
		n, err := runWan(paperScenario(bench.RaftStar, seed, time.Nanosecond))
		if err != nil {
			return nil, err
		}
		setups = append(setups, n.wall.Seconds())
	}
	n, violations, err := runWanTwice("raftstar", paperScenario(bench.RaftStar, seed, measure))
	if err != nil {
		return nil, err
	}
	res := newRunResult()
	res.Attempted, res.Failed = n.ops, violations
	// 21 repetitions, the first ones cold: their quartiles say how steady
	// the median is, where max-min would only show the first repetition.
	res.set("setup_s", median(setups), (quartile(setups, 75)-quartile(setups, 25))/median(setups))
	res.set("write_p50_ms", n.writeP50, 0)
	res.set("write_p90_ms", n.writeP90, 0)
	res.set("read_p50_ms", n.readP50, 0)
	res.set("commits_per_s", n.writesPerS, 0)
	return res, nil
}

// wanSuite is the traced half of wan-sim, also reported by every traced
// live run: all seven protocols on the paper topology, Mencius with 4 KB
// values and writes only (Figure 10b), and the conflict-free fast-path
// profile on the 5-site WAN topology. Each runs twice; the numbers must
// repeat exactly.
func wanSuite(seed int64, measure time.Duration) (map[string]float64, wanNumbers, int64, error) {
	out := make(map[string]float64)
	var total wanNumbers
	var violations int64
	add := func(name string, sc raftpaxos.EvalScenario) (wanNumbers, error) {
		n, v, err := runWanTwice(name, sc)
		violations += v
		total.ops += 2 * n.ops
		total.events += 2 * n.events
		return n, err
	}
	start := time.Now()
	for _, p := range wanProtocols {
		n, err := add(p.name, paperScenario(p.proto, seed, measure))
		if err != nil {
			return nil, total, 0, err
		}
		out["engine."+p.name+".msgs_per_op"] = float64(n.msgs) / float64(n.ops)
		out["engine."+p.name+".bytes_per_op"] = float64(n.bytes) / float64(n.ops)
		switch p.proto {
		case bench.RaftStar:
			out["wan_write_p50_ms"] = n.writeP50
		case bench.RaftStarPQL:
			out["wan_lease_read_p50_ms"] = n.readP50
			out["wan_lease_write_p50_ms"] = n.writeP50
		}
	}
	big := paperScenario(bench.RaftStarMencius, seed, measure)
	big.Workload = ycsb.Config{ReadPercent: 0, ConflictPercent: 0, ValueSize: 4096}
	n, err := add("raftstar-mencius 4KB", big)
	if err != nil {
		return nil, total, 0, err
	}
	out["wan_mencius_ops_per_s"] = n.opsPerS

	fast := bench.WANScenario(bench.RaftStar, 5, true, []int{3}, 1, seed)
	fast.Measure = measure
	n, err = add("raftstar fast path", fast)
	if err != nil {
		return nil, total, 0, err
	}
	out["wan_fast_write_p50_ms"] = n.writeP50
	if decided := n.fastCommits + n.fallbacks; decided > 0 {
		out["engine.fast_commit_share"] = float64(n.fastCommits) / float64(decided)
		out["engine.conflict_rate"] = float64(n.conflicts) / float64(decided)
	}
	total.wall = time.Since(start)
	out["engine.sim_events_per_s"] = float64(total.events) / total.wall.Seconds()
	return out, total, violations, nil
}
