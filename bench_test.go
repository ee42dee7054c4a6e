package raftpaxos_test

import (
	"testing"
	"time"

	"raftpaxos"
	"raftpaxos/internal/bench"
	"raftpaxos/internal/mc"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/simnet"
	"raftpaxos/internal/specs"
	"raftpaxos/internal/testcluster"
	"raftpaxos/internal/workload"
)

// Every table and figure of the paper's evaluation has a bench target
// here. The benches report the figure's headline quantities as custom
// metrics (ops/s, milliseconds); `go test -bench Figure -benchtime 1x`
// regenerates them all. cmd/raftpaxos-bench prints the full series.

func quickOpts(b *testing.B) raftpaxos.EvalOptions {
	b.Helper()
	return raftpaxos.EvalOptions{Quick: true, Seed: 1}
}

// BenchmarkFigure9aReadLatency — read latency per site class (Fig 9a).
func BenchmarkFigure9aReadLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs, results, err := bench.Figure9Latency(quickOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		_ = tabs
		for _, r := range results {
			name := r.Scenario.Protocol.String()
			b.ReportMetric(ms(r.LatencyOf("leader-read").Percentile(90)), name+"-leader-read-p90-ms")
			b.ReportMetric(ms(r.LatencyOf("follower-read").Percentile(90)), name+"-follower-read-p90-ms")
		}
	}
}

// BenchmarkFigure9bWriteLatency — write latency per site class (Fig 9b).
func BenchmarkFigure9bWriteLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Figure9Latency(quickOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			name := r.Scenario.Protocol.String()
			b.ReportMetric(ms(r.LatencyOf("leader-write").Percentile(90)), name+"-leader-write-p90-ms")
			b.ReportMetric(ms(r.LatencyOf("follower-write").Percentile(90)), name+"-follower-write-p90-ms")
		}
	}
}

// BenchmarkFigure9cPeakThroughput — peak throughput vs read share (Fig 9c).
func BenchmarkFigure9cPeakThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, vals, err := bench.Figure9cPeakThroughput(quickOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		for proto, v := range vals {
			b.ReportMetric(v[1], proto.String()+"-90read-ops")
			b.ReportMetric(v[2], proto.String()+"-99read-ops")
		}
	}
}

// BenchmarkFigure9dSpeedupVsConflict — PQL speedup vs conflict rate (Fig 9d).
func BenchmarkFigure9dSpeedupVsConflict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, speedups, err := bench.Figure9dSpeedup(quickOpts(b))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(speedups[0]*100, "speedup-0conflict-pct")
		b.ReportMetric(speedups[50]*100, "speedup-50conflict-pct")
	}
}

// BenchmarkFigure10aThroughput8B — CPU-bound throughput (Fig 10a).
func BenchmarkFigure10aThroughput8B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, series, err := bench.Figure10Throughput(quickOpts(b), 8)
		if err != nil {
			b.Fatal(err)
		}
		for name, s := range series {
			b.ReportMetric(maxOf(s), name+"-peak-ops")
		}
	}
}

// BenchmarkFigure10bThroughput4KB — network-bound throughput (Fig 10b).
func BenchmarkFigure10bThroughput4KB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, series, err := bench.Figure10Throughput(quickOpts(b), 4096)
		if err != nil {
			b.Fatal(err)
		}
		for name, s := range series {
			b.ReportMetric(maxOf(s), name+"-peak-ops")
		}
	}
}

// BenchmarkFigure10cLatency8B — latency, 8B requests (Fig 10c).
func BenchmarkFigure10cLatency8B(b *testing.B) {
	benchFig10Latency(b, 8)
}

// BenchmarkFigure10dLatency4KB — latency, 4KB requests (Fig 10d).
func BenchmarkFigure10dLatency4KB(b *testing.B) {
	benchFig10Latency(b, 4096)
}

func benchFig10Latency(b *testing.B, size int) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Figure10Latency(quickOpts(b), size)
		if err != nil {
			b.Fatal(err)
		}
		names := []string{"M-100", "M-0", "Raft-Oregon", "RaftStar-Oregon", "Raft-Seoul"}
		for k, r := range results {
			if k >= len(names) {
				break
			}
			h := r.LatencyOf("follower-write")
			if lw := r.LatencyOf("leader-write"); lw.Count() > 0 {
				b.ReportMetric(ms(lw.Percentile(90)), names[k]+"-leader-p90-ms")
			}
			b.ReportMetric(ms(h.Percentile(90)), names[k]+"-follower-p90-ms")
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func maxOf(s []float64) float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// --- Ablation and micro benchmarks ---

// BenchmarkAblationCostModel compares the single-leader peak with and
// without the WAN bandwidth model (the DESIGN.md ablation on what bounds
// Figure 10a vs 10b).
func BenchmarkAblationCostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bw := range []float64{750e6, 0} {
			cost := simnet.DefaultCostModel()
			cost.BandwidthBps = bw
			res, err := bench.Run(bench.Scenario{
				Protocol:         bench.Raft,
				ClientsPerRegion: 300,
				Workload:         workload.Config{ReadPercent: 0, ValueSize: 4096},
				Cost:             cost,
				Measure:          time.Second,
				Seed:             1,
			})
			if err != nil {
				b.Fatal(err)
			}
			label := "with-bandwidth-ops"
			if bw == 0 {
				label = "no-bandwidth-ops"
			}
			b.ReportMetric(res.Throughput, label)
		}
	}
}

// BenchmarkRaftStarReplication measures raw engine step throughput: a
// 3-replica Raft* cluster replicating pipelined commands in memory.
func BenchmarkRaftStarReplication(b *testing.B) {
	peers := []protocol.NodeID{0, 1, 2}
	engines := make([]protocol.Engine, 3)
	for i := range engines {
		engines[i] = raftstar.New(raftstar.Config{
			ID: peers[i], Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 9,
		})
	}
	c := testcluster.New(9, engines...)
	leader, err := c.ElectLeader(100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Submit(leader.ID(), protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
		c.DeliverAll(1 << 20)
	}
	b.StopTimer()
	if err := c.CheckAgreement(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimnetEvents measures the discrete-event simulator's raw event
// rate (the budget behind every figure run).
func BenchmarkSimnetEvents(b *testing.B) {
	sim := simnet.New(3)
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			sim.After(time.Microsecond, chain)
		}
	}
	b.ResetTimer()
	sim.After(time.Microsecond, chain)
	sim.RunUntilIdle()
}

// BenchmarkModelCheckMultiPaxos measures exhaustive exploration speed of
// the Appendix B.1 spec at the default bounds.
func BenchmarkModelCheckMultiPaxos(b *testing.B) {
	cfg := specs.TinyConsensus()
	for i := 0; i < b.N; i++ {
		res := mc.Check(specs.MultiPaxos(cfg), nil, mc.Options{MaxStates: 1 << 20})
		b.ReportMetric(float64(res.States), "states")
		b.ReportMetric(float64(res.Transitions), "transitions")
	}
}

// BenchmarkRefinementCheck measures the Raft* ⇒ MultiPaxos refinement
// verification (the Appendix C obligation).
func BenchmarkRefinementCheck(b *testing.B) {
	cfg := specs.TinyConsensus()
	for i := 0; i < b.N; i++ {
		res := mc.CheckRefinement(specs.RaftStarToMultiPaxos(cfg), nil,
			mc.Options{MaxStates: 1 << 20, MaxHops: 4})
		if res.Violation != nil {
			b.Fatal(res.Violation)
		}
		b.ReportMetric(float64(res.Transitions), "transitions")
	}
}
