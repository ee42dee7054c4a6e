package bench

import (
	"testing"
	"time"

	"raftpaxos/internal/workload"
)

// smoke runs a small trial and sanity-checks throughput and latency.
func smoke(t *testing.T, p Protocol, conflictMode bool) *Result {
	t.Helper()
	res, err := Run(Scenario{
		Protocol:         p,
		LeaderSite:       0, // Oregon
		ClientsPerRegion: 5,
		Workload:         workload.Config{ReadPercent: 50, ConflictPercent: 5, ValueSize: 8},
		ConflictMode:     conflictMode,
		Warmup:           500 * time.Millisecond,
		Measure:          2 * time.Second,
		Seed:             42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("%v: zero throughput (events=%d msgs=%d)", p, res.Events, res.MsgsSent)
	}
	return res
}

func TestSmokeRaft(t *testing.T) {
	res := smoke(t, Raft, false)
	lw := res.LatencyOf("leader-write")
	if lw.Count() == 0 {
		t.Fatal("no leader writes measured")
	}
	// Oregon leader commit latency should be in the WAN quorum range
	// (paper: ≈79 ms). Accept a broad band; the shape matters.
	p50 := lw.Percentile(50)
	if p50 < 40*time.Millisecond || p50 > 200*time.Millisecond {
		t.Fatalf("leader write p50 = %v, expected WAN quorum range", p50)
	}
	t.Logf("Raft: tput=%.0f ops/s leader-write %s follower-write %s",
		res.Throughput, lw.Summary(), res.LatencyOf("follower-write").Summary())
}

func TestSmokeRaftStar(t *testing.T) {
	res := smoke(t, RaftStar, false)
	t.Logf("Raft*: tput=%.0f ops/s leader-write %s",
		res.Throughput, res.LatencyOf("leader-write").Summary())
}

func TestSmokeRaftStarPQL(t *testing.T) {
	res := smoke(t, RaftStarPQL, false)
	fr := res.LatencyOf("follower-read")
	if fr.Count() == 0 {
		t.Fatal("no follower reads measured")
	}
	// Local lease reads: follower reads should be ~local (≪ WAN RTT).
	if p50 := fr.Percentile(50); p50 > 20*time.Millisecond {
		t.Fatalf("PQL follower read p50 = %v, expected local-read latency", p50)
	}
	t.Logf("Raft*-PQL: tput=%.0f ops/s follower-read %s follower-write %s",
		res.Throughput, fr.Summary(), res.LatencyOf("follower-write").Summary())
}

func TestSmokeRaftStarLL(t *testing.T) {
	res := smoke(t, RaftStarLL, false)
	lr := res.LatencyOf("leader-read")
	if lr.Count() == 0 {
		t.Fatal("no leader reads measured")
	}
	if p50 := lr.Percentile(50); p50 > 20*time.Millisecond {
		t.Fatalf("LL leader read p50 = %v, expected local-read latency", p50)
	}
	// Follower reads must be WAN (forwarded to the leader).
	if p50 := res.LatencyOf("follower-read").Percentile(50); p50 < 20*time.Millisecond {
		t.Fatalf("LL follower read p50 = %v, expected forwarded WAN latency", p50)
	}
	t.Logf("Raft*-LL: leader-read %s follower-read %s",
		lr.Summary(), res.LatencyOf("follower-read").Summary())
}

func TestSmokeMencius(t *testing.T) {
	res := smoke(t, RaftStarMencius, false)
	fw := res.LatencyOf("follower-write")
	if fw.Count() == 0 {
		t.Fatal("no writes measured")
	}
	t.Logf("Raft*-M-0%%: tput=%.0f ops/s write %s", res.Throughput, fw.Summary())

	res100 := smoke(t, RaftStarMencius, true)
	fw100 := res100.LatencyOf("follower-write")
	t.Logf("Raft*-M-100%%: tput=%.0f ops/s write %s", res100.Throughput, fw100.Summary())
	// 100%-conflict mode waits for the full prefix: its tail must be at
	// least as slow as the commutative mode's.
	if fw100.Percentile(90) < fw.Percentile(90) {
		t.Fatalf("conflicting Mencius (p90=%v) faster than commutative (p90=%v)",
			fw100.Percentile(90), fw.Percentile(90))
	}
}

func TestSmokeMultiPaxos(t *testing.T) {
	res := smoke(t, MultiPaxos, false)
	t.Logf("MultiPaxos: tput=%.0f ops/s leader-write %s",
		res.Throughput, res.LatencyOf("leader-write").Summary())
}

func TestSmokePaxosPQL(t *testing.T) {
	res := smoke(t, PaxosPQL, false)
	fr := res.LatencyOf("follower-read")
	if fr.Count() == 0 {
		t.Fatal("no follower reads measured")
	}
	t.Logf("Paxos-PQL: tput=%.0f ops/s follower-read %s", res.Throughput, fr.Summary())
}

// BenchmarkSimSetup times one wan-sim set-up: raftstar on the paper
// topology with 20 closed-loop clients per site, 50% reads on 8 B values,
// through the election and one virtual second of warm-up, with a 1 ns
// measure window. It is the work the rig's wan-sim `setup_s` medians.
func BenchmarkSimSetup(b *testing.B) {
	sc := Scenario{
		Protocol:         RaftStar,
		ClientsPerRegion: 20,
		Workload:         workload.Config{ReadPercent: 50, ConflictPercent: 2, ValueSize: 8},
		Warmup:           time.Second,
		Measure:          time.Nanosecond,
		Seed:             1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}
