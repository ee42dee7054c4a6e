package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"raftpaxos/internal/workload"
)

// seededRow renders every seeded number of a trial that the simulator's
// event order decides: per-class op counts and latency percentiles (in
// virtual nanoseconds), network totals and the fast path's counters.
// Result.Events is left out: it counts simulator bookkeeping, not protocol
// behaviour, and drops whenever the driver schedules fewer events.
func seededRow(r *Result) string {
	var b strings.Builder
	for _, class := range []string{"leader-read", "leader-write", "follower-read", "follower-write"} {
		h, ok := r.Latency[class]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%s n=%d p50=%d p90=%d p99=%d; ", class, h.Count(),
			h.Percentile(50), h.Percentile(90), h.Percentile(99))
	}
	fs := r.FastStats
	fmt.Fprintf(&b, "msgs=%d bytes=%d fast=%d/%d/%d/%d", r.MsgsSent, r.BytesSent,
		fs.Submitted, fs.FastCommits, fs.ClassicFallbacks, fs.Conflicts)
	return b.String()
}

// TestSeededRowsPinned pins one short seeded trial per registry protocol,
// and the conflict-free fast-path WAN profile, to recorded numbers. Two
// runs of one binary agreeing (simnet.TestDeterminism, wan-sim's double
// runs) cannot catch a change that reorders events the same way every
// time; this test can. A change that is meant to move protocol behaviour
// re-records the rows it moves and says why.
func TestSeededRowsPinned(t *testing.T) {
	paper := func(p Protocol, conflict bool) Scenario {
		return Scenario{
			Protocol:         p,
			ClientsPerRegion: 10,
			Workload:         workload.Config{ReadPercent: 50, ConflictPercent: 2, ValueSize: 8},
			ConflictMode:     conflict,
			Warmup:           500 * time.Millisecond,
			Measure:          1500 * time.Millisecond,
			Seed:             11,
		}
	}
	fast := WANScenario(RaftStar, 5, true, []int{3}, 1, 11)
	fast.Measure = 1500 * time.Millisecond
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"raft", paper(Raft, false),
			"leader-read n=112 p50=70606213 p90=72535875 p99=79233016; leader-write n=98 p50=70606909 p90=73532933 p99=82383947; follower-read n=195 p50=140785979 p90=202155665 p99=207179258; follower-write n=189 p50=141155634 p90=202329948 p99=207543623; msgs=5824 bytes=376546 fast=0/0/0/0"},
		{"raftstar", paper(RaftStar, false),
			"leader-read n=111 p50=70606213 p90=72993584 p99=79375648; leader-write n=98 p50=70606909 p90=75158085 p99=81511050; follower-read n=194 p50=141240968 p90=202425193 p99=211412200; follower-write n=189 p50=140885356 p90=203670904 p99=211412200; msgs=5961 bytes=380456 fast=0/0/0/0"},
		{"multipaxos", paper(MultiPaxos, false),
			"leader-read n=111 p50=70605777 p90=70605863 p99=70607424; leader-write n=101 p50=70606559 p90=70606559 p99=70651282; follower-read n=194 p50=140373865 p90=200374165 p99=200518482; follower-write n=189 p50=140374934 p90=200375262 p99=200630845; msgs=9284 bytes=484487 fast=0/0/0/0"},
		{"raftstar-pql", paper(RaftStarPQL, false),
			"leader-read n=139 p50=562742 p90=562784 p99=577749; leader-write n=112 p50=130610966 p90=137913427 p99=148836917; follower-read n=249 p50=563312 p90=706264 p99=787894; follower-write n=271 p50=214577929 p90=266410864 p99=274653570; msgs=5680 bytes=338995 fast=0/0/0/0"},
		{"raftstar-ll", paper(RaftStarLL, false),
			"leader-read n=239 p50=562784 p90=562909 p99=70606213; leader-write n=203 p50=70606909 p90=70612522 p99=77388105; follower-read n=248 p50=70316786 p90=130385880 p99=203670904; follower-write n=235 p50=140375282 p90=200375612 p99=203670904; msgs=6876 bytes=386297 fast=0/0/0/0"},
		{"raftstar-mencius", paper(RaftStarMencius, false),
			"follower-read n=191 p50=286848367 p90=335378359 p99=355378359; follower-write n=171 p50=126884314 p90=186617856 p99=186659659; msgs=9708 bytes=692528 fast=0/0/0/0"},
		{"raftstar-mencius conflict", paper(RaftStarMencius, true),
			"follower-read n=153 p50=239988000 p90=310013842 p99=345767465; follower-write n=143 p50=230000000 p90=310000130 p99=328608716; msgs=8574 bytes=597666 fast=0/0/0/0"},
		{"paxos-pql", paper(PaxosPQL, false),
			"leader-read n=149 p50=562742 p90=562784 p99=593284; leader-write n=113 p50=130610263 p90=130610263 p99=130611156; follower-read n=252 p50=563078 p90=564376 p99=614731; follower-write n=271 p50=200378636 p90=260378966 p99=260448045; msgs=7472 bytes=403660 fast=0/0/0/0"},
		{"raftstar fast path", fast,
			"follower-write n=21 p50=72664271 p90=72664271 p99=72664271; msgs=1443 bytes=59336 fast=34/33/0/32"},
	}
	for _, tc := range cases {
		res, err := Run(tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := seededRow(res); got != tc.want {
			t.Errorf("%s: seeded row moved\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}
