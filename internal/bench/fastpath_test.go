package bench

import (
	"testing"
	"time"
)

func followerWriteP50(t *testing.T, sc Scenario) (*Result, time.Duration) {
	t.Helper()
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	fw := res.LatencyOf("follower-write")
	if fw.Count() == 0 {
		t.Fatalf("%v fast=%v: no follower writes measured", sc.Protocol, sc.FastPath)
	}
	return res, fw.Percentile(50)
}

// TestFastPathWANConflictFree is the acceptance profile: a single
// submitting site on the 5-node WAN, where the fast path's one-RTT
// broadcast must land at ≤ 0.6× the classic forward-then-replicate
// latency for every engine that carries the port.
func TestFastPathWANConflictFree(t *testing.T) {
	// Canada submits: its fast quorum (4/5 incl. Oregon's leader ack)
	// completes in ~72 ms, against a classic forward→replicate→reply
	// chain of ~130 ms through the Oregon leader.
	submitter := []int{3}
	for _, p := range []Protocol{Raft, RaftStar, MultiPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			fastRes, fast := followerWriteP50(t, WANScenario(p, 5, true, submitter, 1, 11))
			_, classic := followerWriteP50(t, WANScenario(p, 5, false, submitter, 1, 11))
			t.Logf("%v WAN-5 conflict-free: fast p50 %v vs classic p50 %v (%.2fx), %d fast commits, %d fallbacks",
				p, fast, classic, float64(fast)/float64(classic),
				fastRes.FastStats.FastCommits, fastRes.FastStats.ClassicFallbacks)
			if fastRes.FastStats.FastCommits == 0 {
				t.Fatalf("%v: fast path never committed (fallbacks=%d conflicts=%d)",
					p, fastRes.FastStats.ClassicFallbacks, fastRes.FastStats.Conflicts)
			}
			if float64(fast) > 0.6*float64(classic) {
				t.Fatalf("%v: fast p50 %v > 0.6x classic p50 %v", p, fast, classic)
			}
		})
	}
}

// TestFastPathWANHighConflict races every site into the same slots (the
// worst case for Fast Paxos): the path must degrade gracefully — commits
// still complete via the leader's classic arbitration at no worse than
// ~2x the classic path's latency.
func TestFastPathWANHighConflict(t *testing.T) {
	for _, p := range []Protocol{Raft, RaftStar, MultiPaxos} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			fastRes, fast := followerWriteP50(t, WANScenario(p, 5, true, nil, 2, 13))
			_, classic := followerWriteP50(t, WANScenario(p, 5, false, nil, 2, 13))
			st := fastRes.FastStats
			t.Logf("%v WAN-5 high-conflict: fast p50 %v vs classic p50 %v (%.2fx), %d fast, %d fallback, %d conflicts",
				p, fast, classic, float64(fast)/float64(classic),
				st.FastCommits, st.ClassicFallbacks, st.Conflicts)
			if float64(fast) > 2.0*float64(classic) {
				t.Fatalf("%v: high-conflict fast p50 %v > 2x classic p50 %v", p, fast, classic)
			}
			// The counts are honest: on a lossless network every command put
			// on the fast path commits, once, as a fast commit or a fallback —
			// all but the one each of the 8 follower-site clients has in
			// flight when the run ends.
			if decided := st.FastCommits + st.ClassicFallbacks; decided > st.Submitted || decided < st.Submitted-8 {
				t.Fatalf("%v: %d fast + %d fallback commits for %d fast-path submissions",
					p, st.FastCommits, st.ClassicFallbacks, st.Submitted)
			}
		})
	}
}

// TestFastPathWAN7 exercises the 7-node WAN profile. A 7-replica fast
// quorum is 6/7 — nearly the whole cluster — so the one-RTT path is no
// longer guaranteed to beat a well-placed leader; the profile pins down
// that it still commits, still counts fast commits when uncontended, and
// stays within the graceful-degradation envelope.
func TestFastPathWAN7(t *testing.T) {
	fastRes, fast := followerWriteP50(t, WANScenario(RaftStar, 7, true, []int{3}, 1, 17))
	_, classic := followerWriteP50(t, WANScenario(RaftStar, 7, false, []int{3}, 1, 17))
	st := fastRes.FastStats
	t.Logf("Raft* WAN-7 conflict-free: fast p50 %v vs classic p50 %v (%.2fx), %d fast, %d fallback",
		fast, classic, float64(fast)/float64(classic), st.FastCommits, st.ClassicFallbacks)
	if st.FastCommits == 0 {
		t.Fatalf("WAN-7: fast path never committed (fallbacks=%d)", st.ClassicFallbacks)
	}
	if float64(fast) > 2.0*float64(classic) {
		t.Fatalf("WAN-7: fast p50 %v > 2x classic p50 %v", fast, classic)
	}
}
