package testcluster_test

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The sweep is the gate the three stale-read bugs of PRs 13–17 were found
// without: every seed is one run of linearWorkload, and a failing seed
// replays exactly (testcluster ticks in ID order). The default window is
// small enough for tier-1; CI passes a fresh window per run so coverage
// accrues instead of re-proving the same seeds.
var (
	sweepSeeds   = flag.String("sweep-seeds", "9000..9040", "seed window a..b (b exclusive) for TestLinearizableSweep")
	sweepEngines = flag.String("sweep-engines", "raft,raftstar,multipaxos,rql,pql,raft-fast,raftstar-fast,multipaxos-fast", "comma-separated engines for TestLinearizableSweep")
)

func TestLinearizableSweep(t *testing.T) {
	var lo, hi int64
	if _, err := fmt.Sscanf(*sweepSeeds, "%d..%d", &lo, &hi); err != nil || hi <= lo {
		t.Fatalf("-sweep-seeds=%q: want a..b with a < b", *sweepSeeds)
	}
	for _, name := range strings.Split(*sweepEngines, ",") {
		failed := 0
		for seed := lo; seed < hi; seed++ {
			if _, err := linearWorkload(name, seed); err != nil {
				failed++
				t.Errorf("%v\n  replay: go test ./internal/testcluster -run TestLinearizableSweep -sweep-engines=%s -sweep-seeds=%d..%d",
					err, name, seed, seed+1)
			}
		}
		t.Logf("%s: %d / %d seeds failed (%d..%d)", name, failed, hi-lo, lo, hi)
	}
}

// TestLinearWorkloadReplays: a seed is only a seed if it replays. Two runs
// of one seed must produce the same replies in the same order.
func TestLinearWorkloadReplays(t *testing.T) {
	for _, name := range []string{"raftstar", "multipaxos", "rql", "pql", "raftstar-fast", "multipaxos-fast"} {
		a, errA := linearWorkload(name, 77)
		b, errB := linearWorkload(name, 77)
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", name, errA, errB)
		}
		if !reflect.DeepEqual(a.Replies, b.Replies) {
			t.Fatalf("%s: seed 77 produced different replies on its second run (%d vs %d)", name, len(a.Replies), len(b.Replies))
		}
	}
}
