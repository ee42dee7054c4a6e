package testcluster_test

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"raftpaxos/internal/testcluster"
)

// The sweep is the gate the three stale-read bugs of PRs 13–17 were found
// without: every seed is one run of linearWorkload, and a failing seed
// replays exactly (testcluster ticks in ID order). The default window is
// small enough for tier-1; CI passes a fresh window per run so coverage
// accrues instead of re-proving the same seeds.
var (
	sweepSeeds   = flag.String("sweep-seeds", "9000..9040", "seed window a..b (b exclusive) for TestLinearizableSweep")
	sweepEngines = flag.String("sweep-engines", strings.Join(testcluster.CampaignEngines, ","), "comma-separated engines for TestLinearizableSweep")
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

// TestLinearWorkloadReplays: a seed is only a seed if it replays. Runs of
// one seed must produce the same replies in the same order, for every
// engine the sweep runs. Seed 77 never ties a recovery; seeds 380000 and
// 380063 tie one in multipaxos+fast, where a pick made in map order made
// reruns differ (380063 on about half of them), so they run a few times.
func TestLinearWorkloadReplays(t *testing.T) {
	for _, name := range testcluster.CampaignEngines {
		for _, tc := range []struct {
			seed int64
			runs int
		}{{77, 2}, {380000, 4}, {380063, 6}} {
			first, err := linearWorkload(name, tc.seed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for run := 1; run < tc.runs; run++ {
				again, err := linearWorkload(name, tc.seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(first.Replies, again.Replies) {
					t.Fatalf("%s: seed %d produced different replies on run %d (%d vs %d)",
						name, tc.seed, run+1, len(first.Replies), len(again.Replies))
				}
			}
		}
	}
}
