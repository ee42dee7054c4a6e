package testcluster

import (
	"reflect"
	"strings"
	"testing"
)

// TestCampaignSmoke runs a short fix-mode campaign per engine: every
// history must linearize and most ops must complete despite the fault
// schedule.
func TestCampaignSmoke(t *testing.T) {
	for _, engine := range CampaignEngines {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			res := RunCampaign(CampaignConfig{Engine: engine, Seed: 1, Ops: 400})
			if res.Violation != "" {
				t.Fatalf("seed %d: %s (replay: -campaign -campaign-engines %s -campaign-seed %d -campaign-ops %d)",
					res.Seed, res.Violation, res.Engine, res.Seed, res.Ops)
			}
			if res.Ops < 300 {
				t.Fatalf("only %d ops recorded, workload stalled (faults %v)", res.Ops, res.Faults)
			}
		})
	}
}

// TestCampaignSabotageReproducesStaleRead is the tentpole's teeth: with
// the guard band reverted (UnsafeNoLeaseGuard) and the same fault
// schedule, the campaign MUST catch the clock-skew stale read on both
// lease engines — a frozen replica thaws still trusting its lease and
// serves a value that was overwritten while it was out. If this test
// starts passing sabotage runs, the campaign has gone blind and the
// fix-mode runs' clean verdicts mean nothing.
func TestCampaignSabotageReproducesStaleRead(t *testing.T) {
	for _, engine := range []string{"raftstar-pql", "paxos-pql"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			t.Parallel()
			res := RunCampaign(CampaignConfig{Engine: engine, Seed: 1, Ops: 1500, Sabotage: true})
			if res.Violation == "" {
				t.Fatalf("sabotage campaign found no violation (faults %v) — the harness lost its teeth", res.Faults)
			}
			if !strings.Contains(res.Violation, "not linearizable") {
				t.Fatalf("violation is not a checker verdict: %s", res.Violation)
			}
			// The fixed engine must survive the identical seed and schedule.
			if fixed := RunCampaign(CampaignConfig{Engine: engine, Seed: 1, Ops: 1500}); fixed.Violation != "" {
				t.Fatalf("guard band did not save the same schedule: %s", fixed.Violation)
			}
		})
	}
}

// TestCampaignDeterministicReplay pins the property every failure report
// relies on: the same (engine, seed, ops) reproduces the identical run —
// same steps, same fault schedule, same history verdict.
func TestCampaignDeterministicReplay(t *testing.T) {
	for _, cfg := range []CampaignConfig{
		{Engine: "raftstar-pql", Seed: 7, Ops: 600},
		{Engine: "raftstar-pql", Seed: 1, Ops: 600, Sabotage: true},
		{Engine: "multipaxos", Seed: 3, Ops: 600},
	} {
		a, b := RunCampaign(cfg), RunCampaign(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s seed %d replayed differently:\n  %+v\n  %+v", cfg.Engine, cfg.Seed, a, b)
		}
	}
}

// TestCampaignSeedRegressions replays seeds whose schedules exercised
// bugs caught while building the harness and the lease fix: torn
// restarts mid-freeze (restart replay double-apply), disk faults wedging
// a follower's WAL across a leader change, and freeze-thaw read bursts
// against both lease engines. They must stay clean forever.
func TestCampaignSeedRegressions(t *testing.T) {
	regressions := []CampaignConfig{
		{Engine: "raftstar-pql", Seed: 18, Ops: 1000}, // sabotage seed 18's schedule, fixed engine
		{Engine: "paxos-pql", Seed: 8, Ops: 1000},     // sabotage seed 8's schedule, fixed engine
		{Engine: "raft", Seed: 1, Ops: 2000},          // heavy disk-fault + torn-restart mix
		{Engine: "raftstar", Seed: 6, Ops: 1000},
		{Engine: "multipaxos", Seed: 9, Ops: 1000},
	}
	for _, cfg := range regressions {
		cfg := cfg
		t.Run(cfg.Engine, func(t *testing.T) {
			t.Parallel()
			res := RunCampaign(cfg)
			if res.Violation != "" {
				t.Fatalf("seed %d regressed: %s", cfg.Seed, res.Violation)
			}
		})
	}
}

// TestCampaignCrashDiskRedo replays the seeds on which the crash disk let a
// heartbeat ack out over a failed append: the ack claimed an index the
// node's disk did not hold, a later kill restored the shorter log, and two
// replicas applied different commands at one index. A failed batch is now
// redone ahead of every later write, and no ack leaves until it lands.
func TestCampaignCrashDiskRedo(t *testing.T) {
	for _, cfg := range []CampaignConfig{
		{Engine: "raft", Seed: 1031, Ops: 2000},
		{Engine: "raft", Seed: 1645, Ops: 2000},
		{Engine: "raftstar", Seed: 1553, Ops: 2000},
	} {
		if res := RunCampaign(cfg); res.Violation != "" {
			t.Fatalf("%s seed %d: %s", cfg.Engine, cfg.Seed, res.Violation)
		}
	}
}
