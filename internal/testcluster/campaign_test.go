package testcluster

import (
	"reflect"
	"strings"
	"testing"

	"raftpaxos/internal/engines"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
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
// same steps, same fault schedule, same history verdict. The heavy
// disk-fault and torn-restart mix pins that the persisters' virtual clock
// makes the commit-save throttle replay too.
func TestCampaignDeterministicReplay(t *testing.T) {
	for _, cfg := range []CampaignConfig{
		{Engine: "raftstar-pql", Seed: 7, Ops: 600},
		{Engine: "raftstar-pql", Seed: 1, Ops: 600, Sabotage: true},
		{Engine: "multipaxos", Seed: 3, Ops: 600},
		{Engine: "raft", Seed: 1, Ops: 2000}, // heavy disk-fault + torn-restart mix
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
// against both lease engines, and a follower committing a deposed
// leader's entries below a speculative slot (raftstar+fast 770291). They
// must stay clean forever.
func TestCampaignSeedRegressions(t *testing.T) {
	regressions := []CampaignConfig{
		{Engine: "raftstar-pql", Seed: 18, Ops: 1000}, // sabotage seed 18's schedule, fixed engine
		{Engine: "paxos-pql", Seed: 8, Ops: 1000},     // sabotage seed 8's schedule, fixed engine
		{Engine: "raft", Seed: 1, Ops: 2000},          // heavy disk-fault + torn-restart mix
		{Engine: "raftstar", Seed: 6, Ops: 1000},
		{Engine: "multipaxos", Seed: 9, Ops: 1000},
		{Engine: "raftstar+fast", Seed: 770291, Ops: 2000},
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

// TestCampaignCrashDiskRedo replays the seeds on which the campaign's
// first disk model let a heartbeat ack out over a failed append: the ack
// claimed an index the node's disk did not hold, a later kill restored the
// shorter log, and two replicas applied different commands at one index.
// The redo is the persister's (cluster.Persister, as in the live runtime):
// a failed batch is redone ahead of every later write, and no ack leaves
// until it lands.
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

// TestCrashStore pins the campaign's disk model, by hand: what a kill and
// a torn restart keep, what restore brings back, and that a faulty store
// refuses every write.
func TestCrashStore(t *testing.T) {
	ents := func(lo, hi int64) []protocol.Entry {
		var out []protocol.Entry
		for i := lo; i <= hi; i++ {
			out = append(out, protocol.Entry{Index: i, Term: 1, Cmd: protocol.Command{ID: uint64(i)}})
		}
		return out
	}
	hs := func(commit int64) storage.HardState { return storage.HardState{Term: 1, VotedFor: 2, Commit: commit} }
	// synced writes 1..2 with hard state commit 1, synced, then buffers 3.
	synced := func(s *crashStore) error {
		if err := s.AppendBuffered(ents(1, 2)); err != nil {
			return err
		}
		if err := s.SyncBatch(hs(1), true); err != nil {
			return err
		}
		return s.AppendBuffered(ents(3, 3))
	}
	for _, tc := range []struct {
		name       string
		write      func(s *crashStore) error
		torn       bool
		wantErr    bool
		wantLast   int64
		wantHS     storage.HardState
		wantCommit int64
	}{
		{name: "buffered append survives a kill", write: synced, wantLast: 3, wantHS: hs(1), wantCommit: 1},
		{name: "buffered append lost on a torn restart", write: synced, torn: true, wantLast: 2, wantHS: hs(1), wantCommit: 1},
		{name: "shortening overwrite lowers the watermark", write: func(s *crashStore) error {
			if err := synced(s); err != nil {
				return err
			}
			if err := s.SyncBatch(hs(1), false); err != nil {
				return err
			}
			if err := s.AppendBuffered(ents(2, 2)); err != nil { // erases 3, which was synced
				return err
			}
			return s.AppendBuffered(ents(3, 3)) // the new 3 is not
		}, torn: true, wantLast: 2, wantHS: hs(1), wantCommit: 1},
		{name: "commit-only save above the synced log, kill", write: func(s *crashStore) error {
			if err := synced(s); err != nil {
				return err
			}
			return s.SaveHardState(hs(3))
		}, wantLast: 3, wantHS: hs(3), wantCommit: 3},
		{name: "commit-only save above the synced log, torn", write: func(s *crashStore) error {
			if err := synced(s); err != nil {
				return err
			}
			return s.SaveHardState(hs(3))
		}, torn: true, wantLast: 2, wantHS: hs(3), wantCommit: 2},
		{name: "faulty append fails", write: func(s *crashStore) error {
			if err := synced(s); err != nil {
				return err
			}
			s.faulty = true
			return s.AppendBuffered(ents(4, 4))
		}, wantErr: true, wantLast: 3, wantHS: hs(1), wantCommit: 1},
		{name: "faulty sync fails", write: func(s *crashStore) error {
			if err := synced(s); err != nil {
				return err
			}
			s.faulty = true
			return s.SyncBatch(hs(3), true)
		}, torn: true, wantErr: true, wantLast: 2, wantHS: hs(1), wantCommit: 1},
		{name: "faulty save fails", write: func(s *crashStore) error {
			if err := synced(s); err != nil {
				return err
			}
			s.faulty = true
			return s.SaveHardState(hs(3))
		}, wantErr: true, wantLast: 3, wantHS: hs(1), wantCommit: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &crashStore{Mem: storage.NewMem()}
			if err := tc.write(s); (err != nil) != tc.wantErr {
				t.Fatalf("writes returned %v, want an error: %v", err, tc.wantErr)
			}
			if tc.torn {
				s.tear()
			}
			if last, _ := s.LastIndex(); last != tc.wantLast {
				t.Fatalf("log through %d after the restart, want %d", last, tc.wantLast)
			}
			if got, _ := s.HardState(); got != tc.wantHS {
				t.Fatalf("hard state %+v after the restart, want %+v", got, tc.wantHS)
			}
			spec, _ := engines.Parse("raft")
			spec.ElectionTicks, spec.HeartbeatTicks = 10, 2
			e := engines.New(spec, 2, []protocol.NodeID{0, 1, 2})
			if got := s.restore(e); int64(len(got)) != tc.wantLast {
				t.Fatalf("restore brought back %d entries, want %d", len(got), tc.wantLast)
			}
			if e.Term() != tc.wantHS.Term || e.VotedFor() != tc.wantHS.VotedFor || e.CommitIndex() != tc.wantCommit {
				t.Fatalf("restored term %d vote %d commit %d, want %d %d %d",
					e.Term(), e.VotedFor(), e.CommitIndex(), tc.wantHS.Term, tc.wantHS.VotedFor, tc.wantCommit)
			}
		})
	}
}
