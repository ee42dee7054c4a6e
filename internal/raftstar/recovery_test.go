package raftstar_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
)

// TestVoterExtraEntriesRecovered exercises Raft*'s signature mechanism
// directly (Figure 2a lines 14-15, 22-27): a granting voter whose log is
// LONGER than the candidate's ships its extra entries in the vote reply,
// and the new leader extends its own log with the safe values instead of
// later truncating the voter (standard Raft would erase them).
//
// Staged state: candidate X holds one committed-era entry at term 2;
// voter W holds three uncommitted term-1 entries (replicated to it alone
// by a dead leader). X's last term (2) beats W's (1), so W grants — and
// must ship entries 2..3, which X adopts and re-proposes at its term.
func TestVoterExtraEntriesRecovered(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	mk := func(id protocol.NodeID) *raftstar.Engine {
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 11,
		})
	}
	x, w := mk(0), mk(1)
	cmd := func(id uint64) protocol.Command {
		return protocol.Command{ID: id, Client: 900, Op: protocol.OpPut, Key: "k"}
	}

	// Dead leader 2 at term 1 replicated three entries to W alone.
	w.Step(2, &raftstar.MsgAppendReq{
		Term: 1, PrevIndex: 0, PrevTerm: 0,
		Entries: []protocol.Entry{
			{Index: 1, Term: 1, Bal: 1, Cmd: cmd(1)},
			{Index: 2, Term: 1, Bal: 1, Cmd: cmd(2)},
			{Index: 3, Term: 1, Bal: 1, Cmd: cmd(3)},
		},
	})
	if w.LastIndex() != 3 {
		t.Fatalf("witness log = %d, want 3", w.LastIndex())
	}

	// A later leader 2 at term 2 gave X a single entry (so X's last term
	// beats W's despite the shorter log).
	x.Step(2, &raftstar.MsgAppendReq{
		Term: 2, PrevIndex: 0, PrevTerm: 0,
		Entries: []protocol.Entry{{Index: 1, Term: 2, Bal: 2, Cmd: cmd(10)}},
	})
	if x.LastIndex() != 1 {
		t.Fatalf("candidate log = %d, want 1", x.LastIndex())
	}

	// X campaigns (term 3). W must grant and ship entries 2..3.
	out := x.Campaign()
	var req *raftstar.MsgVoteReq
	for _, env := range out.Msgs {
		if m, ok := env.Msg.(*raftstar.MsgVoteReq); ok && env.To == w.ID() {
			req = m
		}
	}
	if req == nil {
		t.Fatal("no vote request to the witness")
	}
	wOut := w.Step(x.ID(), req)
	var resp *raftstar.MsgVoteResp
	for _, env := range wOut.Msgs {
		if m, ok := env.Msg.(*raftstar.MsgVoteResp); ok {
			resp = m
		}
	}
	if resp == nil || !resp.Granted {
		t.Fatalf("witness did not grant: %+v", resp)
	}
	if len(resp.Extra) != 2 || resp.Extra[0].Index != 2 || resp.Extra[1].Index != 3 {
		t.Fatalf("extras = %+v, want entries 2..3", resp.Extra)
	}

	// Deliver the grant: with its own implicit vote, X has a quorum (2/3)
	// and must become leader with the witness's entries adopted.
	x.Step(w.ID(), resp)
	if !x.IsLeader() {
		t.Fatal("candidate did not become leader")
	}
	if x.LastIndex() != 3 {
		t.Fatalf("leader log = %d, want 3 (extras adopted)", x.LastIndex())
	}
	for i := int64(2); i <= 3; i++ {
		ent, _ := x.EntryAt(i)
		if ent.Cmd.ID != uint64(i) {
			t.Fatalf("entry %d = %+v, want recovered cmd %d", i, ent, i)
		}
		// Re-proposed at the leader's ballot (the Paxos-style re-stamp).
		if ent.Bal != x.Term() {
			t.Fatalf("entry %d ballot = %d, want current term %d", i, ent.Bal, x.Term())
		}
	}
	// X's own index-1 entry (from the higher term) must win over W's.
	ent, _ := x.EntryAt(1)
	if ent.Cmd.ID != 10 {
		t.Fatalf("entry 1 = cmd %d, want 10 (the higher-ballot value)", ent.Cmd.ID)
	}
}

// schedule is a random fault-injection plan for property testing.
type schedule struct {
	Seed      int64
	Drops     float64
	Batches   int
	Partition bool
}

// Generate implements quick.Generator.
func (schedule) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(schedule{
		Seed:      r.Int63n(1 << 30),
		Drops:     float64(r.Intn(25)) / 100,
		Batches:   2 + r.Intn(6),
		Partition: r.Intn(2) == 0,
	})
}

// TestAgreementProperty: under arbitrary drop rates, chaotic reordering
// and a transient partition, no two replicas ever apply conflicting
// entries — checked across randomized schedules with testing/quick, under
// either rule set.
func TestAgreementProperty(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) { agreementProperty(t, v) })
}

func agreementProperty(t *testing.T, v variant) {
	check := func(s schedule) bool {
		c := v.cluster(3, s.Seed, false)
		c.DropRate = s.Drops
		leader, err := c.ElectLeader(500)
		if err != nil {
			return true // no leader under heavy loss: vacuously safe
		}
		id := uint64(1)
		for b := 0; b < s.Batches; b++ {
			for k := 0; k < 5; k++ {
				c.Submit(leader.ID(), protocol.Command{
					ID: id, Client: 900, Op: protocol.OpPut, Key: "k",
				})
				id++
			}
			c.DeliverChaos(5000)
			if s.Partition && b == s.Batches/2 {
				c.Isolate(leader.ID(), true)
				for r := 0; r < 50; r++ {
					c.Tick()
					c.DeliverChaos(100000)
				}
				c.Isolate(leader.ID(), false)
			}
		}
		c.DropRate = 0
		for r := 0; r < 60; r++ {
			c.Tick()
			c.DeliverChaos(100000)
		}
		return c.CheckAgreement() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFastRecoveryReplaysInVoterOrder: with five replicas, two voters
// that report different speculative commands for one slot leave both below
// the recovery threshold (2 of 3 participants), so ChooseFast adopts the
// first report — which must be the same one on every run, or a seed does
// not replay. Reports are gathered in voter ID order: voter 1's command.
func TestFastRecoveryReplaysInVoterOrder(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2, 3, 4}
	a, b := protocol.Command{ID: 101, Op: protocol.OpPut, Key: "k"}, protocol.Command{ID: 102, Op: protocol.OpPut, Key: "k"}
	eachVariant(t, func(t *testing.T, v variant) {
		for run := 0; run < 100; run++ {
			cfg := config(0, peers, int64(run), false)
			cfg.FastPath = true
			x := v.new(cfg)
			x.Campaign()
			for _, voter := range []struct {
				id  protocol.NodeID
				cmd protocol.Command
			}{{2, b}, {1, a}} {
				resp := raftstar.MsgVoteResp{Term: x.Term(), Granted: true,
					Extra: []protocol.Entry{{Index: 1, Term: 1, Bal: 0, Cmd: voter.cmd}}}
				var msg protocol.Message = &resp
				if v.name == "raft" {
					msg = (*raft.MsgVoteResp)(&resp)
				}
				x.Step(voter.id, msg)
			}
			if !x.IsLeader() {
				t.Fatal("candidate not elected by three of five")
			}
			if ent, _ := x.EntryAt(1); ent.Cmd.ID != a.ID {
				t.Fatalf("run %d adopted command %d at slot 1, want voter 1's %d", run, ent.Cmd.ID, a.ID)
			}
		}
	})
}
