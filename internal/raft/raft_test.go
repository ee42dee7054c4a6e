package raft_test

import (
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// What Raft's rule set alone decides. Everything it shares with Raft* is
// covered by the conformance suite in package raftstar, which runs over
// both variants.

func newEngine(id protocol.NodeID, peers []protocol.NodeID, seed int64) *raft.Engine {
	return raft.New(raftstar.Config{
		ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: seed,
	})
}

func newCluster(n int, seed int64) *testcluster.Cluster {
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	engines := make([]protocol.Engine, n)
	for i := range peers {
		engines[i] = newEngine(peers[i], peers, seed)
	}
	return testcluster.New(seed, engines...)
}

// TestErasesConflictingSuffix drives the accept rule that distinguishes
// standard Raft: a follower with a longer, conflicting log erases its
// suffix to match the leader — its log gets SHORTER, the transition Raft*
// forbids (there the leader extends its own log instead) and the reason
// Raft cannot refine MultiPaxos.
func TestErasesConflictingSuffix(t *testing.T) {
	c := newCluster(5, 2)
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	// Leader appends entries that reach nobody (isolated).
	c.Isolate(leader.ID(), true)
	c.Queue = nil
	for i := 0; i < 5; i++ {
		c.Submit(leader.ID(), protocol.Command{ID: uint64(100 + i), Op: protocol.OpPut, Key: "k"})
	}
	c.DeliverAll(100000) // all dropped at the partition
	old := leader.(*raft.Engine)
	stale := old.LastIndex()
	if stale < 5 {
		t.Fatalf("old leader should have appended locally, last=%d", stale)
	}

	// A new leader emerges among the rest and commits fresh entries.
	var next protocol.Engine
	for r := 0; r < 600 && next == nil; r++ {
		c.Tick()
		c.DeliverAll(100000)
		for _, e := range c.Engines {
			if e.IsLeader() && e.ID() != leader.ID() {
				next = e
			}
		}
	}
	if next == nil {
		t.Fatal("no new leader")
	}
	c.Submit(next.ID(), protocol.Command{ID: 200, Op: protocol.OpPut, Key: "k"})
	c.Settle(10)

	// Heal: the old leader must erase its uncommitted suffix and adopt
	// the new leader's log.
	c.Isolate(leader.ID(), false)
	c.Settle(20)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if got, want := old.LastIndex(), next.(*raft.Engine).LastIndex(); got != want || got >= stale {
		t.Fatalf("old leader's log ends at %d, want the new leader's %d, shorter than its stale %d", got, want, stale)
	}
	found := false
	for _, ent := range c.Applied[leader.ID()] {
		if ent.Cmd.ID >= 100 && ent.Cmd.ID < 200 {
			t.Fatalf("uncommitted entry %d survived the erase", ent.Cmd.ID)
		}
		if ent.Cmd.ID == 200 {
			found = true
		}
	}
	if !found {
		t.Fatal("old leader did not adopt the new leader's committed entry")
	}
}

// TestCommitRestriction542 checks the election and commit rules together:
// a new leader appends a no-op barrier at its own term, may not commit an
// older term's entry by counting replicas (§5.4.2) however many hold it,
// and commits it only beneath the barrier.
func TestCommitRestriction542(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	x := newEngine(0, peers, 3)
	cmd := protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k"}

	// A dead leader at term 1 left X one uncommitted entry.
	x.Step(2, &raft.MsgAppendReq{Term: 1, Entries: []protocol.Entry{{Index: 1, Term: 1, Bal: 1, Cmd: cmd}}})
	// X wins term 2 on node 1's vote and appends its barrier at index 2.
	x.Campaign()
	x.Step(1, &raft.MsgVoteResp{Term: 2, Granted: true})
	if !x.IsLeader() || x.LastIndex() != 2 {
		t.Fatalf("leader=%v last=%d, want a leader whose log ends at its barrier (index 2)", x.IsLeader(), x.LastIndex())
	}
	if ent, _ := x.EntryAt(2); !ent.Cmd.IsNop() || ent.Term != 2 {
		t.Fatalf("entry 2 = %+v, want the term-2 no-op barrier", ent)
	}

	// Node 1 holds the old entry but not the barrier: a quorum replicates
	// index 1, and it must stay uncommitted.
	out := x.Step(1, &raft.MsgAppendResp{Term: 2, Ok: true, LastIndex: 1})
	if len(out.Commits) != 0 || x.CommitIndex() != 0 {
		t.Fatalf("committed %d entries (commit=%d) by counting replicas of a term-1 entry", len(out.Commits), x.CommitIndex())
	}
	// Once the barrier is quorum-replicated, both commit.
	out = x.Step(1, &raft.MsgAppendResp{Term: 2, Ok: true, LastIndex: 2})
	if len(out.Commits) != 2 || x.CommitIndex() != 2 || out.Commits[0].Entry.Cmd.ID != 1 {
		t.Fatalf("commits = %+v (commit=%d), want the old entry then the barrier", out.Commits, x.CommitIndex())
	}
}
