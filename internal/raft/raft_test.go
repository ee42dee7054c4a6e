package raft_test

import (
	"fmt"
	"reflect"
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
	// Once the barrier is quorum-replicated — node 1's ack plus X's own,
	// which X asks for now and its runtime hands back durable — both commit.
	out = x.Step(1, &raft.MsgAppendResp{Term: 2, Ok: true, LastIndex: 2})
	if len(out.Msgs) != 1 || out.Msgs[0].To != 0 || x.CommitIndex() != 0 {
		t.Fatalf("msgs = %+v (commit=%d), want only X's self-ack", out.Msgs, x.CommitIndex())
	}
	out = x.Step(0, out.Msgs[0].Msg)
	if len(out.Commits) != 2 || x.CommitIndex() != 2 || out.Commits[0].Entry.Cmd.ID != 1 {
		t.Fatalf("commits = %+v (commit=%d), want the old entry then the barrier", out.Commits, x.CommitIndex())
	}
}

// TestOnlyRaftTypesLeave drives a raft.Engine through every exported method
// that returns an Output and fails if a message it emits has one of
// raftstar's types: Raft's wire identity is stamped where the engine builds
// a message (rules.Rename), so no method — promoted ones like Recheck
// included — may leak the engine's own. The drive must cover every such
// method the type has, and between them emit each of Raft's five types.
func TestOnlyRaftTypesLeave(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	cfg := func(id protocol.NodeID) raftstar.Config {
		return raftstar.Config{ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 1, Seed: 1, ReadIndex: true}
	}
	leader, follower := raft.New(cfg(0)), raft.New(cfg(1))
	driven := map[string]bool{}
	emitted := map[string]bool{}
	// to returns the one message out sends to p.
	to := func(out protocol.Output, p protocol.NodeID) protocol.Message {
		t.Helper()
		for _, env := range out.Msgs {
			if env.To == p {
				return env.Msg
			}
		}
		t.Fatalf("nothing sent to %d", p)
		return nil
	}
	drive := func(method string, out protocol.Output) protocol.Output {
		t.Helper()
		driven[method] = true
		for _, env := range out.Msgs {
			typ := reflect.TypeOf(env.Msg).Elem()
			if typ.PkgPath() == reflect.TypeOf(raftstar.Engine{}).PkgPath() {
				t.Errorf("%s emitted %s.%s to %d", method, typ.PkgPath(), typ.Name(), env.To)
			}
			emitted[fmt.Sprintf("%T", env.Msg)] = true
		}
		return out
	}
	put := func(id uint64) protocol.Command { return protocol.Command{ID: id, Op: protocol.OpPut, Key: "k"} }
	get := func(id uint64) protocol.Command { return protocol.Command{ID: id, Op: protocol.OpGet, Key: "k"} }

	req := to(drive("Campaign", leader.Campaign()), 1)
	grant := to(drive("Step", follower.Step(0, req)), 0)
	announce := to(drive("Step", leader.Step(1, grant)), 1)
	drive("Step", follower.Step(0, announce))
	drive("Tick", leader.Tick())
	drive("Submit", follower.Submit(put(1)))
	drive("Submit", follower.Submit(put(2), put(3)))
	drive("SubmitRead", follower.SubmitRead(get(4)))
	drive("SubmitRead", follower.SubmitRead(get(5), get(8)))
	drive("SubmitRead", leader.SubmitRead(get(6)))
	// The follower's ack makes the leader's own vote decisive: it asks for
	// it with a self-addressed append response.
	ack := to(drive("Step", follower.Step(0, to(drive("Submit", leader.Submit(put(7))), 1))), 0)
	to(drive("Step", leader.Step(1, ack)), 0)
	drive("Recheck", leader.Recheck())

	outputType := reflect.TypeOf(protocol.Output{})
	typ := reflect.TypeOf(leader)
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if m.Type.NumOut() == 1 && m.Type.Out(0) == outputType && !driven[m.Name] {
			t.Errorf("%s returns an Output but the test never drives it", m.Name)
		}
	}
	for _, want := range []protocol.Message{&raft.MsgVoteReq{}, &raft.MsgVoteResp{}, &raft.MsgAppendReq{}, &raft.MsgAppendResp{}, &raft.MsgForward{}} {
		if name := fmt.Sprintf("%T", want); !emitted[name] {
			t.Errorf("the drive never emitted a %s", name)
		}
	}
}
