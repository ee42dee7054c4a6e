package protocol_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// The rules Front and CatchUp own, each checked once over every engine
// that lends them its moves. Breaking a rule in front.go or snapshot.go
// fails the test named for it under raft, raftstar and multipaxos alike.

// engine is one engine family as these tests drive it.
type engine struct {
	name string
	new  func(id protocol.NodeID, peers []protocol.NodeID, passive, readIndex bool) protocol.Engine
	// heartbeat is what replica 0 leading at its first term or ballot sends
	// a follower: it makes replica 0 the known leader.
	heartbeat func() protocol.Message
	// lead makes e, which stepped down, lead again at a higher term or
	// ballot and has peer p ask it for the snapshot it was shipping p.
	lead func(t *testing.T, e protocol.Engine, p protocol.NodeID) protocol.Output
}

// raftFamily is the engine table entry for a raftstar rule set; rename
// gives the engine's messages the variant's wire types.
func raftFamily(name string, build func(raftstar.Config) protocol.Engine, rename func(protocol.Message) protocol.Message) engine {
	return engine{
		name: name,
		new: func(id protocol.NodeID, peers []protocol.NodeID, passive, readIndex bool) protocol.Engine {
			return build(raftstar.Config{ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 7, Passive: passive, ReadIndex: readIndex})
		},
		heartbeat: func() protocol.Message { return rename(&raftstar.MsgAppendReq{Term: 1}) },
		lead: func(t *testing.T, e protocol.Engine, p protocol.NodeID) protocol.Output {
			r := e.(interface {
				Campaign() protocol.Output
				Term() uint64
			})
			r.Campaign()
			var voter protocol.NodeID
			for voter == e.ID() || voter == p {
				voter++
			}
			e.Step(voter, rename(&raftstar.MsgVoteResp{Term: r.Term(), Granted: true}))
			if !e.IsLeader() {
				t.Fatal("re-election failed")
			}
			return e.Step(p, rename(&raftstar.MsgAppendResp{Term: r.Term()}))
		},
	}
}

var engines = []engine{
	raftFamily("raft", func(c raftstar.Config) protocol.Engine { return raft.New(c) }, func(m protocol.Message) protocol.Message {
		switch m := m.(type) {
		case *raftstar.MsgAppendReq:
			return (*raft.MsgAppendReq)(m)
		case *raftstar.MsgAppendResp:
			return (*raft.MsgAppendResp)(m)
		case *raftstar.MsgVoteResp:
			return (*raft.MsgVoteResp)(m)
		}
		return m
	}),
	raftFamily("raftstar", func(c raftstar.Config) protocol.Engine { return raftstar.New(c) }, func(m protocol.Message) protocol.Message { return m }),
	{
		name: "multipaxos",
		new: func(id protocol.NodeID, peers []protocol.NodeID, passive, readIndex bool) protocol.Engine {
			return multipaxos.New(multipaxos.Config{ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 7, Passive: passive, ReadIndex: readIndex})
		},
		// Replica 0's first ballot among three is 3.
		heartbeat: func() protocol.Message { return &multipaxos.MsgAccept{Bal: 3} },
		// An acceptor's promise is all a stranded preparer needs: p prepares
		// from instance 1 at a higher ballot, and e ships its snapshot along.
		lead: func(t *testing.T, e protocol.Engine, p protocol.NodeID) protocol.Output {
			return e.Step(p, &multipaxos.MsgPrepare{Bal: e.(*multipaxos.Engine).Ballot() + 1, Unchosen: 1})
		},
	},
}

func eachEngine(t *testing.T, body func(t *testing.T, eng engine)) {
	for _, eng := range engines {
		t.Run(eng.name, func(t *testing.T) { body(t, eng) })
	}
}

var three = []protocol.NodeID{0, 1, 2}

func term(e protocol.Engine) uint64 { return e.(interface{ Term() uint64 }).Term() }

func cmds(first uint64, n int, op protocol.Op) []protocol.Command {
	out := make([]protocol.Command, n)
	for i := range out {
		out[i] = protocol.Command{ID: first + uint64(i), Client: 900, Op: op, Key: "k"}
	}
	return out
}

// checkRejected demands that replies are exactly ErrNotLeader answers of
// kind for the commands numbered from first on.
func checkRejected(t *testing.T, replies []protocol.ClientReply, first uint64, n int, kind protocol.ReplyKind) {
	t.Helper()
	if len(replies) != n {
		t.Fatalf("%d replies, want %d rejections past the cap", len(replies), n)
	}
	for i, r := range replies {
		if r.CmdID != first+uint64(i) || r.Kind != kind || !errors.Is(r.Err, protocol.ErrNotLeader) {
			t.Fatalf("reply %d = %+v, want ErrNotLeader of kind %d for command %d", i, r, kind, first+uint64(i))
		}
	}
}

// TestFrontParksWithoutLeader: with no leader known, the first MaxParked
// writes and the first MaxParked reads park and the rest are rejected with
// ErrNotLeader, as writes and as reads; once a leader is known, the parked
// reads leave as one MsgReadForward stamped with the current term, then
// the parked writes as one forward.
func TestFrontParksWithoutLeader(t *testing.T) {
	const over = 10
	eachEngine(t, func(t *testing.T, eng engine) {
		e := eng.new(1, three, false, true)
		out := protocol.SubmitAll(e, cmds(1, protocol.MaxParked+over, protocol.OpPut))
		if len(out.Msgs) != 0 {
			t.Fatalf("leaderless writes sent %d messages", len(out.Msgs))
		}
		checkRejected(t, out.Replies, protocol.MaxParked+1, over, protocol.ReplyWrite)
		reads := cmds(100000, protocol.MaxParked+over, protocol.OpGet)
		out = protocol.SubmitReads(e, reads)
		if len(out.Msgs) != 0 {
			t.Fatalf("leaderless reads sent %d messages", len(out.Msgs))
		}
		checkRejected(t, out.Replies, 100000+protocol.MaxParked, over, protocol.ReplyRead)

		out = e.Step(0, eng.heartbeat())
		var sent []string
		for _, env := range out.Msgs {
			switch m := env.Msg.(type) {
			case *protocol.MsgReadForward:
				if env.To != 0 || m.Term != term(e) || len(m.Cmds) != protocol.MaxParked || m.Cmds[0].ID != 100000 {
					t.Fatalf("read forward to %d at term %d with %d reads, want to 0 at term %d with %d",
						env.To, m.Term, len(m.Cmds), term(e), protocol.MaxParked)
				}
				sent = append(sent, "reads")
			default:
				if !strings.HasSuffix(fmt.Sprintf("%T", m), ".MsgForward") {
					continue
				}
				if n := m.(interface{ CmdCount() int }).CmdCount(); env.To != 0 || n != protocol.MaxParked {
					t.Fatalf("write forward to %d with %d writes, want to 0 with %d", env.To, n, protocol.MaxParked)
				}
				sent = append(sent, "writes")
			}
		}
		if strings.Join(sent, ",") != "reads,writes" {
			t.Fatalf("flush sent %v, want one read forward then one write forward", sent)
		}
	})
}

// electReadLeader elects a leader among three replicas with ReadIndex on.
func electReadLeader(t *testing.T, eng engine) (*testcluster.Cluster, protocol.Engine, protocol.NodeID) {
	t.Helper()
	es := make([]protocol.Engine, len(three))
	for i, id := range three {
		es[i] = eng.new(id, three, false, true)
	}
	c := testcluster.New(7, es...)
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(3)
	c.Queue = nil
	follower := (leader.ID() + 1) % 3
	return c, leader, follower
}

// TestFrontWitnessOnlyAtEqualTerm: among three replicas a read forwarded
// at the leader's own term is confirmed on the spot — leader and forwarder
// are a quorum — while one stamped with an older term gets the full
// confirmation round.
func TestFrontWitnessOnlyAtEqualTerm(t *testing.T) {
	eachEngine(t, func(t *testing.T, eng engine) {
		_, leader, follower := electReadLeader(t, eng)
		out := leader.Step(follower, &protocol.MsgReadForward{Cmds: cmds(1, 1, protocol.OpGet), Term: term(leader) - 1})
		if len(out.ReadStates) != 0 {
			t.Fatal("a read forwarded at an older term was served without a confirmation round")
		}
		if len(out.Msgs) == 0 {
			t.Fatal("a read forwarded at an older term started no confirmation round")
		}
		out = leader.Step(follower, &protocol.MsgReadForward{Cmds: cmds(2, 1, protocol.OpGet), Term: term(leader)})
		if len(out.ReadStates) != 1 || out.ReadStates[0].Cmds[0].ID != 2 {
			t.Fatalf("a read forwarded at the leader's term was not served at once: %+v", out.ReadStates)
		}
	})
}

// TestFrontFailsParkedReadsOnStepDown: a read waiting at the leader for
// its confirmation round fails with ErrNotLeader the moment the leader
// sees a higher term, so its client retries instead of hanging.
func TestFrontFailsParkedReadsOnStepDown(t *testing.T) {
	eachEngine(t, func(t *testing.T, eng engine) {
		_, leader, follower := electReadLeader(t, eng)
		if out := leader.SubmitRead(cmds(1, 1, protocol.OpGet)[0]); len(out.ReadStates)+len(out.Replies) != 0 {
			t.Fatal("a leader read completed without a confirmation round")
		}
		out := leader.Step(follower, &protocol.MsgReadForward{Cmds: cmds(2, 1, protocol.OpGet), Term: term(leader) + 100})
		if leader.IsLeader() {
			t.Fatal("leader kept leading past a higher term")
		}
		checkRejected(t, out.Replies, 1, 1, protocol.ReplyRead)
	})
}

// transfer strands replica 2 (passive, so the other two lead) behind a
// compacted leader and runs the cluster until the leader ships it the
// first chunk of a four-chunk image. The rest of the queue is dropped: the
// tests step the sender by hand.
func transfer(t *testing.T, eng engine) (sender protocol.Engine, chunk *protocol.MsgInstallSnapshot) {
	t.Helper()
	const victim = protocol.NodeID(2)
	es := make([]protocol.Engine, len(three))
	for i, id := range three {
		es[i] = eng.new(id, three, id == victim, false)
	}
	c := testcluster.New(7, es...)
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	put := func(id uint64) { c.Submit(leader.ID(), protocol.Command{ID: id, Op: protocol.OpPut, Key: "k"}) }
	for i := uint64(1); i <= 5; i++ {
		put(i)
	}
	c.Settle(3)
	c.Isolate(victim, true)
	for i := uint64(6); i <= 30; i++ {
		put(i)
	}
	c.Settle(3)
	base := leader.(interface{ CommitIndex() int64 }).CommitIndex()
	img := protocol.SnapshotImage{Index: base, Term: 1, Data: make([]byte, 4*protocol.SnapshotChunkSize)}
	leader.(protocol.PrefixTruncator).TruncatePrefix(base)
	leader.(protocol.SnapshotSender).SetSnapshotProvider(protocol.SnapshotProviderFunc(func() (protocol.SnapshotImage, bool) { return img, true }))
	c.Isolate(victim, false)
	for r := 0; r < 200; r++ {
		c.Tick()
		for n := 0; n < 1000 && len(c.Queue) > 0; n++ {
			for _, env := range c.Queue {
				if m, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && env.From == leader.ID() && env.To == victim {
					if m.Offset != 0 || m.Index != base || !leader.IsLeader() {
						t.Fatalf("transfer opened at offset %d of image %d (leading: %v), want 0 of %d", m.Offset, m.Index, leader.IsLeader(), base)
					}
					c.Queue = nil
					return leader, m
				}
			}
			c.DeliverAll(1)
		}
	}
	t.Fatal("the leader never shipped its snapshot")
	return nil, nil
}

// chunksTo returns the snapshot chunks out sends to p.
func chunksTo(out protocol.Output, p protocol.NodeID) []*protocol.MsgInstallSnapshot {
	var chunks []*protocol.MsgInstallSnapshot
	for _, env := range out.Msgs {
		if m, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && env.To == p {
			chunks = append(chunks, m)
		}
	}
	return chunks
}

// TestCatchUpIgnoresStaleAcks: an install ack from an older transfer (an
// older image) or from another term neither paces the transfer nor, when
// it reports the image installed, resumes replication or ends the
// transfer — the current transfer's own ack still releases the next chunk.
func TestCatchUpIgnoresStaleAcks(t *testing.T) {
	eachEngine(t, func(t *testing.T, eng engine) {
		sender, chunk := transfer(t, eng)
		const victim = protocol.NodeID(2)
		stale := []protocol.MsgInstallSnapshotResp{
			{Term: chunk.Term, Index: chunk.Index - 1, NextOffset: protocol.SnapshotChunkSize},
			{Term: chunk.Term - 1, Index: chunk.Index, NextOffset: protocol.SnapshotChunkSize},
			{Term: chunk.Term, Index: chunk.Index - 1, Installed: true},
			{Term: chunk.Term - 1, Index: chunk.Index, Installed: true},
		}
		for _, ack := range stale {
			for _, env := range sender.Step(victim, &ack).Msgs {
				if env.To == victim {
					t.Fatalf("stale ack %+v sent %T to the receiver", ack, env.Msg)
				}
			}
		}
		ack := &protocol.MsgInstallSnapshotResp{Term: chunk.Term, Index: chunk.Index, NextOffset: protocol.SnapshotChunkSize}
		if next := chunksTo(sender.Step(victim, ack), victim); len(next) != 1 || next[0].Offset != protocol.SnapshotChunkSize {
			t.Fatalf("the transfer's own ack released %d chunks, want the one at offset %d", len(next), protocol.SnapshotChunkSize)
		}
	})
}

// TestCatchUpDropsTransfersOnStepDown: a replica that steps down abandons
// its transfers, so when it ships again at a higher term the image
// restarts from offset 0 at once — not the old transfer resumed (its
// chunk at the old offset) or held back (its retry damping).
func TestCatchUpDropsTransfersOnStepDown(t *testing.T) {
	eachEngine(t, func(t *testing.T, eng engine) {
		sender, chunk := transfer(t, eng)
		const victim = protocol.NodeID(2)
		ack := &protocol.MsgInstallSnapshotResp{Term: chunk.Term, Index: chunk.Index, NextOffset: protocol.SnapshotChunkSize}
		if len(chunksTo(sender.Step(victim, ack), victim)) != 1 {
			t.Fatal("the ack released no chunk")
		}
		sender.Step(1-sender.ID(), &protocol.MsgReadForward{Term: chunk.Term + 100})
		if sender.IsLeader() {
			t.Fatal("sender kept leading past a higher term")
		}
		out := eng.lead(t, sender, victim)
		next := chunksTo(out, victim)
		if len(next) != 1 || next[0].Offset != 0 || next[0].Term <= chunk.Term+100 {
			t.Fatalf("shipping again sent %d chunks (%+v), want one at offset 0 above term %d", len(next), next, chunk.Term+100)
		}
	})
}
