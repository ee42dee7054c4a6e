package protocol_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"raftpaxos/internal/mencius"
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
			e.(interface{ Campaign() protocol.Output }).Campaign()
			var voter protocol.NodeID
			for voter == e.ID() || voter == p {
				voter++
			}
			e.Step(voter, rename(&raftstar.MsgVoteResp{Term: e.Term(), Granted: true}))
			if !e.IsLeader() {
				t.Fatal("re-election failed")
			}
			return e.Step(p, rename(&raftstar.MsgAppendResp{Term: e.Term()}))
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
		out := e.Submit(cmds(1, protocol.MaxParked+over, protocol.OpPut)...)
		if len(out.Msgs) != 0 {
			t.Fatalf("leaderless writes sent %d messages", len(out.Msgs))
		}
		checkRejected(t, out.Replies, protocol.MaxParked+1, over, protocol.ReplyWrite)
		reads := cmds(100000, protocol.MaxParked+over, protocol.OpGet)
		out = e.SubmitRead(reads...)
		if len(out.Msgs) != 0 {
			t.Fatalf("leaderless reads sent %d messages", len(out.Msgs))
		}
		checkRejected(t, out.Replies, 100000+protocol.MaxParked, over, protocol.ReplyRead)

		out = e.Step(0, eng.heartbeat())
		var sent []string
		for _, env := range out.Msgs {
			switch m := env.Msg.(type) {
			case *protocol.MsgReadForward:
				if env.To != 0 || m.Term != e.Term() || len(m.Cmds) != protocol.MaxParked || m.Cmds[0].ID != 100000 {
					t.Fatalf("read forward to %d at term %d with %d reads, want to 0 at term %d with %d",
						env.To, m.Term, len(m.Cmds), e.Term(), protocol.MaxParked)
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
		out := leader.Step(follower, &protocol.MsgReadForward{Cmds: cmds(1, 1, protocol.OpGet), Term: leader.Term() - 1})
		if len(out.ReadStates) != 0 {
			t.Fatal("a read forwarded at an older term was served without a confirmation round")
		}
		if len(out.Msgs) == 0 {
			t.Fatal("a read forwarded at an older term started no confirmation round")
		}
		out = leader.Step(follower, &protocol.MsgReadForward{Cmds: cmds(2, 1, protocol.OpGet), Term: leader.Term()})
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
		out := leader.Step(follower, &protocol.MsgReadForward{Cmds: cmds(2, 1, protocol.OpGet), Term: leader.Term() + 100})
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
	base := leader.CommitIndex()
	img := protocol.SnapshotImage{Index: base, Term: 1, Data: make([]byte, 4*protocol.SnapshotChunkSize)}
	leader.TruncatePrefix(base)
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

// The rules Votes owns, each checked once over every engine that counts on
// it: breaking one in votes.go fails the test named for it under raft,
// raftstar, multipaxos and mencius alike.

// counter is one engine family as the commit-rule tests drive it by hand.
type counter struct {
	name string
	// lead returns a replica of n that proposes: a leader with its election
	// settled, or Mencius's slot owner 0, with nothing queued.
	lead func(t *testing.T, n int) protocol.Engine
	// vote is peer's durable vote for index i (the Raft family's match
	// covers everything up to i).
	vote func(e protocol.Engine, i int64) protocol.Message
	// isVote reports whether msg is one of the family's votes.
	isVote func(msg protocol.Message) bool
	// submit proposes a write and returns the index it took.
	submit func(e protocol.Engine, id uint64) (int64, protocol.Output)
	// committed reports whether index i is committed at e.
	committed func(e protocol.Engine, i int64) bool
}

// settled elects a leader among n replicas that build makes and settles
// its election entries, leaving the queue empty.
func settled(t *testing.T, n int, build func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine) protocol.Engine {
	t.Helper()
	es := make([]protocol.Engine, n)
	for i := range es {
		es[i] = build(protocol.NodeID(i), peersOf(n))
	}
	c := testcluster.New(7, es...)
	l, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(3)
	c.Queue = nil
	return l
}

func peersOf(n int) []protocol.NodeID {
	ps := make([]protocol.NodeID, n)
	for i := range ps {
		ps[i] = protocol.NodeID(i)
	}
	return ps
}

func put(id uint64) protocol.Command {
	return protocol.Command{ID: id, Client: 900, Op: protocol.OpPut, Key: "k"}
}

func lastIndex(e protocol.Engine) int64 { return e.(interface{ LastIndex() int64 }).LastIndex() }

// leaderCounter is the counter table entry for an engine of the leader
// families, whose votes are resp for the indexes up to i.
func leaderCounter(eng engine, resp func(e protocol.Engine, i int64) protocol.Message) counter {
	return counter{
		name: eng.name,
		lead: func(t *testing.T, n int) protocol.Engine {
			return settled(t, n, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
				return eng.new(id, peers, false, false)
			})
		},
		vote: resp,
		isVote: func(msg protocol.Message) bool {
			name := fmt.Sprintf("%T", msg)
			return strings.HasSuffix(name, ".MsgAppendResp") || strings.HasSuffix(name, ".MsgAcceptOK")
		},
		submit: func(e protocol.Engine, id uint64) (int64, protocol.Output) {
			out := e.Submit(put(id))
			return lastIndex(e), out
		},
		committed: func(e protocol.Engine, i int64) bool { return e.CommitIndex() >= i },
	}
}

// slotCounter is the counter table entry for a coordination-core flavour.
func slotCounter(name string, build func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine) counter {
	board := func(e protocol.Engine) *mencius.Board { return e.(interface{ Board() *mencius.Board }).Board() }
	return counter{
		name: name,
		lead: func(t *testing.T, n int) protocol.Engine { return build(0, peersOf(n)) },
		vote: func(_ protocol.Engine, i int64) protocol.Message { return &mencius.MsgProposeOK{Slots: []int64{i}} },
		isVote: func(msg protocol.Message) bool {
			_, ok := msg.(*mencius.MsgProposeOK)
			return ok
		},
		submit: func(e protocol.Engine, id uint64) (int64, protocol.Output) {
			slot := board(e).Barrier()
			return slot, e.Submit(put(id))
		},
		committed: func(e protocol.Engine, i int64) bool { return board(e).Committed(i) },
	}
}

var counters = []counter{
	leaderCounter(engines[0], func(e protocol.Engine, i int64) protocol.Message {
		return (*raft.MsgAppendResp)(&raftstar.MsgAppendResp{Term: e.Term(), Ok: true, LastIndex: i})
	}),
	leaderCounter(engines[1], func(e protocol.Engine, i int64) protocol.Message {
		return &raftstar.MsgAppendResp{Term: e.Term(), Ok: true, LastIndex: i}
	}),
	leaderCounter(engines[2], func(e protocol.Engine, i int64) protocol.Message {
		return &multipaxos.MsgAcceptOK{Bal: e.Term(), Idxs: []int64{i}}
	}),
	slotCounter("mencius", func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return mencius.New(mencius.Config{ID: id, Peers: peers, DisableRevocation: true})
	}),
}

// ownVotes returns the self-addressed votes e's output asks for.
func ownVotes(cn counter, e protocol.Engine, out protocol.Output) []protocol.Message {
	var own []protocol.Message
	for _, env := range out.Msgs {
		if env.From == e.ID() && env.To == e.ID() && cn.isVote(env.Msg) {
			own = append(own, env.Msg)
		}
	}
	return own
}

// others returns the two replicas of three that are not e.
func others(e protocol.Engine) (protocol.NodeID, protocol.NodeID) {
	a := (e.ID() + 1) % 3
	return a, (a + 1) % 3
}

// TestSelfAckRule: the leader's (or slot owner's) copy is one vote among
// n, counted only once its self-addressed ack comes back; that ack is asked
// for lazily — only when it is the vote an index waits for — and once per
// index.
func TestSelfAckRule(t *testing.T) {
	for _, cn := range counters {
		t.Run(cn.name, func(t *testing.T) {
			t.Run("both peers decide without the leader", func(t *testing.T) {
				l := cn.lead(t, 3)
				p, q := others(l)
				i, out := cn.submit(l, 1)
				if n := len(ownVotes(cn, l, out)); n != 0 {
					t.Fatalf("a proposal alone asked for %d self-acks", n)
				}
				own := ownVotes(cn, l, l.Step(p, cn.vote(l, i)))
				if len(own) != 1 || cn.committed(l, i) {
					t.Fatalf("first peer vote: %d self-acks, committed %v; want the decisive self-ack and no commit", len(own), cn.committed(l, i))
				}
				if out := l.Step(q, cn.vote(l, i)); !cn.committed(l, i) || len(ownVotes(cn, l, out)) != 0 {
					t.Fatal("both peers' votes did not commit without the self-ack, or asked again")
				}
				if out := l.Step(l.ID(), own[0]); len(out.Commits) != 0 || len(ownVotes(cn, l, out)) != 0 {
					t.Fatal("the late self-ack committed again or asked again")
				}
			})
			t.Run("one peer needs the self-ack", func(t *testing.T) {
				l := cn.lead(t, 3)
				p, _ := others(l)
				i, _ := cn.submit(l, 1)
				own := ownVotes(cn, l, l.Step(p, cn.vote(l, i)))
				if len(own) != 1 || cn.committed(l, i) {
					t.Fatalf("one peer vote: %d self-acks, committed %v; want one self-ack and no commit", len(own), cn.committed(l, i))
				}
				if l.Step(l.ID(), own[0]); !cn.committed(l, i) {
					t.Fatal("not committed after the self-ack came back")
				}
			})
			t.Run("once per decisive index", func(t *testing.T) {
				l := cn.lead(t, 3)
				p, _ := others(l)
				var idx []int64
				var own []protocol.Message
				for id := uint64(1); id <= 4; id++ {
					i, out := cn.submit(l, id)
					idx = append(idx, i)
					own = append(own, ownVotes(cn, l, out)...)
				}
				for _, i := range idx {
					own = append(own, ownVotes(cn, l, l.Step(p, cn.vote(l, i)))...)
				}
				if len(own) != 1 {
					t.Fatalf("%d self-acks for four proposals voted for one by one, want one covering all four", len(own))
				}
				l.Step(l.ID(), own[0])
				for _, i := range idx {
					if !cn.committed(l, i) {
						t.Fatalf("index %d not committed after the self-ack", i)
					}
				}
			})
			t.Run("a lone replica acks itself", func(t *testing.T) {
				l := cn.lead(t, 1)
				i, out := cn.submit(l, 1)
				own := ownVotes(cn, l, out)
				if len(own) != 1 || cn.committed(l, i) {
					t.Fatalf("lone replica: %d self-acks, committed %v; want one self-ack, commit after it", len(own), cn.committed(l, i))
				}
				if l.Step(l.ID(), own[0]); !cn.committed(l, i) {
					t.Fatal("lone replica not committed after its self-ack")
				}
			})
		})
	}
}

// TestMustAckRule: a vote counts toward a quorum only once every replica
// Hooks.MustAck names for its voter voted for the same index too, the
// leader's own vote is not asked for while it could not decide, and
// Recheck counts the vote once the named set shrinks. Raft takes no hooks
// (raft.New drops them), so the rule runs under raftstar and multipaxos.
func TestMustAckRule(t *testing.T) {
	hooked := map[string]func(id protocol.NodeID, peers []protocol.NodeID, h protocol.Hooks) protocol.Engine{
		"raftstar": func(id protocol.NodeID, peers []protocol.NodeID, h protocol.Hooks) protocol.Engine {
			return raftstar.New(raftstar.Config{ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 7, Hooks: h})
		},
		"multipaxos": func(id protocol.NodeID, peers []protocol.NodeID, h protocol.Hooks) protocol.Engine {
			return multipaxos.New(multipaxos.Config{ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 7, Hooks: h})
		},
	}
	for _, cn := range counters[1:3] {
		t.Run(cn.name, func(t *testing.T) {
			holders := map[protocol.NodeID][]protocol.NodeID{}
			h := protocol.Hooks{MustAck: func(p protocol.NodeID) []protocol.NodeID { return holders[p] }}
			l := settled(t, 3, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
				return hooked[cn.name](id, peers, h)
			})
			p, q := others(l)
			holders[p] = []protocol.NodeID{q} // p's vote binds q's
			i, out := cn.submit(l, 1)
			if own := append(ownVotes(cn, l, out), ownVotes(cn, l, l.Step(p, cn.vote(l, i)))...); len(own) != 0 {
				t.Fatalf("%d self-acks asked for although the leader's vote could not decide", len(own))
			}
			l.Step(l.ID(), cn.vote(l, i))
			if cn.committed(l, i) {
				t.Fatal("committed on the leader's vote and one bound to a replica that did not vote")
			}
			delete(holders, p)
			l.(interface{ Recheck() protocol.Output }).Recheck()
			if !cn.committed(l, i) {
				t.Fatal("not committed after the set MustAck names shrank")
			}
		})
	}
}

// TestNonCommittingAckAllocatesNothing: a vote that commits nothing costs
// no allocation in the counter — a range of match indexes (raft, raftstar;
// counted twice, the durable votes and then with the leader's whole log)
// or one instance's voter set (multipaxos), among five replicas.
func TestNonCommittingAckAllocatesNothing(t *testing.T) {
	for _, cn := range counters[:3] {
		t.Run(cn.name, func(t *testing.T) {
			l := cn.lead(t, 5)
			p, _ := others(l)
			i, _ := cn.submit(l, 1)
			vote := cn.vote(l, i)
			l.Step(p, vote)
			if cn.committed(l, i) {
				t.Fatal("one vote of five committed")
			}
			if allocs := testing.AllocsPerRun(100, func() { l.Step(p, vote) }); allocs != 0 {
				t.Fatalf("non-committing vote: %v allocs, want 0", allocs)
			}
		})
	}
}

// TestAcceptLostToEveryPeerIsResent: a write whose append or accept no peer
// received — the leader was cut off for exactly that Submit — completes
// after the heal, with a read submitted behind it, although no later write
// exposes the loss.
func TestAcceptLostToEveryPeerIsResent(t *testing.T) {
	eachEngine(t, func(t *testing.T, eng engine) {
		c, leader, _ := electReadLeader(t, eng)
		id := leader.ID()
		c.Isolate(id, true)
		c.Submit(id, protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v")})
		c.DeliverAll(100000)
		c.Isolate(id, false)
		c.SubmitRead(id, protocol.Command{ID: 2, Client: 900, Op: protocol.OpGet, Key: "k"})
		c.Settle(3 * 10) // three election timeouts
		for _, want := range []uint64{1, 2} {
			done := false
			for _, r := range c.Replies {
				done = done || (r.CmdID == want && r.Err == nil)
			}
			if !done {
				t.Fatalf("command %d never completed after the heal", want)
			}
		}
		if !leader.IsLeader() {
			t.Fatal("the leader was deposed")
		}
	})
}
