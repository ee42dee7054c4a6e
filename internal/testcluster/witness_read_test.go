package testcluster_test

import (
	"testing"

	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// The witness rule (protocol.ReadTracker): a read forwarded by a follower
// arrives stamped with the forwarder's term/ballot, and a leader at that
// same term counts the forwarder toward the confirmation quorum. These
// tests pin the rule, its two fallbacks and its safety argument once, over
// every engine that inherits it.
var witnessEngines = []string{"raft", "raftstar", "multipaxos"}

// witnessCluster elects a leader among n replicas and completes the write
// k=v1 (command 1) everywhere, leaving the network quiet.
func witnessCluster(t *testing.T, name string, seed int64, n int) (c *testcluster.Cluster, h *testcluster.History, leader, follower protocol.NodeID) {
	t.Helper()
	c = testcluster.New(seed, linearEnginesN(name, seed, n)...)
	l, err := c.ElectLeader(300)
	if err != nil {
		t.Fatal(err)
	}
	leader = l.ID()
	follower = (leader + 1) % protocol.NodeID(n)
	h = testcluster.NewHistory()
	h.Invoke(1, 0, true, "k", "v1")
	c.Submit(leader, protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v1")})
	c.Settle(5)
	mustReturn(t, c, h, 1)
	if len(c.Queue) != 0 {
		t.Fatalf("network not quiet after settling: %d queued", len(c.Queue))
	}
	return c, h, leader, follower
}

func readCmd(id uint64) protocol.Command {
	return protocol.Command{ID: id, Client: 901, Op: protocol.OpGet, Key: "k"}
}

// isRoundMsg reports whether msg is a leadership-confirmation broadcast:
// the append/accept a ReadIndex round rides on.
func isRoundMsg(msg protocol.Message) bool {
	switch msg.(type) {
	case *raft.MsgAppendReq, *raftstar.MsgAppendReq, *multipaxos.MsgAccept:
		return true
	}
	return false
}

// servedValue returns the value cmdID was answered with, if it was.
func servedValue(c *testcluster.Cluster, cmdID uint64) (string, bool) {
	for _, rep := range c.Replies {
		if rep.CmdID == cmdID && rep.Err == nil {
			return string(rep.Value), true
		}
	}
	return "", false
}

// deliverNext delivers the first queued message matching pick, ahead of
// everything else.
func deliverNext(t *testing.T, c *testcluster.Cluster, pick func(protocol.Envelope) bool) {
	t.Helper()
	for i, env := range c.Queue {
		if pick(env) {
			copy(c.Queue[1:i+1], c.Queue[:i])
			c.Queue[0] = env
			c.DeliverAll(1)
			return
		}
	}
	t.Fatalf("no queued message matches (%d queued)", len(c.Queue))
}

// A forwarded read in a group of three costs one message delay: the
// forward carries the follower's term, leader + forwarder is the quorum,
// and the ReadState leaves in the very step that received it — no
// append/accept is emitted. A read submitted at the leader has no witness
// and still runs exactly one round.
func TestForwardedReadNeedsNoRoundOfThree(t *testing.T) {
	for _, name := range witnessEngines {
		t.Run(name, func(t *testing.T) {
			c, _, leader, f := witnessCluster(t, name, 71, 3)

			c.SubmitRead(f, readCmd(10))
			if len(c.Queue) != 1 {
				t.Fatalf("follower read queued %d messages, want the forward alone", len(c.Queue))
			}
			fwd, ok := c.Queue[0].Msg.(*protocol.MsgReadForward)
			if !ok || c.Queue[0].To != leader {
				t.Fatalf("follower read sent %T to %d, want a forward to leader %d", c.Queue[0].Msg, c.Queue[0].To, leader)
			}
			if want := c.Engines[leader].Term(); fwd.Term != want {
				t.Fatalf("forward stamped term %d, leader is at %d", fwd.Term, want)
			}
			c.DeliverAll(1)
			if v, ok := servedValue(c, 10); !ok || v != "v1" {
				t.Fatalf("forwarded read not served in the receiving step (served=%v value=%q)", ok, v)
			}
			if len(c.Queue) != 0 {
				t.Fatalf("leader emitted %d messages for a witnessed read, want 0 (first: %T)", len(c.Queue), c.Queue[0].Msg)
			}

			c.SubmitRead(leader, readCmd(11))
			if _, ok := servedValue(c, 11); ok {
				t.Fatal("leader-local read served without a confirmation round")
			}
			if len(c.Queue) != 2 || !isRoundMsg(c.Queue[0].Msg) || !isRoundMsg(c.Queue[1].Msg) {
				t.Fatalf("leader-local read queued %d messages, want one broadcast to the two followers", len(c.Queue))
			}
			if got := c.DeliverAll(100); got != 4 {
				t.Fatalf("leader-local read took %d messages, want one round (2 broadcasts + 2 echoes)", got)
			}
			if v, ok := servedValue(c, 11); !ok || v != "v1" {
				t.Fatalf("leader-local read after its round: served=%v value=%q", ok, v)
			}
		})
	}
}

// With five replicas leader + forwarder is one short of the quorum: the
// read is confirmed by exactly one echo from a third member — not before,
// and not by the forwarder echoing on top of its own forward.
func TestForwardedReadNeedsOneEchoOfFive(t *testing.T) {
	for _, name := range witnessEngines {
		t.Run(name, func(t *testing.T) {
			c, _, leader, f := witnessCluster(t, name, 72, 5)
			third := (f + 1) % 5
			if third == leader {
				third = (third + 1) % 5
			}

			c.SubmitRead(f, readCmd(10))
			c.DeliverAll(1) // the forward
			if len(c.Queue) != 4 {
				t.Fatalf("leader queued %d messages, want one broadcast to four followers", len(c.Queue))
			}
			if _, ok := servedValue(c, 10); ok {
				t.Fatal("served on leader + witness alone: 2 of 5 is no quorum")
			}

			deliverNext(t, c, func(e protocol.Envelope) bool { return e.To == f })
			deliverNext(t, c, func(e protocol.Envelope) bool { return e.From == f })
			if _, ok := servedValue(c, 10); ok {
				t.Fatal("the witness's own echo was counted on top of its forward")
			}

			deliverNext(t, c, func(e protocol.Envelope) bool { return e.To == third })
			if _, ok := servedValue(c, 10); ok {
				t.Fatal("served before the third member's echo reached the leader")
			}
			deliverNext(t, c, func(e protocol.Envelope) bool { return e.From == third })
			if v, ok := servedValue(c, 10); !ok || v != "v1" {
				t.Fatalf("leader + witness + one echo did not confirm (served=%v value=%q)", ok, v)
			}
		})
	}
}

// The stamp decides: a forward from a replica already at a higher term is
// never served and deposes the stale leader on the spot; one from a replica
// still at a lower term proves nothing about this leadership and gets the
// full confirmation round.
func TestForwardStampAboveAndBelowLeaderTerm(t *testing.T) {
	for _, name := range witnessEngines {
		t.Run(name+"/above", func(t *testing.T) {
			c, _, leader, f := witnessCluster(t, name, 73, 3)
			l := c.Engines[leader]
			out := l.Step(f, &protocol.MsgReadForward{Cmds: []protocol.Command{readCmd(10)}, Term: l.Term() + 1})
			if len(out.ReadStates) != 0 {
				t.Fatalf("read stamped above the leader's term was confirmed: %+v", out.ReadStates)
			}
			if l.IsLeader() {
				t.Fatal("leader survived a forward stamped with a higher term")
			}
			c.Collect(leader, out)
			noReplyFor(t, c, 10, "after the deposing forward")
		})
		t.Run(name+"/below", func(t *testing.T) {
			c, _, leader, f := witnessCluster(t, name, 74, 3)
			l := c.Engines[leader]
			out := l.Step(f, &protocol.MsgReadForward{Cmds: []protocol.Command{readCmd(10)}, Term: l.Term() - 1})
			if len(out.ReadStates) != 0 {
				t.Fatal("a forward stamped below the leader's term was counted as a witness")
			}
			if len(out.Msgs) != 2 || !isRoundMsg(out.Msgs[0].Msg) || !isRoundMsg(out.Msgs[1].Msg) {
				t.Fatalf("stale-stamped forward produced %d messages, want the full round's broadcast", len(out.Msgs))
			}
			c.Collect(leader, out)
			c.DeliverAll(100)
			if v, ok := servedValue(c, 10); !ok || v != "v1" {
				t.Fatalf("stale-stamped read after the full round: served=%v value=%q", ok, v)
			}
		})
	}
}

// deposeAndOverwrite partitions the leader away, elects a successor, and
// completes k=v2 (command 2) there. The old leader still believes it leads
// at its old term and still holds v1.
func deposeAndOverwrite(t *testing.T, c *testcluster.Cluster, h *testcluster.History) (old protocol.NodeID) {
	t.Helper()
	old, next := depose(t, c)
	h.Invoke(2, 0, true, "k", "v2")
	c.Submit(next, protocol.Command{ID: 2, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v2")})
	settleBehindPartition(c, old, 10)
	mustReturn(t, c, h, 2)
	return old
}

// A forward delayed across a deposition: F forwards at term T, the message
// is held, F helps elect a successor which completes v2, and only then
// does the forward reach the old leader — which is still at T and serves
// v1. That is linearizable: F was at T when it sent, after the read's
// invocation, so the successor's election and its write both postdate the
// invocation and the read's interval spans the write's.
func TestDelayedForwardAcrossDepositionIsLinearizable(t *testing.T) {
	for _, name := range witnessEngines {
		t.Run(name, func(t *testing.T) {
			c, h, _, f := witnessCluster(t, name, 75, 3)

			h.Invoke(3, 1, false, "k", "")
			c.SubmitRead(f, readCmd(3))
			if len(c.Queue) != 1 {
				t.Fatalf("follower read queued %d messages, want the forward alone", len(c.Queue))
			}
			held := c.Queue[0]
			c.Queue = nil

			old := deposeAndOverwrite(t, c, h)
			if held.To != old {
				t.Fatalf("forward addressed to %d, deposed leader is %d", held.To, old)
			}
			c.Collect(old, c.Engines[old].Step(held.From, held.Msg))
			mustReturn(t, c, h, 3)
			if v, _ := servedValue(c, 3); v != "v1" {
				t.Fatalf("old leader served %q, this scenario expects its v1", v)
			}
			if err := h.Check(); err != nil {
				t.Fatalf("%s: a delayed witnessed forward broke linearizability: %v", name, err)
			}
		})
	}
}

// The teeth of the rule: the witness vouches only for reads it forwarded
// while at the leader's term. Crediting it to any other read — modelled by
// a forged forward "from F" at the old term, for a read invoked after the
// successor completed v2 — makes the deposed leader serve its stale v1, and
// the checker must flag it. If this ever passes, the delayed-forward test
// above proves nothing.
func TestCheckerCatchesForgedWitness(t *testing.T) {
	for _, name := range witnessEngines {
		t.Run(name, func(t *testing.T) {
			c, h, _, f := witnessCluster(t, name, 76, 3)
			old := deposeAndOverwrite(t, c, h)
			if f == old {
				f = (old + 1) % 3
			}

			h.Invoke(3, 1, false, "k", "")
			forged := &protocol.MsgReadForward{Cmds: []protocol.Command{readCmd(3)}, Term: c.Engines[old].Term()}
			c.Collect(old, c.Engines[old].Step(f, forged))
			mustReturn(t, c, h, 3)
			if err := h.Check(); err == nil {
				t.Fatal("checker passed a stale read served on a forged witness")
			} else {
				t.Logf("checker correctly flagged: %v", err)
			}
		})
	}
}

// There is no check-quorum, so a deposed-but-unaware leader parks every
// read sent to it. The tracker holds at most its cap and rejects the rest;
// on heal the parked reads fail and not one is served.
func TestIsolatedLeaderBoundsParkedReads(t *testing.T) {
	for _, name := range witnessEngines {
		t.Run(name, func(t *testing.T) {
			c, h, _, _ := witnessCluster(t, name, 77, 3)
			old := deposeAndOverwrite(t, c, h)

			const first, total = 1000, 2 * protocol.MaxParked
			for i := 0; i < total; i++ {
				c.SubmitRead(old, readCmd(first+uint64(i)))
				c.Queue = nil // every confirmation broadcast dies at the cut
			}
			rejected := 0
			for _, rep := range c.Replies {
				if rep.CmdID >= first && rep.Err != nil {
					rejected++
				}
			}
			if rejected != total-protocol.MaxParked {
				t.Fatalf("isolated leader rejected %d of %d reads, want all beyond the cap of %d", rejected, total, protocol.MaxParked)
			}

			c.Isolate(old, false)
			c.Settle(10)
			failed := 0
			for _, rep := range c.Replies {
				if rep.CmdID < first {
					continue
				}
				if rep.Err == nil {
					t.Fatalf("read %d parked at a deposed leader was served %q", rep.CmdID, rep.Value)
				}
				failed++
			}
			if failed != total {
				t.Fatalf("%d of %d reads answered after heal, want every one failed", failed, total)
			}
		})
	}
}
