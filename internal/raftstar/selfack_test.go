package raftstar_test

import (
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// The commit rule, by hand: the leader is one acceptor among n, and its
// copy counts only once its self-addressed ack — which the runtime hands
// back when the round it rides is durable — comes back.

// settled elects a leader of n replicas and settles its election entries,
// then leaves the queue empty for the test to drive by hand.
func settled(t *testing.T, v variant, n int) (*testcluster.Cluster, replica) {
	t.Helper()
	c := v.cluster(n, 7, false)
	l, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(3)
	c.Queue = nil
	r := l.(replica)
	if r.CommitIndex() != r.LastIndex() {
		t.Fatalf("leader committed %d of %d after settling", r.CommitIndex(), r.LastIndex())
	}
	return c, r
}

// settledLeader is settled's leader and its term.
func settledLeader(t *testing.T, v variant, n int) (replica, uint64) {
	t.Helper()
	_, r := settled(t, v, n)
	return r, r.Term()
}

// selfAcks returns the self-addressed append acks in out.
func selfAcks(v variant, id protocol.NodeID, out protocol.Output) []protocol.Message {
	var acks []protocol.Message
	for _, env := range out.Msgs {
		if _, ok := v.asResp(env.Msg); ok && env.From == id && env.To == id {
			acks = append(acks, env.Msg)
		}
	}
	return acks
}

func TestSelfAckCommitRule(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		ack := func(term uint64, last int64) protocol.Message {
			return v.resp(raftstar.MsgAppendResp{Term: term, Ok: true, LastIndex: last})
		}

		t.Run("both followers decide without the leader", func(t *testing.T) {
			l, term := settledLeader(t, v, 3)
			out := l.Submit(put(1, "k"))
			if n := len(selfAcks(v, l.ID(), out)); n != 0 {
				t.Fatalf("an append alone asked for %d self-acks", n)
			}
			last := l.LastIndex()
			out = l.Step(1, ack(term, last))
			own := selfAcks(v, l.ID(), out)
			if len(own) != 1 || len(out.Commits) != 0 {
				t.Fatalf("first follower ack: %d self-acks, %d commits; want the decisive self-ack and no commit", len(own), len(out.Commits))
			}
			out = l.Step(2, ack(term, last))
			if l.CommitIndex() != last || len(selfAcks(v, l.ID(), out)) != 0 {
				t.Fatalf("commit %d after both follower acks without the self-ack, want %d and no new self-ack", l.CommitIndex(), last)
			}
			out = l.Step(l.ID(), own[0])
			if len(out.Commits) != 0 || len(selfAcks(v, l.ID(), out)) != 0 {
				t.Fatal("the late self-ack committed again or asked again")
			}
		})

		t.Run("one follower needs the self-ack", func(t *testing.T) {
			l, term := settledLeader(t, v, 3)
			l.Submit(put(1, "k"))
			last := l.LastIndex()
			own := selfAcks(v, l.ID(), l.Step(1, ack(term, last)))
			if len(own) != 1 || l.CommitIndex() == last {
				t.Fatalf("one follower ack: %d self-acks, commit %d; want one self-ack and no commit", len(own), l.CommitIndex())
			}
			if out := l.Step(l.ID(), own[0]); l.CommitIndex() != last || len(out.Commits) != 1 {
				t.Fatalf("commit %d after the self-ack came back, want %d", l.CommitIndex(), last)
			}
		})

		t.Run("once per decisive index", func(t *testing.T) {
			l, term := settledLeader(t, v, 3)
			var own []protocol.Message
			for i := 1; i <= 4; i++ {
				own = append(own, selfAcks(v, l.ID(), l.Submit(put(uint64(i), "k")))...)
			}
			last := l.LastIndex()
			for idx := last - 3; idx <= last; idx++ {
				own = append(own, selfAcks(v, l.ID(), l.Step(1, ack(term, idx)))...)
			}
			if len(own) != 1 {
				t.Fatalf("%d self-acks for four appends acked one by one, want one covering them all", len(own))
			}
			if m, _ := v.asResp(own[0]); m.LastIndex != last {
				t.Fatalf("self-ack covers %d, want the last index %d", m.LastIndex, last)
			}
			l.Step(l.ID(), own[0])
			if l.CommitIndex() != last {
				t.Fatalf("commit %d, want %d", l.CommitIndex(), last)
			}
		})

		t.Run("a raised self-ack spares the next ask", func(t *testing.T) {
			l, term := settledLeader(t, v, 3)
			l.Submit(put(1, "k"))
			asked := l.LastIndex()
			own := selfAcks(v, l.ID(), l.Step(1, ack(term, asked)))
			if len(own) != 1 {
				t.Fatalf("%d self-acks on the decisive follower ack, want 1", len(own))
			}
			// A write proposed later in the same iteration rides the same
			// sync; the driver raises the claim to cover it.
			l.Submit(put(2, "k"))
			last := l.LastIndex()
			pa, ok := own[0].(interface{ CoverDurable(int64) })
			if !ok {
				t.Fatalf("self-ack %T cannot be raised", own[0])
			}
			pa.CoverDurable(last)
			if l.Step(l.ID(), own[0]); l.CommitIndex() != asked {
				t.Fatalf("commit %d after the raised self-ack, want %d: one follower holds no more", l.CommitIndex(), asked)
			}
			out := l.Step(1, ack(term, last))
			if n := len(selfAcks(v, l.ID(), out)); n != 0 || l.CommitIndex() != last {
				t.Fatalf("follower ack for the covered write: %d self-acks, commit %d; want none and %d", n, l.CommitIndex(), last)
			}
		})

		t.Run("a lone replica acks itself", func(t *testing.T) {
			l, _ := settledLeader(t, v, 1)
			out := l.Submit(put(1, "k"))
			own := selfAcks(v, l.ID(), out)
			if len(own) != 1 || len(out.Commits) != 0 {
				t.Fatalf("lone replica: %d self-acks, %d commits; want one self-ack, commit after it", len(own), len(out.Commits))
			}
			if l.Step(l.ID(), own[0]); l.CommitIndex() != l.LastIndex() {
				t.Fatalf("lone replica committed %d of %d after its self-ack", l.CommitIndex(), l.LastIndex())
			}
		})
	})
}
