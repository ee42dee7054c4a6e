package multipaxos_test

import (
	"testing"

	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
)

// The commit rule, by hand: the proposer is one acceptor among n, and its
// acceptance counts only once its self-addressed acceptOK — which the
// runtime hands back when the round it rides is durable — comes back.

// settledProposer elects a leader of n acceptors, settles its phase 1,
// and leaves the queue empty for the test to drive by hand.
func settledProposer(t *testing.T, n int) *multipaxos.Engine {
	t.Helper()
	c := newCluster(t, n, 9)
	l, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	c.Settle(3)
	c.Queue = nil
	return l.(*multipaxos.Engine)
}

// selfAcks returns the self-addressed acceptOKs in out.
func selfAcks(id protocol.NodeID, out protocol.Output) []*multipaxos.MsgAcceptOK {
	var acks []*multipaxos.MsgAcceptOK
	for _, env := range out.Msgs {
		if m, ok := env.Msg.(*multipaxos.MsgAcceptOK); ok && env.From == id && env.To == id {
			acks = append(acks, m)
		}
	}
	return acks
}

func TestSelfAckChoiceRule(t *testing.T) {
	put := func(id uint64) protocol.Command { return protocol.Command{ID: id, Op: protocol.OpPut, Key: "k"} }

	t.Run("both acceptors decide without the proposer", func(t *testing.T) {
		l := settledProposer(t, 3)
		if n := len(selfAcks(l.ID(), l.Submit(put(1)))); n != 0 {
			t.Fatalf("a proposal alone asked for %d self-acks", n)
		}
		idx := l.LastIndex()
		ok := &multipaxos.MsgAcceptOK{Bal: l.Ballot(), Idxs: []int64{idx}}
		own := selfAcks(l.ID(), l.Step(1, ok))
		if len(own) != 1 || l.ChosenPrefix() == idx {
			t.Fatalf("first acceptOK: %d self-acks, prefix %d; want the decisive self-ack, nothing chosen", len(own), l.ChosenPrefix())
		}
		out := l.Step(2, ok)
		if l.ChosenPrefix() != idx || len(selfAcks(l.ID(), out)) != 0 {
			t.Fatalf("prefix %d after both acceptors, want %d without the self-ack", l.ChosenPrefix(), idx)
		}
		if out := l.Step(l.ID(), own[0]); len(out.Commits) != 0 {
			t.Fatal("the late self-ack chose again")
		}
	})

	t.Run("one acceptor needs the self-ack", func(t *testing.T) {
		l := settledProposer(t, 3)
		l.Submit(put(1))
		idx := l.LastIndex()
		own := selfAcks(l.ID(), l.Step(1, &multipaxos.MsgAcceptOK{Bal: l.Ballot(), Idxs: []int64{idx}}))
		if len(own) != 1 || l.ChosenPrefix() == idx {
			t.Fatalf("one acceptOK: %d self-acks, prefix %d", len(own), l.ChosenPrefix())
		}
		if l.Step(l.ID(), own[0]); l.ChosenPrefix() != idx {
			t.Fatalf("prefix %d after the self-ack came back, want %d", l.ChosenPrefix(), idx)
		}
	})

	t.Run("once per decisive instance", func(t *testing.T) {
		l := settledProposer(t, 3)
		var own []*multipaxos.MsgAcceptOK
		for i := 1; i <= 4; i++ {
			own = append(own, selfAcks(l.ID(), l.Submit(put(uint64(i))))...)
		}
		last := l.LastIndex()
		for idx := last - 3; idx <= last; idx++ {
			own = append(own, selfAcks(l.ID(), l.Step(1, &multipaxos.MsgAcceptOK{Bal: l.Ballot(), Idxs: []int64{idx}}))...)
		}
		if len(own) != 1 || len(own[0].Idxs) != 4 {
			t.Fatalf("%d self-acks for four instances acked one by one, want one covering all four", len(own))
		}
		if l.Step(l.ID(), own[0]); l.ChosenPrefix() != last {
			t.Fatalf("prefix %d, want %d", l.ChosenPrefix(), last)
		}
	})

	t.Run("a lone acceptor acks itself", func(t *testing.T) {
		l := settledProposer(t, 1)
		out := l.Submit(put(1))
		own := selfAcks(l.ID(), out)
		if len(own) != 1 || len(out.Commits) != 0 {
			t.Fatalf("lone acceptor: %d self-acks, %d commits", len(own), len(out.Commits))
		}
		if l.Step(l.ID(), own[0]); l.ChosenPrefix() != l.LastIndex() {
			t.Fatalf("lone acceptor chose %d of %d after its self-ack", l.ChosenPrefix(), l.LastIndex())
		}
	})
}
