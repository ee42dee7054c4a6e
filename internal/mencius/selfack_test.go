package mencius_test

import (
	"testing"

	"raftpaxos/internal/mencius"
	"raftpaxos/internal/protocol"
)

// The commit rule, by hand, for the coordination core (Coordinated Paxos
// and Raft*-Mencius are one engine): a slot's proposer is one acceptor
// among n, and its acceptance counts only once its self-addressed
// ProposeOK — which the runtime hands back when the round it rides is
// durable — comes back.

type coordinated interface {
	protocol.Engine
	Board() *mencius.Board
}

var flavours = []struct {
	name string
	new  func(id protocol.NodeID, peers []protocol.NodeID) coordinated
}{
	{"mencius", func(id protocol.NodeID, peers []protocol.NodeID) coordinated {
		return mencius.New(mencius.Config{ID: id, Peers: peers, DisableRevocation: true})
	}},
}

// selfAcks returns the self-addressed ProposeOKs in out.
func selfAcks(id protocol.NodeID, out protocol.Output) []*mencius.MsgProposeOK {
	var acks []*mencius.MsgProposeOK
	for _, env := range out.Msgs {
		if m, ok := env.Msg.(*mencius.MsgProposeOK); ok && env.From == id && env.To == id {
			acks = append(acks, m)
		}
	}
	return acks
}

func TestSelfAckCommitRule(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	put := func(id uint64) protocol.Command { return protocol.Command{ID: id, Op: protocol.OpPut, Key: "k"} }
	ok := func(slot int64) *mencius.MsgProposeOK { return &mencius.MsgProposeOK{Slots: []int64{slot}} }
	for _, fl := range flavours {
		t.Run(fl.name, func(t *testing.T) {
			t.Run("both peers decide without the owner", func(t *testing.T) {
				e := fl.new(0, peers)
				if n := len(selfAcks(0, e.Submit(put(1)))); n != 0 {
					t.Fatalf("a proposal alone asked for %d self-acks", n)
				}
				own := selfAcks(0, e.Step(1, ok(1)))
				if len(own) != 1 || e.Board().Committed(1) {
					t.Fatalf("first peer ack: %d self-acks, committed %v", len(own), e.Board().Committed(1))
				}
				if out := e.Step(2, ok(1)); !e.Board().Committed(1) || len(selfAcks(0, out)) != 0 {
					t.Fatal("slot 1 not committed on both peers' acks without the self-ack")
				}
			})
			t.Run("one peer needs the self-ack", func(t *testing.T) {
				e := fl.new(0, peers)
				e.Submit(put(1))
				own := selfAcks(0, e.Step(1, ok(1)))
				if len(own) != 1 || e.Board().Committed(1) {
					t.Fatalf("one peer ack: %d self-acks, committed %v", len(own), e.Board().Committed(1))
				}
				if e.Step(0, own[0]); !e.Board().Committed(1) {
					t.Fatal("slot 1 not committed after the self-ack came back")
				}
			})
			t.Run("once per decisive slot", func(t *testing.T) {
				e := fl.new(0, peers)
				var own []*mencius.MsgProposeOK
				for i := 1; i <= 4; i++ {
					own = append(own, selfAcks(0, e.Submit(put(uint64(i))))...)
				}
				for _, s := range []int64{1, 4, 7, 10} { // node 0's slots among three
					own = append(own, selfAcks(0, e.Step(1, ok(s)))...)
				}
				if len(own) != 1 || len(own[0].Slots) != 4 {
					t.Fatalf("%d self-acks for four slots acked one by one, want one covering all four", len(own))
				}
				e.Step(0, own[0])
				for _, s := range []int64{1, 4, 7, 10} {
					if !e.Board().Committed(s) {
						t.Fatalf("slot %d not committed after the self-ack", s)
					}
				}
			})
			t.Run("a lone replica acks itself", func(t *testing.T) {
				e := fl.new(0, []protocol.NodeID{0})
				out := e.Submit(put(1))
				own := selfAcks(0, out)
				if len(own) != 1 || len(out.Commits) != 0 {
					t.Fatalf("lone replica: %d self-acks, %d commits", len(own), len(out.Commits))
				}
				if out := e.Step(0, own[0]); len(out.Commits) != 1 {
					t.Fatalf("lone replica executed %d entries after its self-ack, want 1", len(out.Commits))
				}
			})
		})
	}
}
