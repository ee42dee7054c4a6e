package protocol

import "testing"

// TestVotesRules drives the counter's four rules directly, among three
// replicas with replica 0 proposing.
func TestVotesRules(t *testing.T) {
	peers := []NodeID{0, 1, 2}

	t.Run("an index is reached on a quorum of durable votes", func(t *testing.T) {
		v := NewVotes(0, peers, nil)
		v.Open(1)
		v.Ack(1, 1, 1)
		if v.Reached(1) {
			t.Fatal("one vote of three reached a quorum")
		}
		v.Ack(2, 1, 1)
		if !v.Reached(1) {
			t.Fatal("two votes of three did not reach a quorum")
		}
		v.Shut(1)
		if v.Reached(1) || v.Decisive(1) {
			t.Fatal("a shut index still counts")
		}
	})

	t.Run("MustAck binds a vote to its voter's holders", func(t *testing.T) {
		holders := map[NodeID][]NodeID{1: {2}}
		v := NewVotes(0, peers, func(p NodeID) []NodeID { return holders[p] })
		v.Open(1)
		v.Ack(0, 1, 1)
		v.Ack(1, 1, 1)
		if v.Reached(1) {
			t.Fatal("replica 1's vote counted although its holder 2 has not voted")
		}
		delete(holders, 1)
		if reached, _ := v.Recheck(nil); len(reached) != 1 || reached[0] != 1 {
			t.Fatalf("Recheck after the holder set shrank reached %v, want [1]", reached)
		}
	})

	t.Run("the leader's own vote is asked for once per index", func(t *testing.T) {
		v := NewVotes(0, peers, nil)
		v.Open(1)
		v.Open(2)
		if v.Decisive(1) {
			t.Fatal("the leader's vote alone is decisive among three")
		}
		v.Ack(1, 1, 1)
		if !v.Decisive(1) {
			t.Fatal("the leader's vote beside one peer's is not decisive")
		}
		if got := v.ToAsk(nil); len(got) != 2 {
			t.Fatalf("unasked %v, want [1 2]", got)
		}
		v.Ask()
		v.Ack(1, 2, 2)
		if v.Decisive(1) || v.Decisive(2) || len(v.ToAsk(nil)) != 0 {
			t.Fatal("an index was decisive again after the ask covered it")
		}
		v.Open(3)
		v.Ack(1, 3, 3)
		if !v.Decisive(3) {
			t.Fatal("an index proposed after the ask is not decisive")
		}
	})

	t.Run("range votes reach a prefix", func(t *testing.T) {
		v := NewVotes(0, peers, nil)
		for i := int64(1); i <= 4; i++ {
			v.Open(i)
		}
		v.Ack(1, 1, 3)
		if v.Top(false) != 0 || v.Top(true) != 3 {
			t.Fatalf("Top = %d without the leader, %d with it; want 0 and 3", v.Top(false), v.Top(true))
		}
		v.Ack(0, 1, 2)
		if v.Top(false) != 2 {
			t.Fatalf("Top = %d after the self-ack through 2, want 2", v.Top(false))
		}
		v.Advance(2)
		if v.Reached(2) || !v.Decisive(3) {
			t.Fatal("Advance kept index 2 or lost index 3")
		}
		v.Ask()
		if v.Decisive(v.Top(true)) {
			t.Fatal("an index was decisive after the ask covered it")
		}
	})

	t.Run("re-opening takes the ask back", func(t *testing.T) {
		v := NewVotes(0, peers, nil)
		v.Open(1)
		v.Ack(1, 1, 1)
		v.Ask()
		v.Open(1)
		v.Ack(2, 1, 1)
		if v.Reached(1) || !v.Decisive(1) {
			t.Fatal("a re-opened index kept its old votes or its ask")
		}
	})
}
