package testcluster_test

import (
	"fmt"
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/testcluster"
)

// deliverOnly delivers the queued envelopes matching pred and nothing else:
// what those deliveries send stays queued behind the rest.
func deliverOnly(c *testcluster.Cluster, pred func(protocol.Envelope) bool) {
	taken := extractEnvelopes(c, pred)
	held := c.Queue
	c.Queue = taken
	c.DeliverAll(len(taken))
	c.Queue = append(held, c.Queue...)
}

// TestLeaderReadCoversFastCommit pins the fast path's read rule for both
// families. A follower fast-submits put(k); the fast acks reach the
// submitter only, so it commits and answers its client while the leader —
// which acked the slot — has heard of no commit. A ReadIndex read of k at
// the leader, confirmed before any such news arrives, must still return the
// new value: the put completed before the read began.
func TestLeaderReadCoversFastCommit(t *testing.T) {
	for _, name := range []string{"raft+fast", "raftstar+fast", "multipaxos+fast"} {
		c := testcluster.New(71, linearEngines(name, 71)...)
		l, err := c.ElectLeader(300)
		if err != nil {
			t.Fatal(err)
		}
		c.Settle(5)
		leader := l.ID()
		sub := (leader + 1) % 3
		h := testcluster.NewHistory()

		h.Invoke(1, 0, true, "k", "old")
		c.Submit(leader, protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("old")})
		c.Settle(5)
		mustReturn(t, c, h, 1)

		h.Invoke(2, 0, true, "k", "new")
		c.Submit(sub, protocol.Command{ID: 2, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("new")})
		deliverOnly(c, func(env protocol.Envelope) bool {
			_, ok := env.Msg.(*protocol.MsgFastAccept)
			return ok
		})
		deliverOnly(c, func(env protocol.Envelope) bool {
			_, ok := env.Msg.(*protocol.MsgFastAck)
			return ok && env.To == sub
		})
		mustReturn(t, c, h, 2) // the submitter saw the fast quorum and answered
		if got := dupApplied(c, leader, 2); got != 0 {
			t.Fatalf("%s: the leader already applied the put; the test no longer builds the window it is about", name)
		}

		// Everything in flight — the leader's classic round for the slot, the
		// acks addressed to it — stays in flight while the read is confirmed,
		// and the confirmation comes from the third replica: an echo from
		// the submitter would carry its commit index along.
		held := c.Queue
		c.Queue = nil
		c.Partition(leader, sub, true)
		h.Invoke(3, 1, false, "k", "")
		c.SubmitRead(leader, protocol.Command{ID: 3, Client: 901, Key: "k"})
		c.DeliverAll(100000)
		c.Partition(leader, sub, false)
		c.Queue = append(held, c.Queue...)
		c.Settle(10)
		mustReturn(t, c, h, 3)
		if err := h.Check(); err != nil {
			t.Errorf("%s: read at the leader missed a put its submitter had completed: %v", name, err)
		}
	}
}

// checkAppliedOnce verifies that no command took effect twice on any node:
// every repeat of a put in a node's applied sequence was skipped by its
// state machine, and nothing else was. It returns (repeats, puts) summed
// over the nodes.
func checkAppliedOnce(c *testcluster.Cluster) (repeats, puts int, err error) {
	for _, id := range c.IDs() {
		seen := make(map[uint64]bool)
		nodeRepeats := 0
		for _, ent := range c.Applied[id] {
			if ent.Cmd.Op != protocol.OpPut || ent.Cmd.ID == 0 {
				continue
			}
			puts++
			if seen[ent.Cmd.ID] {
				nodeRepeats++
			}
			seen[ent.Cmd.ID] = true
		}
		if skipped := int(c.Stores[id].Skipped()); skipped != nodeRepeats {
			return 0, 0, fmt.Errorf("node %d: %d repeated puts committed, %d skipped at apply", id, nodeRepeats, skipped)
		}
		repeats += nodeRepeats
	}
	return repeats, puts, nil
}

// checkFastCounts verifies the fast path's counters add up on every node:
// a command it submitted ends as one fast commit or one fallback, or not
// at all — never as more than it submitted.
func checkFastCounts(c *testcluster.Cluster) error {
	for _, id := range c.IDs() {
		st := c.Engines[id].(protocol.FastStatser).FastStats()
		if st.FastCommits+st.ClassicFallbacks > st.Submitted {
			return fmt.Errorf("node %d counted %d fast + %d fallback commits for %d submissions",
				id, st.FastCommits, st.ClassicFallbacks, st.Submitted)
		}
	}
	return nil
}

// TestFastPathAppliesOnce runs the linearizability workload over a window of
// seeds for the three fast engines and checks what the checker cannot see
// while every value is unique: that no put takes effect twice. Followers
// that re-routed displaced commands doubled 18–20 % of all puts; with the
// leader the only re-proposer what is left comes from election recovery,
// well under 1 %, and the state machine skips it.
func TestFastPathAppliesOnce(t *testing.T) {
	for _, name := range []string{"raft+fast", "raftstar+fast", "multipaxos+fast"} {
		repeats, puts := 0, 0
		for seed := int64(50000); seed < 50200; seed++ {
			c, err := linearWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			r, p, err := checkAppliedOnce(c)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := checkFastCounts(c); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			repeats, puts = repeats+r, puts+p
		}
		t.Logf("%s: %d of %d committed puts were repeats, all skipped at apply", name, repeats, puts)
		if repeats*100 > puts {
			t.Fatalf("%s: %d of %d committed puts are repeats; something re-proposes besides the leader", name, repeats, puts)
		}
	}
}
