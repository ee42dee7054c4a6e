package testcluster_test

import (
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
	"raftpaxos/internal/wire"
)

// throughWire replaces every queued message by its encode/decode image,
// so delivery hands engines exactly what a TCP peer would.
func throughWire(t *testing.T, c *testcluster.Cluster) {
	t.Helper()
	for i, env := range c.Queue {
		buf, err := wire.AppendMessage(nil, env.From, env.Msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, c.Queue[i].Msg, err = wire.DecodeMessage(wire.NewReader(buf)); err != nil {
			t.Fatalf("%T: %v", env.Msg, err)
		}
	}
}

// TestMixedGroupVariantsDoNotTalk wires one Raft replica into a group with
// two Raft* replicas — a misconfiguration, now that both run one engine.
// The variants' message types and wire tags are disjoint, so neither side
// may ever act on the other's traffic: the Raft replica collects no vote
// and accepts no append (its commit index stays 0 while the Raft* pair
// elects a leader and commits without it), and it never leads.
func TestMixedGroupVariantsDoNotTalk(t *testing.T) {
	for _, mode := range []string{"in-process", "wire"} {
		t.Run(mode, func(t *testing.T) {
			peers := []protocol.NodeID{0, 1, 2}
			cfg := func(id protocol.NodeID) raftstar.Config {
				return raftstar.Config{ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 5}
			}
			odd := raft.New(cfg(0))
			c := testcluster.New(5, odd, raftstar.New(cfg(1)), raftstar.New(cfg(2)))
			settle := func(rounds int) {
				for r := 0; r < rounds; r++ {
					c.Tick()
					for len(c.Queue) > 0 {
						if mode == "wire" {
							throughWire(t, c)
						}
						c.DeliverAll(1)
					}
					if odd.IsLeader() {
						t.Fatal("the Raft replica won an election on Raft* votes")
					}
				}
			}
			settle(100)
			leader := c.Leader()
			if leader == nil {
				t.Fatal("the Raft* pair elected no leader")
			}
			c.Submit(leader.ID(), protocol.Command{ID: 1, Op: protocol.OpPut, Key: "k"})
			settle(100)

			if got := leader.(*raftstar.Engine).CommitIndex(); got == 0 {
				t.Fatal("the Raft* pair committed nothing")
			}
			if odd.Term() == 0 {
				t.Fatal("the Raft replica never campaigned: the test exercised nothing")
			}
			if odd.LastIndex() != 0 || odd.CommitIndex() != 0 || len(c.Applied[0]) != 0 {
				t.Fatalf("the Raft replica accepted Raft* appends: last=%d commit=%d applied=%d",
					odd.LastIndex(), odd.CommitIndex(), len(c.Applied[0]))
			}
			if odd.Leader() != protocol.None {
				t.Fatalf("the Raft replica follows Raft* leader %d", odd.Leader())
			}
			// And the other way round: the Raft replica's ever-higher terms
			// never reach the pair, whose leader stays put.
			if star := leader.(*raftstar.Engine); !star.IsLeader() || star.Term() >= odd.Term() {
				t.Fatalf("Raft* leader disturbed by Raft vote requests: leader=%v term=%d, Raft replica at term %d",
					star.IsLeader(), star.Term(), odd.Term())
			}
		})
	}
}
