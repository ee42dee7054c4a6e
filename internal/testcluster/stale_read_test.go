package testcluster_test

import (
	"testing"

	"raftpaxos/internal/lease"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/testcluster"
)

// noReplyFor asserts cmdID has no successful (value-bearing) reply.
func noReplyFor(t *testing.T, c *testcluster.Cluster, cmdID uint64, when string) {
	t.Helper()
	for _, rep := range c.Replies {
		if rep.CmdID == cmdID && rep.Err == nil {
			t.Fatalf("%s: read %d was served with %q", when, cmdID, rep.Value)
		}
	}
}

// runDeposedLeaderReadBlocked is the ReadIndex stale-read regression: a
// deposed-but-unaware leader, partitioned from the quorum, must never
// answer a read with its pre-partition state after the new leader has
// committed past it. The read parks on a confirmation round that cannot
// complete, and fails with ErrNotLeader the moment the old leader learns
// of its deposition — it is never answered with a value.
func runDeposedLeaderReadBlocked(t *testing.T, name string, seed int64) {
	t.Helper()
	c := testcluster.New(seed, linearEngines(name, seed)...)
	if _, err := c.ElectLeader(300); err != nil {
		t.Fatal(err)
	}
	h := testcluster.NewHistory()

	h.Invoke(1, 0, true, "k", "v1")
	c.Submit(c.Leader().ID(), protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v1")})
	c.Settle(5)
	mustReturn(t, c, h, 1)

	old, next := depose(t, c)
	h.Invoke(2, 0, true, "k", "v2")
	c.Submit(next, protocol.Command{ID: 2, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v2")})
	settleBehindPartition(c, old, 10)
	mustReturn(t, c, h, 2)

	// A read at the deposed leader: its confirmation round cannot reach a
	// quorum, so it must not complete — in particular it must never
	// return the stale v1.
	h.Invoke(3, 1, false, "k", "")
	c.SubmitRead(old, protocol.Command{ID: 3, Client: 901, Key: "k"})
	for r := 0; r < 20; r++ {
		c.TickNode(old) // heartbeats carrying the read ctx die at the cut
		c.DeliverAll(100000)
	}
	noReplyFor(t, c, 3, "while partitioned")

	// Heal: the old leader steps down on the new leader's first message
	// and fails the parked read instead of serving it.
	c.Isolate(old, false)
	c.Settle(10)
	noReplyFor(t, c, 3, "after heal")
	for _, rep := range c.Replies {
		if rep.CmdID == 3 && rep.Err != nil {
			h.Discard(3) // definitively rejected
		}
	}
	if err := h.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

func TestDeposedLeaderReadBlockedRaft(t *testing.T) {
	runDeposedLeaderReadBlocked(t, "raft", 31)
}
func TestDeposedLeaderReadBlockedRaftStar(t *testing.T) {
	runDeposedLeaderReadBlocked(t, "raftstar", 32)
}
func TestDeposedLeaderReadBlockedMultiPaxos(t *testing.T) {
	runDeposedLeaderReadBlocked(t, "multipaxos", 33)
}

// runExpiredLeaseRefusesLocalReads is the quorum-lease stale-read
// regression: a replica that held a quorum lease must stop serving local
// reads once the lease expires (no renewals arrive behind a partition) —
// the fallback forwards to the unreachable leader, so the read simply
// does not complete rather than returning a possibly-stale local value.
func runExpiredLeaseRefusesLocalReads(t *testing.T, name string, seed int64) {
	t.Helper()
	c := testcluster.New(seed, linearEngines(name, seed)...)
	if _, err := c.ElectLeader(300); err != nil {
		t.Fatal(err)
	}
	leader := c.Leader().ID()
	c.Submit(leader, protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v1")})
	// Let grants circulate until a follower holds a quorum lease.
	var holder protocol.NodeID = protocol.None
	hasLease := func(id protocol.NodeID) bool {
		return c.Engines[id].(*lease.Engine).HasQuorumLease()
	}
	for r := 0; r < 60 && holder == protocol.None; r++ {
		c.Settle(1)
		for id := range c.Engines {
			if id != leader && hasLease(id) {
				holder = id
			}
		}
	}
	if holder == protocol.None {
		t.Fatal("no follower acquired a quorum lease")
	}

	// Sanity: with the lease active, a local read is served immediately.
	c.SubmitRead(holder, protocol.Command{ID: 2, Client: 901, Key: "k"})
	c.Settle(2)
	served := false
	for _, rep := range c.Replies {
		if rep.CmdID == 2 && rep.Err == nil && string(rep.Value) == "v1" {
			served = true
		}
	}
	if !served {
		t.Fatal("leased holder did not serve the local read")
	}

	// Partition the holder and let its leases expire (no renewals can
	// arrive). LeaseTicks is 40 in linearEngines.
	c.Isolate(holder, true)
	for i := 0; i < 45; i++ {
		c.TickNode(holder)
	}
	c.Queue = nil // everything the holder emitted dies at the cut anyway
	if hasLease(holder) {
		t.Fatal("lease survived 45 ticks without renewal")
	}
	c.SubmitRead(holder, protocol.Command{ID: 3, Client: 901, Key: "k"})
	for i := 0; i < 10; i++ {
		c.TickNode(holder)
		c.DeliverAll(100000)
	}
	noReplyFor(t, c, 3, "after lease expiry")
}

func TestExpiredLeaseRefusesLocalReadsRQL(t *testing.T) {
	runExpiredLeaseRefusesLocalReads(t, "raftstar-pql", 41)
}
func TestExpiredLeaseRefusesLocalReadsPQL(t *testing.T) {
	runExpiredLeaseRefusesLocalReads(t, "paxos-pql", 42)
}
