package testcluster_test

import (
	"fmt"
	"math/rand"
	"testing"

	"raftpaxos/internal/engines"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// linearEngines builds three replicas of the named registry engine with
// the workload's geometry: ReadIndex on where the port exists, and for the
// lease engines leases of 40 ticks over a ReadIndex fallback.
func linearEngines(name string, seed int64) []protocol.Engine {
	return linearEnginesN(name, seed, 3)
}

// linearEnginesN is linearEngines for a group of n replicas.
func linearEnginesN(name string, seed int64, n int) []protocol.Engine {
	spec, err := engines.Parse(name)
	if err != nil {
		panic(err)
	}
	spec.ElectionTicks, spec.HeartbeatTicks, spec.ReadIndex, spec.Seed = 10, 2, true, seed
	spec.LeaseTicks, spec.RenewTicks = 40, 10
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	replicas := make([]protocol.Engine, n)
	for i, id := range peers {
		replicas[i] = engines.New(spec, id, peers)
	}
	return replicas
}

// linearClient is one closed-loop client in the workload: it issues its
// ops sequentially with a cooldown between them (so the workload spans
// the fault schedule), abandoning — but never forgetting — an op that
// gets no reply within a step budget.
type linearClient struct {
	id       int
	node     protocol.NodeID
	seq      int
	waiting  uint64 // outstanding cmd ID (0 = idle)
	waited   int
	cooldown int
}

// runLinearWorkload is linearWorkload as a test body.
func runLinearWorkload(t *testing.T, name string, seed int64) {
	t.Helper()
	if _, err := linearWorkload(name, seed); err != nil {
		t.Fatal(err)
	}
}

// linearWorkload drives a mixed put/get workload against the cluster
// under message drops, a leader partition, and the resulting churn, then
// verifies the recorded history with the linearizability checker and the
// per-index agreement invariant. It returns the cluster as the run left it:
// its Replies, in order, are the fingerprint two runs of one seed must share.
// A leaderless engine needs no election, and its partition isolates
// replica seed % 3.
func linearWorkload(name string, seed int64) (*testcluster.Cluster, error) {
	spec, err := engines.Parse(name)
	if err != nil {
		return nil, err
	}
	leaderless := spec.Proto.Leaderless()
	c := testcluster.New(seed, linearEngines(name, seed)...)
	if !leaderless {
		if _, err := c.ElectLeader(300); err != nil {
			return c, err
		}
	}
	h := testcluster.NewHistory()
	rng := rand.New(rand.NewSource(seed * 7))

	const (
		clients      = 4
		opsPerClient = 50
		keys         = 8 // 4*50/8 = 25 ops per key, far under the checker's 64 cap
		opTimeout    = 40
		opCooldown   = 8
		maxSteps     = 2500
	)
	cls := make([]*linearClient, clients)
	for i := range cls {
		cls[i] = &linearClient{id: i, node: protocol.NodeID(i % 3)}
	}
	inFlight := make(map[uint64]*linearClient)
	scanned := 0
	var isolated protocol.NodeID = protocol.None

	scan := func() {
		for ; scanned < len(c.Replies); scanned++ {
			rep := c.Replies[scanned]
			cl, ok := inFlight[rep.CmdID]
			if !ok {
				continue // duplicate or late reply
			}
			delete(inFlight, rep.CmdID)
			if rep.Err != nil {
				// ErrNotLeader: the engine shed the op without proposing
				// it — definitively not applied, so it constrains nothing.
				h.Discard(rep.CmdID)
			} else {
				h.Return(rep.CmdID, string(rep.Value))
			}
			if cl.waiting == rep.CmdID {
				cl.waiting = 0
				cl.waited = 0
			}
		}
	}

	done := func() bool {
		for _, cl := range cls {
			if cl.seq < opsPerClient || cl.waiting != 0 {
				return false
			}
		}
		return true
	}

	for step := 0; step < maxSteps && !done(); step++ {
		// Fault schedule, overlapping the paced workload: a drop phase,
		// then a leader partition (forcing churn and, for the lease
		// engines, lease expiry), then a heal.
		switch step {
		case 80:
			c.DropRate = 0.05
		case 220:
			c.DropRate = 0
			if leaderless {
				isolated = protocol.NodeID(seed % 3)
			} else if l := c.Leader(); l != nil {
				isolated = l.ID()
			}
			if isolated != protocol.None {
				c.Isolate(isolated, true)
			}
		case 500:
			if isolated != protocol.None {
				c.Isolate(isolated, false)
				isolated = protocol.None
			}
		}

		for _, cl := range cls {
			if cl.waiting != 0 {
				if cl.waited++; cl.waited > opTimeout {
					// Give up waiting (the op stays open in the history:
					// a pending write may still apply) and move on.
					cl.waiting = 0
					cl.waited = 0
				}
				continue
			}
			if cl.cooldown > 0 {
				cl.cooldown--
				continue
			}
			if cl.seq >= opsPerClient {
				continue
			}
			cl.seq++
			cl.cooldown = opCooldown
			cmdID := uint64(cl.id+1)<<32 | uint64(cl.seq)
			key := fmt.Sprintf("k%d", (cl.id+cl.seq)%keys)
			cmd := protocol.Command{ID: cmdID, Client: 900 + protocol.NodeID(cl.id), Key: key}
			inFlight[cmdID] = cl
			cl.waiting = cmdID
			if rng.Intn(100) < 60 {
				val := fmt.Sprintf("c%d-%d", cl.id, cl.seq)
				cmd.Op = protocol.OpPut
				cmd.Value = []byte(val)
				h.Invoke(cmdID, cl.id, true, key, val)
				c.Submit(cl.node, cmd)
			} else {
				cmd.Op = protocol.OpGet
				h.Invoke(cmdID, cl.id, false, key, "")
				c.SubmitRead(cl.node, cmd)
			}
		}
		c.Tick()
		c.DeliverShuffled(5000)
		scan()
	}

	// Quiesce: heal everything and let stragglers finish.
	if isolated != protocol.None {
		c.Isolate(isolated, false)
	}
	c.DropRate = 0
	c.Settle(60)
	scan()

	if err := c.CheckAgreement(); err != nil {
		return c, fmt.Errorf("%s agreement: %v", name, err)
	}
	if err := h.Check(); err != nil {
		return c, fmt.Errorf("%s linearizability: %v", name, err)
	}
	if h.Len() < clients*opsPerClient {
		return c, fmt.Errorf("%s recorded %d ops, want %d", name, h.Len(), clients*opsPerClient)
	}
	return c, nil
}

func TestLinearizableRaft(t *testing.T)       { runLinearWorkload(t, "raft", 11) }
func TestLinearizableRaftStar(t *testing.T)   { runLinearWorkload(t, "raftstar", 12) }
func TestLinearizableMultiPaxos(t *testing.T) { runLinearWorkload(t, "multipaxos", 13) }
func TestLinearizableRQL(t *testing.T)        { runLinearWorkload(t, "raftstar-pql", 14) }
func TestLinearizablePQL(t *testing.T)        { runLinearWorkload(t, "paxos-pql", 15) }

// TestLinearizablePinnedSeeds replays the sweep finds that stood for three
// stale lease reads. raftstar-pql 4007 / 4024 and paxos-pql 4359: a
// replica trusted a lease the moment it re-acquired it, before catching up
// with what its grantors accepted while it was not a holder (lease rule 4).
// paxos-pql 4225: a lost accept was counted as acknowledged because the
// holder acked a later instance (MultiPaxos counts each instance's own
// votes in protocol.Votes). raftstar-pql 8977: an isolated
// leader dropped a follower's holder report after one lease duration, kept
// the follower's vote, and committed past a holder whose lease that
// follower was still renewing (Hooks.MustAck is per vote, with no clock).
//
// And the two holes lost-command re-routing hid on the fast path.
// multipaxos+fast 1818 / 20121: a submitter completed a fast-chosen put
// before the leader's chosen prefix covered it, and the leader served a
// ReadIndex read below it (protocol.FastPath.ReadIndex). 22366 / 30061,
// which surfaced once followers stopped re-routing displaced commands:
// election recovery adopted a speculative copy of a put already chosen two
// instances earlier, and the copy undid the put chosen in between
// (kvstore's applied-ID window).
func TestLinearizablePinnedSeeds(t *testing.T) {
	for _, tc := range []struct {
		engine string
		seed   int64
	}{
		{"raftstar-pql", 4007}, {"raftstar-pql", 4024}, {"paxos-pql", 4359}, {"paxos-pql", 4225}, {"raftstar-pql", 8977},
		{"multipaxos+fast", 1818}, {"multipaxos+fast", 20121}, {"multipaxos+fast", 22366}, {"multipaxos+fast", 30061},
	} {
		runLinearWorkload(t, tc.engine, tc.seed)
	}
}

// depose partitions the current leader away and elects a new one among
// the rest, returning (old, new). The old leader keeps believing it
// leads: no message telling it otherwise can reach it.
func depose(t *testing.T, c *testcluster.Cluster) (old, next protocol.NodeID) {
	t.Helper()
	l := c.Leader()
	if l == nil {
		t.Fatal("no leader to depose")
	}
	old = l.ID()
	c.Isolate(old, true)
	for r := 0; r < 300; r++ {
		for _, id := range c.IDs() {
			if id != old {
				c.Collect(id, c.Engines[id].Tick())
			}
		}
		c.DeliverAll(100000)
		for _, id := range c.IDs() {
			if id != old && c.Engines[id].IsLeader() {
				return old, id
			}
		}
	}
	t.Fatal("no new leader elected behind the partition")
	return
}

// TestCheckerCatchesSabotagedReadIndex proves the checker's teeth: with
// the quorum confirmation disabled (UnsafeSkipReadQuorum), a deposed
// leader happily serves a read from its stale state, and the checker
// must flag the resulting history. This is the regression that keeps the
// linearizability suite honest — if the checker ever stops catching this
// scenario, the suite's green runs mean nothing.
func TestCheckerCatchesSabotagedReadIndex(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	engines := make([]protocol.Engine, len(peers))
	for i, id := range peers {
		engines[i] = raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2,
			Seed: 21, ReadIndex: true, UnsafeSkipReadQuorum: true,
		})
	}
	c := testcluster.New(21, engines...)
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

	// The deposed leader serves the read instantly from its stale state —
	// the sabotage skips the confirmation round that would have exposed
	// it.
	h.Invoke(3, 1, false, "k", "")
	c.SubmitRead(old, protocol.Command{ID: 3, Client: 901, Key: "k"})
	mustReturn(t, c, h, 3)

	if err := h.Check(); err == nil {
		t.Fatal("checker passed a history containing a stale read served by a deposed leader")
	} else {
		t.Logf("checker correctly flagged: %v", err)
	}
}

// mustReturn scans replies for cmdID and records its completion.
func mustReturn(t *testing.T, c *testcluster.Cluster, h *testcluster.History, cmdID uint64) {
	t.Helper()
	for _, rep := range c.Replies {
		if rep.CmdID == cmdID {
			if rep.Err != nil {
				t.Fatalf("cmd %d failed: %v", cmdID, rep.Err)
			}
			h.Return(cmdID, string(rep.Value))
			return
		}
	}
	t.Fatalf("cmd %d never completed", cmdID)
}

// settleBehindPartition ticks and delivers only among the nodes that can
// still talk (the isolated node's messages are cut anyway, but not
// ticking it keeps it a complacent deposed leader instead of a
// perpetually campaigning candidate).
func settleBehindPartition(c *testcluster.Cluster, isolated protocol.NodeID, rounds int) {
	for r := 0; r < rounds; r++ {
		for _, id := range c.IDs() {
			if id != isolated {
				c.Collect(id, c.Engines[id].Tick())
			}
		}
		c.DeliverAll(100000)
	}
}

// A leader deposed by a message that names no successor — a vote request, a
// prepare — must forget that it led. One that keeps pointing at itself
// forwards every command submitted before the next leader announces itself
// from the replica to the replica, once per delivery, for as long as the
// election takes (8.7 million deliveries in one raftstar-pql campaign).
func TestDeposedLeaderDoesNotForwardToItself(t *testing.T) {
	for name, higher := range map[string]protocol.Message{
		"raftstar":   &raftstar.MsgVoteReq{Term: 1 << 20},
		"multipaxos": &multipaxos.MsgPrepare{Bal: 1 << 40},
	} {
		c := testcluster.New(1, linearEngines(name, 1)...)
		l, err := c.ElectLeader(300)
		if err != nil {
			t.Fatal(err)
		}
		l.Step((l.ID()+1)%3, higher)
		if l.IsLeader() || l.Leader() != protocol.None {
			t.Fatalf("%s: deposed leader still names leader %d", name, l.Leader())
		}
		out := l.Submit(protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v")})
		for _, env := range out.Msgs {
			if env.To == l.ID() {
				t.Fatalf("%s: deposed leader sent itself %T", name, env.Msg)
			}
		}
	}
}
