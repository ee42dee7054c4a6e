package lease_test

import (
	"testing"

	"raftpaxos/internal/lease"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// The decorator is one piece of code over two engine families, so every
// behaviour below is checked over both: Raft* (the port, Raft*-PQL) and
// MultiPaxos (the original, PQL). Lease geometry throughout: 40-tick
// leases renewed every 10, default 5-tick guard band.
type family struct {
	name  string
	inner func(id protocol.NodeID, peers []protocol.NodeID, seed int64, election int, h protocol.Hooks) lease.Inner
}

var families = []family{
	{"raftstar", func(id protocol.NodeID, peers []protocol.NodeID, seed int64, election int, h protocol.Hooks) lease.Inner {
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: 2, Seed: seed, Hooks: h,
		})
	}},
	{"multipaxos", func(id protocol.NodeID, peers []protocol.NodeID, seed int64, election int, h protocol.Hooks) lease.Inner {
		return multipaxos.New(multipaxos.Config{
			ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: 2, Seed: seed, Hooks: h,
		})
	}},
}

// forFamilies runs body once per inner engine family.
func forFamilies(t *testing.T, body func(t *testing.T, f family)) {
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) { body(t, f) })
	}
}

func leaseCfg(id protocol.NodeID, peers []protocol.NodeID) lease.Config {
	return lease.Config{Self: id, Peers: peers, DurationTicks: 40, RenewTicks: 10}
}

// newGroup builds an n-replica cluster of lease engines over family f.
func newGroup(t *testing.T, f family, n int, seed int64, mode lease.Mode, election int) *group {
	g := &group{t: t}
	for i := 0; i < n; i++ {
		g.peers = append(g.peers, protocol.NodeID(i))
	}
	g.build = func(id protocol.NodeID) *lease.Engine {
		return lease.NewEngine(leaseCfg(id, g.peers), mode, func(h protocol.Hooks) lease.Inner {
			return f.inner(id, g.peers, seed, election, h)
		})
	}
	engines := make([]protocol.Engine, n)
	for i, id := range g.peers {
		engines[i] = g.build(id)
	}
	g.Cluster = testcluster.New(seed, engines...)
	return g
}

// group is a test cluster of lease engines.
type group struct {
	*testcluster.Cluster
	t     *testing.T
	peers []protocol.NodeID
	build func(id protocol.NodeID) *lease.Engine // one more incarnation of replica id
}

func (g *group) eng(id protocol.NodeID) *lease.Engine { return g.Engines[id].(*lease.Engine) }

// establish elects a leader and lets the lease grant/ack round trips run.
func (g *group) establish() protocol.NodeID {
	g.t.Helper()
	leader, err := g.ElectLeader(100)
	if err != nil {
		g.t.Fatal(err)
	}
	g.Settle(15)
	return leader.ID()
}

// pinLeader elects node 0 at once. Used with an election timeout no test
// outlasts, so isolating a follower causes no churn when it returns.
func (g *group) pinLeader() protocol.NodeID {
	g.Collect(0, g.eng(0).Campaign())
	g.Settle(15)
	if !g.eng(0).IsLeader() {
		g.t.Fatal("node 0 did not win its forced election")
	}
	return 0
}

func (g *group) follower(leader protocol.NodeID) protocol.NodeID {
	for _, id := range g.peers {
		if id != leader {
			return id
		}
	}
	return protocol.None
}

func (g *group) put(at protocol.NodeID, id uint64, key, val string) {
	g.Submit(at, protocol.Command{ID: id, Client: 900, Op: protocol.OpPut, Key: key, Value: []byte(val)})
}

// reply returns the successful reply to cmdID, if any.
func (g *group) reply(cmdID uint64) (protocol.ClientReply, bool) {
	for _, r := range g.Replies {
		if r.CmdID == cmdID && r.Err == nil {
			return r, true
		}
	}
	return protocol.ClientReply{}, false
}

func (g *group) applied(at protocol.NodeID, cmdID uint64) bool {
	for _, ent := range g.Applied[at] {
		if ent.Cmd.ID == cmdID {
			return true
		}
	}
	return false
}

// roundLeaseOnly is one Settle round in which node h exchanges nothing but
// lease messages: replication traffic to and from it is lost, which an
// asynchronous network is free to do while grants get through.
func (g *group) roundLeaseOnly(h protocol.NodeID) {
	g.Tick()
	for len(g.Queue) > 0 {
		env := g.Queue[0]
		_, grant := env.Msg.(*lease.MsgGrant)
		_, ack := env.Msg.(*lease.MsgGrantAck)
		if (env.To == h || env.From == h) && !grant && !ack {
			g.Queue = g.Queue[1:]
			continue
		}
		g.DeliverAll(1)
	}
}

func TestQuorumLeaseLocalRead(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 1, lease.QuorumLease, 10)
		leader := g.establish()
		for _, id := range g.peers {
			if !g.eng(id).HasQuorumLease() {
				t.Fatalf("node %d: no quorum lease", id)
			}
		}
		// A read at a follower answers in the same step: no message needed.
		g.SubmitRead(g.follower(leader), protocol.Command{ID: 77, Client: 900, Key: "unwritten"})
		if r, ok := g.reply(77); !ok || r.Kind != protocol.ReplyRead {
			t.Fatal("lease read did not answer immediately")
		}
	})
}

// A local read of a key with an accepted but uncommitted write waits for
// the commit (Figure 13: indexes of entries modifying k ≤ commitIndex).
func TestReadWaitsForConflictingWrite(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 2, lease.QuorumLease, 10)
		leader := g.establish()
		g.put(leader, 1, "hot", "v")
		g.SubmitRead(leader, protocol.Command{ID: 2, Client: 900, Key: "hot"})
		if _, ok := g.reply(2); ok {
			t.Fatal("read answered before the conflicting write committed")
		}
		g.Settle(5)
		if r, ok := g.reply(2); !ok || string(r.Value) != "v" {
			t.Fatalf("read after the commit: %+v, %v", r, ok)
		}
	})
}

// The modified Learn gates a commit on every lease holder's ack: with a
// holder cut off, writes stall until its lease expires at every grantor —
// one lease duration — and then commit.
func TestWriteWaitsForAllHolders(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 5, 3, lease.QuorumLease, 10)
		leader := g.establish()
		g.Isolate(g.follower(leader), true)
		g.put(leader, 10, "k", "v")
		g.Settle(1)
		if g.applied(leader, 10) {
			t.Fatal("write committed while a lease holder had not acknowledged")
		}
		g.Settle(60)
		if !g.applied(leader, 10) {
			t.Fatal("write never committed after the dead holder's lease expired")
		}
		if err := g.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// The commit rule at the hook, where it lives: a vote counts once the
// holders its voter reported have voted too. The leader's own implicit
// vote is bound by its own grants — Paxos's f+1 acceptOKs map to f
// appendOKs plus the leader's self-ack, so a holder only the leader
// granted to, named on no follower's ack, must still acknowledge (the bug
// the paper's hand-worked port had). And a report binds without a clock:
// the leader's grants lapse on its own timer, a follower's word does not.
func TestMustAckBindsEachVoteToItsVotersGrants(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		peers := []protocol.NodeID{0, 1, 2, 3}
		var hooks protocol.Hooks
		e := lease.NewEngine(leaseCfg(0, peers), lease.QuorumLease, func(h protocol.Hooks) lease.Inner {
			hooks = h
			return f.inner(0, peers, 1, 10, h)
		})
		e.Tick() // first-contact grants to 1, 2, 3: honored from send
		hooks.OnAck(1, []protocol.NodeID{1, 9})
		check := func(when string, from protocol.NodeID, want ...protocol.NodeID) {
			t.Helper()
			got := map[protocol.NodeID]bool{}
			for _, id := range hooks.MustAck(from) {
				got[id] = true
			}
			for _, id := range want {
				if !got[id] {
					t.Fatalf("%s: MustAck(%d) = %v, want it to name %v", when, from, got, want)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: MustAck(%d) = %v, want exactly %v", when, from, got, want)
			}
		}
		check("after the ack", 1, 1, 9)
		check("after the ack", 2) // never voted: nothing to bind
		check("after the ack", 0, 0, 1, 2, 3)
		for i := 0; i < 41; i++ { // past a lease duration with no grant acked
			e.Tick()
		}
		check("a duration later", 0, 0)
		check("a duration later", 1, 1, 9)
	})
}

// TestLeaderDoesNotOutwaitAnotherReplicasGrant is raftstar-pql seed 8977 by hand. A
// follower votes for a write while naming a holder the write has not
// reached, and the leader then loses contact with both. The follower goes
// on renewing that holder's lease, out of the leader's hearing, so no
// amount of waiting entitles the leader to use the vote: a leader that
// drops the report after one lease duration but keeps the vote commits —
// and the holder, quorum lease intact, reads stale.
func TestLeaderDoesNotOutwaitAnotherReplicasGrant(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 11, lease.QuorumLease, 200)
		leader := g.pinLeader()
		holder := protocol.NodeID(2) // node 1 is the voter
		h := testcluster.NewHistory()
		g.checkedPut(h, leader, 1, "k", "v1")

		g.Partition(leader, holder, true)
		h.Invoke(2, 0, true, "k", "v2")
		g.put(leader, 2, "k", "v2")
		g.DeliverAll(100000) // the voter accepts and votes, naming the holder
		g.Isolate(leader, true)
		g.Settle(80) // two lease durations; the voter keeps renewing the holder
		if _, ok := g.reply(2); ok {
			t.Fatal("leader committed on a vote whose voter still grants to a holder that never acknowledged")
		}
		if !g.eng(holder).HasQuorumLease() {
			t.Fatal("test needs the holder to keep its quorum lease through the voter")
		}
		h.Invoke(3, 1, false, "k", "")
		g.SubmitRead(holder, protocol.Command{ID: 3, Client: 901, Key: "k"})
		if r, ok := g.reply(3); ok {
			h.Return(3, string(r.Value))
		}

		g.Isolate(leader, false)
		g.Settle(3 * 200) // MultiPaxos re-sends a stalled accept after an election timeout
		if _, ok := g.reply(2); !ok {
			t.Fatal("put never completed after the heal")
		}
		h.Return(2, "v2")
		h.Invoke(5, 1, false, "k", "")
		g.SubmitRead(holder, protocol.Command{ID: 5, Client: 901, Key: "k"})
		g.Settle(5)
		if r, ok := g.reply(5); !ok || string(r.Value) != "v2" {
			t.Fatalf("holder's read after the heal: %+v, %v", r, ok)
		} else {
			h.Return(5, string(r.Value))
		}
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestLeaderLeaseForwardsFollowerReads(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 4, lease.LeaderLease, 10)
		leader := g.establish()
		// Past a full lease duration any lease granted to a briefly elected
		// earlier leader has expired (leases cannot be revoked early).
		g.Settle(60)
		for _, id := range g.peers {
			if got := g.eng(id).HasQuorumLease(); got != (id == leader) {
				t.Fatalf("node %d (leader %d): quorum lease = %v", id, leader, got)
			}
		}
		g.put(leader, 1, "x", "v")
		g.Settle(3)
		g.SubmitRead(g.follower(leader), protocol.Command{ID: 42, Client: 900, Key: "x"})
		g.DeliverAll(100000) // one hop to the leader, which answers locally
		if r, ok := g.reply(42); !ok || string(r.Value) != "v" {
			t.Fatalf("forwarded leader-lease read: %+v, %v", r, ok)
		}
	})
}

// TestLeaderLeaseOutlivesLeaderChange: a follower's grant to the leader
// it followed stays honored after it votes for another. The deposed leader,
// cut off and unaware, keeps its lease and keeps answering reads locally,
// so the new leader may not commit a write until those grants expire:
// every vote from a replica still honoring one needs the holder's vote too.
// Counting the grantors' votes at once let the deposed leader read a value
// the new leader had already overwritten (raftstar-ll sweep seeds 10565,
// 420000, 420108).
func TestLeaderLeaseOutlivesLeaderChange(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 6, lease.LeaderLease, 200)
		old := g.pinLeader()
		g.put(old, 1, "k", "v1")
		g.Settle(3)
		if !g.eng(old).HasQuorumLease() {
			t.Fatal("leader holds no lease")
		}
		g.Isolate(old, true)
		next := g.follower(old)
		g.Collect(next, g.eng(next).Campaign())
		g.put(next, 2, "k", "v2")
		for r := 0; r < 80; r++ {
			g.Tick()
			g.DeliverAll(100000)
			g.put(next, 2, "k", "v2") // until it is leader; a duplicate applies once
			_, done := g.reply(2)
			if done && g.eng(old).IsLeader() && g.eng(old).HasQuorumLease() {
				t.Fatalf("round %d: the new leader committed a write while the deposed one still serves local reads", r)
			}
		}
		if !g.eng(next).IsLeader() {
			t.Fatal("no new leader behind the cut")
		}
		if _, done := g.reply(2); !done {
			t.Fatal("the write never committed once the old grants expired")
		}
	})
}

// A read parked behind an uncommitted write leaves through the inner
// engine's read path — the log — the moment the quorum lease is gone.
func TestParkedReadReroutedOnLeaseLoss(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 5, lease.QuorumLease, 200)
		leader := g.pinLeader()
		holder := g.follower(leader)
		// The holder accepts the write; the commit notice rides the next
		// heartbeat, which the cut keeps from it.
		g.put(leader, 1, "k", "v")
		g.DeliverAll(100000)
		g.Isolate(holder, true)
		g.SubmitRead(holder, protocol.Command{ID: 2, Client: 901, Key: "k"})
		for i := 0; i < 45; i++ {
			g.TickNode(holder)
		}
		if g.eng(holder).HasQuorumLease() {
			t.Fatal("lease survived 45 ticks without renewal")
		}
		if _, ok := g.reply(2); ok {
			t.Fatal("parked read answered while its write was uncommitted here")
		}
		// The forward to the leader is queued behind the cut; heal and it
		// replicates like any leaseless read. Local reads never enter the log.
		g.Isolate(holder, false)
		g.Settle(10)
		if r, ok := g.reply(2); !ok || string(r.Value) != "v" {
			t.Fatalf("re-routed read: %+v, %v", r, ok)
		}
		if !g.applied(leader, 2) {
			t.Fatal("re-routed read did not go through the log")
		}
	})
}

// The same at a leader-lease leader: being leader is no substitute for the
// lease. Once its followers' grants lapse, a read parked behind its own
// uncommitted write goes to the inner read path (a ReadIndex round, which a
// leader cut off from its quorum cannot finish) instead of being answered
// locally the moment the index commits.
func TestLeaderLeaseParkedReadReroutedOnLeaseLoss(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 5, lease.LeaderLease, 200)
		leader := g.pinLeader()
		if !g.eng(leader).HasQuorumLease() {
			t.Fatal("leader holds no lease")
		}
		g.Isolate(leader, true)
		g.put(leader, 1, "k", "v")
		g.SubmitRead(leader, protocol.Command{ID: 2, Client: 901, Key: "k"})
		for i := 0; i < 45; i++ {
			g.TickNode(leader)
			g.DeliverAll(100000) // into the cut
		}
		if g.eng(leader).HasQuorumLease() || !g.eng(leader).IsLeader() {
			t.Fatal("want a leader whose lease lapsed")
		}
		if _, ok := g.reply(2); ok {
			t.Fatal("parked read answered by a leader with neither lease nor quorum")
		}
		g.Isolate(leader, false)
		g.Settle(3 * 200) // MultiPaxos re-sends a stalled accept after an election timeout
		if r, ok := g.reply(2); !ok || string(r.Value) != "v" {
			t.Fatalf("re-routed read: %+v, %v", r, ok)
		}
		if !g.applied(leader, 2) {
			t.Fatal("read answered locally on leadership alone, not through the log")
		}
	})
}

func TestAgreementUnderChaos(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		for seed := int64(0); seed < 6; seed++ {
			g := newGroup(t, f, 3, 500+seed, lease.QuorumLease, 10)
			leader, err := g.ElectLeader(100)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 15; i++ {
				g.put(leader.ID(), uint64(i+1), "k", "v")
				g.DeliverChaos(2000)
			}
			for r := 0; r < 30; r++ {
				g.Tick()
				g.DeliverChaos(100000)
			}
			if err := g.CheckAgreement(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
	})
}

// checkedPut is put recorded in a history: invoked, settled, returned.
func (g *group) checkedPut(h *testcluster.History, at protocol.NodeID, id uint64, key, val string) {
	g.t.Helper()
	h.Invoke(id, 0, true, key, val)
	g.put(at, id, key, val)
	g.Settle(6)
	if _, ok := g.reply(id); !ok {
		g.t.Fatalf("put %d never completed", id)
	}
	h.Return(id, val)
}

// activate runs lease-only rounds at holder until it holds a quorum lease,
// reads key there, requires that the read is not answered from the local
// store (below the floor it goes to the leader), then lets replication
// through and requires the read to return want.
func (g *group) activate(h *testcluster.History, holder protocol.NodeID, readID uint64, key, want string) {
	g.t.Helper()
	for r := 0; !g.eng(holder).HasQuorumLease(); r++ {
		if r == 60 {
			g.t.Fatal("holder never reacquired a quorum lease")
		}
		g.roundLeaseOnly(holder)
	}
	h.Invoke(readID, 1, false, key, "")
	g.SubmitRead(holder, protocol.Command{ID: readID, Client: 901, Key: key})
	if r, ok := g.reply(readID); ok {
		g.t.Fatalf("read served with %q the moment the lease activated, before catching up", r.Value)
	}
	g.Settle(30)
	r, ok := g.reply(readID)
	if !ok {
		g.t.Fatal("read never answered once replication traffic flowed again")
	}
	h.Return(readID, string(r.Value))
	if string(r.Value) != want {
		g.t.Errorf("read %q, want %q", r.Value, want)
	}
	if err := h.Check(); err != nil {
		g.t.Fatal(err)
	}
}

// TestLeaseActivationWaitsForCatchUp is rule 4's regression (raftstar-pql seed 4007
// by hand): a replica that was not a holder while writes committed must
// not trust a re-acquired lease before it has caught up with what its
// grantors accepted in the meantime.
func TestLeaseActivationWaitsForCatchUp(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 6, lease.QuorumLease, 200)
		leader := g.pinLeader()
		holder := g.follower(leader)
		h := testcluster.NewHistory()
		g.checkedPut(h, leader, 1, "k", "v1")

		g.Isolate(holder, true)
		g.Settle(60) // its leases lapse at both ends; writes stop waiting for it
		g.checkedPut(h, leader, 2, "k", "v2")
		g.checkedPut(h, leader, 3, "k", "v3")
		g.Isolate(holder, false)
		g.activate(h, holder, 4, "k", "v3")
	})
}

// TestLeaseActivationAfterRestart is the same hole through a restart: a
// fresh lease table has no history, so its first grants are full grants.
func TestLeaseActivationAfterRestart(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 7, lease.QuorumLease, 200)
		leader := g.pinLeader()
		holder := g.follower(leader)
		h := testcluster.NewHistory()
		g.checkedPut(h, leader, 1, "k", "v1")
		prefix := append([]protocol.Entry(nil), g.Applied[holder]...)

		g.Isolate(holder, true) // crashed
		for r := 0; r < 60; r++ {
			for _, id := range g.peers {
				if id != holder {
					g.TickNode(id)
				}
			}
			g.DeliverAll(100000)
		}
		g.checkedPut(h, leader, 2, "k", "v2")
		g.checkedPut(h, leader, 3, "k", "v3")

		// Restart from the stale prefix; the KV mirror is the state machine
		// as of that prefix.
		fresh := g.build(holder)
		fresh.RestoreLog(prefix, prefix[len(prefix)-1].Index)
		g.Engines[holder] = fresh
		g.Isolate(holder, false)
		g.activate(h, holder, 4, "k", "v3")
	})
}

// The floor is per activation, not per renewal: a holder whose lease never
// lapsed answers at once even though a renewal just told it of an index —
// a write to another key, still in flight — it has not committed.
func TestLeaseActivationFloorIgnoresRenewals(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 8, lease.QuorumLease, 200)
		leader := g.pinLeader()
		holder := g.follower(leader)
		g.put(leader, 1, "k", "v1")
		g.Settle(6)
		g.put(leader, 2, "other", "w")
		for r := 0; r < 12; r++ { // at least one renewal stamped past the holder's commit
			g.roundLeaseOnly(holder)
		}
		if !g.eng(holder).HasQuorumLease() {
			t.Fatal("renewals should have kept the lease alive")
		}
		if g.eng(holder).CommitIndex() >= g.eng(leader).LastIndex() {
			t.Fatal("test needs the holder behind the leader's last index")
		}
		g.SubmitRead(holder, protocol.Command{ID: 3, Client: 901, Key: "k"})
		if r, ok := g.reply(3); !ok || string(r.Value) != "v1" {
			t.Fatalf("read under an uninterrupted lease did not complete in the same step: %+v, %v", r, ok)
		}
	})
}

// Nothing promises that an accepted index ever commits: a deposed MultiPaxos
// leader keeps the tail it proposed to nobody, at a dead ballot. It stamps
// that tail on its grants (every other replica's floor) and remembers it as
// the last write to those keys (its own lastWrite). A read must wait for
// neither — through an idle period nothing lifts the commit index — and
// takes the inner engine's read path instead. (Raft* adopts or erases the
// tail; the rule is the same and costs it nothing.)
func TestStaleTailDoesNotHangReads(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 10, lease.QuorumLease, 10)
		old := g.establish()
		h := testcluster.NewHistory()
		g.checkedPut(h, old, 1, "k", "v1")

		g.Isolate(old, true)
		for id := uint64(100); id < 106; id++ { // accepted at the old leader, sent to nobody
			val := string(rune('a' + id - 100))
			h.Invoke(id, 2, true, "junk", val)
			g.put(old, id, "junk", val)
		}
		g.Settle(80) // the others elect; the old leader's leases lapse at both ends
		next := protocol.None
		for _, id := range g.peers {
			if id != old && g.eng(id).IsLeader() {
				next = id
			}
		}
		if next == protocol.None {
			t.Fatal("no new leader behind the partition")
		}
		g.checkedPut(h, next, 2, "k", "v2")
		g.Isolate(old, false)
		g.Settle(40) // the old leader rejoins and every lease is re-granted

		readID := uint64(10)
		for _, id := range g.peers {
			if !g.eng(id).HasQuorumLease() {
				t.Fatalf("node %d holds no quorum lease after the heal", id)
			}
			for _, key := range []string{"k", "junk"} {
				readID++
				h.Invoke(readID, int(readID), false, key, "")
				g.SubmitRead(id, protocol.Command{ID: readID, Client: 901, Key: key})
				g.Settle(20)
				r, ok := g.reply(readID)
				if !ok {
					t.Fatalf("read of %q at node %d (commit %d, old leader %d's last %d) never answered",
						key, id, g.eng(id).CommitIndex(), old, g.eng(old).LastIndex())
				}
				h.Return(readID, string(r.Value))
			}
		}
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLostAcceptNeitherWedgesNorLeaks is the two halves of paxos-pql seed 4225
// by hand: one accept/append to a lease holder is lost, later ones arrive.
// Safety — the entry must not commit on the strength of the holder's later
// acks (MultiPaxos has no log matching: a high-water mark is not an ack),
// so every local read at the holder, before and after it catches up, is
// fresh. Liveness — the holder must learn of the hole and have it refilled
// (MultiPaxos: the heartbeat hole report; Raft*: next/match), or that one
// loss blocks every later commit for as long as the holder keeps renewing.
func TestLostAcceptNeitherWedgesNorLeaks(t *testing.T) {
	forFamilies(t, func(t *testing.T, f family) {
		g := newGroup(t, f, 3, 9, lease.QuorumLease, 200)
		leader := g.pinLeader()
		holder := g.follower(leader)
		h := testcluster.NewHistory()
		g.checkedPut(h, leader, 1, "k", "v1")

		g.Partition(leader, holder, true)
		h.Invoke(2, 0, true, "k", "v2")
		g.put(leader, 2, "k", "v2")
		g.DeliverAll(100000)
		g.Partition(leader, holder, false)
		returned := false
		readAtHolder := func(id uint64) {
			if _, ok := g.reply(2); ok && !returned {
				h.Return(2, "v2")
				returned = true
			}
			h.Invoke(id, 1, false, "k", "")
			g.SubmitRead(holder, protocol.Command{ID: id, Client: 901, Key: "k"})
			if r, ok := g.reply(id); ok {
				h.Return(id, string(r.Value))
			}
		}
		for i := uint64(3); i <= 7; i++ { // never awaited: the checker may place them freely
			g.put(leader, i, "other", "w")
			g.DeliverAll(100000)
			g.Tick() // the leader rechecks its commit rule; nothing delivered yet
			readAtHolder(10 + i)
			g.DeliverAll(100000)
		}
		g.Settle(20)
		for i := uint64(2); i <= 7; i++ {
			if _, ok := g.reply(i); !ok {
				t.Fatalf("put %d of 7 did not complete within 20 rounds of one lost accept", i)
			}
		}
		if !g.eng(holder).HasQuorumLease() {
			t.Fatal("holder should still hold its quorum lease")
		}
		readAtHolder(20)
		if r, ok := g.reply(20); !ok || string(r.Value) != "v2" {
			t.Fatalf("holder's local read after catching up: %+v, %v", r, ok)
		}
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	})
}
