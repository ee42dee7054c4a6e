package raftstar_test

import (
	"bytes"
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// The conformance suite: everything the shared engine does regardless of
// rule set — elections, replication, forwarding, failover, agreement under
// reordering and loss, snapshot transfer, ReadIndex — run over both
// variants. What a rule set alone decides is tested next to it
// (recovery_test.go here, raft_test.go in package raft).

// replica is the surface the suite drives beyond protocol.Engine.
type replica interface {
	protocol.Engine
	Campaign() protocol.Output
	LastIndex() int64
	FirstIndex() int64
	EntryAt(i int64) (protocol.Entry, bool)
	SetSnapshotProvider(p protocol.SnapshotProvider)
	MatchIndex(p protocol.NodeID) int64
	Role() raftstar.Role
}

type variant struct {
	name string
	new  func(cfg raftstar.Config) replica
	// The variant's append request and response types, to and from the
	// engine's structs (Raft's are the same structs under its own names).
	req    func(m raftstar.MsgAppendReq) protocol.Message
	resp   func(m raftstar.MsgAppendResp) protocol.Message
	asReq  func(msg protocol.Message) (*raftstar.MsgAppendReq, bool)
	asResp func(msg protocol.Message) (*raftstar.MsgAppendResp, bool)
}

var variants = []variant{
	{
		name: "raft",
		new:  func(cfg raftstar.Config) replica { return raft.New(cfg) },
		req:  func(m raftstar.MsgAppendReq) protocol.Message { return (*raft.MsgAppendReq)(&m) },
		resp: func(m raftstar.MsgAppendResp) protocol.Message { return (*raft.MsgAppendResp)(&m) },
		asReq: func(msg protocol.Message) (*raftstar.MsgAppendReq, bool) {
			m, ok := msg.(*raft.MsgAppendReq)
			return (*raftstar.MsgAppendReq)(m), ok
		},
		asResp: func(msg protocol.Message) (*raftstar.MsgAppendResp, bool) {
			m, ok := msg.(*raft.MsgAppendResp)
			return (*raftstar.MsgAppendResp)(m), ok
		},
	},
	{
		name: "raftstar",
		new:  func(cfg raftstar.Config) replica { return raftstar.New(cfg) },
		req:  func(m raftstar.MsgAppendReq) protocol.Message { return &m },
		resp: func(m raftstar.MsgAppendResp) protocol.Message { return &m },
		asReq: func(msg protocol.Message) (*raftstar.MsgAppendReq, bool) {
			m, ok := msg.(*raftstar.MsgAppendReq)
			return m, ok
		},
		asResp: func(msg protocol.Message) (*raftstar.MsgAppendResp, bool) {
			m, ok := msg.(*raftstar.MsgAppendResp)
			return m, ok
		},
	},
}

// eachVariant runs body once per rule set.
func eachVariant(t *testing.T, body func(t *testing.T, v variant)) {
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) { body(t, v) })
	}
}

func config(id protocol.NodeID, peers []protocol.NodeID, seed int64, readIndex bool) raftstar.Config {
	return raftstar.Config{
		ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: seed, ReadIndex: readIndex,
	}
}

func (v variant) cluster(n int, seed int64, readIndex bool) *testcluster.Cluster {
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	engines := make([]protocol.Engine, n)
	for i := range peers {
		engines[i] = v.new(config(peers[i], peers, seed, readIndex))
	}
	return testcluster.New(seed, engines...)
}

func rep(c *testcluster.Cluster, id protocol.NodeID) replica { return c.Engines[id].(replica) }

// otherThan returns some node that is none of the given ones.
func otherThan(c *testcluster.Cluster, not ...protocol.NodeID) protocol.NodeID {
next:
	for id := range c.Engines {
		for _, n := range not {
			if id == n {
				continue next
			}
		}
		return id
	}
	return protocol.None
}

func applied(c *testcluster.Cluster, id protocol.NodeID) map[uint64]bool {
	ids := map[uint64]bool{}
	for _, ent := range c.Applied[id] {
		if !ent.Cmd.IsNop() {
			ids[ent.Cmd.ID] = true
		}
	}
	return ids
}

func put(id uint64, key string) protocol.Command {
	return protocol.Command{ID: id, Op: protocol.OpPut, Key: key}
}

func TestElectLeader(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 1, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.Engines {
			if e.Leader() != leader.ID() && e.Leader() != protocol.None {
				t.Fatalf("node %d thinks leader is %d, want %d", e.ID(), e.Leader(), leader.ID())
			}
		}
		if got := leader.(replica).Role(); got != raftstar.Leader {
			t.Fatalf("leader's role = %v", got)
		}
	})
}

func TestReplicateAndCommit(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 2, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			c.Submit(leader.ID(), put(uint64(i+1), "k"))
		}
		c.Settle(5)
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		if got := len(applied(c, leader.ID())); got != 10 {
			t.Fatalf("leader applied %d real entries, want 10", got)
		}
	})
}

func TestFollowerForwarding(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 3, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(otherThan(c, leader.ID()), put(42, "k"))
		c.Settle(5)
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		if !applied(c, leader.ID())[42] {
			t.Fatal("forwarded command not committed")
		}
	})
}

func TestFailoverPreservesCommitted(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(5, 4, false)
		leader, err := c.ElectLeader(200)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			c.Submit(leader.ID(), put(uint64(i+1), "k"))
		}
		c.Settle(5)
		if got := len(applied(c, leader.ID())); got < 5 {
			t.Fatalf("only %d committed before failover", got)
		}
		c.Isolate(leader.ID(), true)
		var next protocol.Engine
		for r := 0; r < 400 && next == nil; r++ {
			c.Tick()
			c.DeliverAll(100000)
			for _, e := range c.Engines {
				if e.IsLeader() && e.ID() != leader.ID() {
					next = e
				}
			}
		}
		if next == nil {
			t.Fatal("no new leader elected after isolating old one")
		}
		c.Submit(next.ID(), put(100, "k"))
		c.Settle(10)
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		// The new leader must have every previously committed entry.
		ids := applied(c, next.ID())
		for i := uint64(1); i <= 5; i++ {
			if !ids[i] {
				t.Fatalf("entry %d lost after failover", i)
			}
		}
		if !ids[100] {
			t.Fatal("new command not committed after failover")
		}
	})
}

// TestAgreementUnderMessageShuffling delivers in fully random order, with
// no pairwise FIFO guarantee.
func TestAgreementUnderMessageShuffling(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		for _, base := range []int64{100, 300} {
			for seed := base; seed < base+10; seed++ {
				c := v.cluster(3, seed, false)
				leader, err := c.ElectLeader(100)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 20; i++ {
					c.Submit(leader.ID(), put(uint64(i+1), "k"))
					c.DeliverChaos(1000)
				}
				for r := 0; r < 20; r++ {
					c.Tick()
					c.DeliverChaos(100000)
				}
				if err := c.CheckAgreement(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
	})
}

func TestAgreementUnderDrops(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 4, false)
		c.DropRate = 0.15
		leader, err := c.ElectLeader(400)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			c.Submit(leader.ID(), put(uint64(i+1), "k"))
			c.Settle(3)
		}
		c.DropRate = 0
		c.Settle(30)
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// strandVictim commits a first batch everywhere, isolates one follower,
// commits more, then compacts the connected replicas' logs past the
// victim and wires them a snapshot provider with imgSize bytes of state.
// Returns the victim and the snapshot index.
func strandVictim(t *testing.T, c *testcluster.Cluster, leaderID protocol.NodeID, imgSize int) (protocol.NodeID, int64) {
	t.Helper()
	victim := otherThan(c, leaderID)
	for i := 0; i < 5; i++ {
		c.Submit(leaderID, put(uint64(i+1), "k"))
	}
	c.Settle(3)
	c.Isolate(victim, true)
	for i := 5; i < 25; i++ {
		c.Submit(leaderID, put(uint64(i+1), "k"))
	}
	c.Settle(3)
	lead := rep(c, leaderID)
	base := lead.CommitIndex()
	ent, ok := lead.EntryAt(base)
	if !ok {
		t.Fatalf("no entry at commit %d", base)
	}
	img := protocol.SnapshotImage{Index: base, Term: ent.Term, Data: make([]byte, imgSize)}
	provider := protocol.SnapshotProviderFunc(func() (protocol.SnapshotImage, bool) { return img, true })
	for id := range c.Engines {
		if id == victim {
			continue
		}
		eng := rep(c, id)
		eng.TruncatePrefix(base)
		eng.SetSnapshotProvider(provider)
		if eng.FirstIndex() != base+1 {
			t.Fatalf("node %d FirstIndex = %d after compaction, want %d", id, eng.FirstIndex(), base+1)
		}
	}
	return victim, base
}

// midTransfer drives one message at a time until the victim has acked at
// least one chunk — the transfer is genuinely mid-flight — and skips the
// test if the image landed before that point at this seed.
func midTransfer(t *testing.T, c *testcluster.Cluster, victim protocol.NodeID) {
	t.Helper()
	for r := 0; r < 3000; r++ {
		c.Tick()
		c.DeliverAll(1)
		for _, env := range c.Queue {
			if _, ok := env.Msg.(*protocol.MsgInstallSnapshotResp); ok && env.From == victim {
				if len(c.Installed[victim]) != 0 {
					t.Skip("transfer completed before the fault could be injected")
				}
				return
			}
		}
	}
	t.Fatal("transfer never started")
}

// TestSnapshotTransferCatchesUpStrandedFollower: a follower that fell
// behind the leader's compaction base can never catch up by log replay;
// the leader must ship its snapshot, after which replication resumes from
// the snapshot index and the follower converges. The install ack must also
// reset the leader's replication state (next/match/inflight) so pipelining
// resumes at once; MatchIndex makes that directly observable.
func TestSnapshotTransferCatchesUpStrandedFollower(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 3, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		victim, base := strandVictim(t, c, leader.ID(), 3*protocol.SnapshotChunkSize+100)
		c.Isolate(victim, false)
		c.Settle(60) // absorb the victim's isolation-era election churn

		if len(c.Installed[victim]) == 0 {
			t.Fatal("stranded follower never installed a snapshot")
		}
		if got := c.Installed[victim][0]; got.Index != base {
			t.Fatalf("installed snapshot at %d, want %d", got.Index, base)
		}
		cur := c.Leader()
		if cur == nil {
			t.Fatal("no unique leader after catch-up")
		}
		lead, veng := cur.(replica), rep(c, victim)
		if veng.CommitIndex() != lead.CommitIndex() {
			t.Fatalf("victim commit %d != leader commit %d", veng.CommitIndex(), lead.CommitIndex())
		}
		if veng.FirstIndex() != base+1 {
			t.Fatalf("victim log anchored at %d, want %d (replay resumed from the image)", veng.FirstIndex(), base+1)
		}
		if got := lead.MatchIndex(victim); got < base {
			t.Fatalf("leader match for victim = %d after install, want >= %d", got, base)
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
		// Replication is live again: a fresh write reaches the rejoined node.
		c.Submit(lead.ID(), put(999, "post"))
		c.Settle(5)
		if veng.CommitIndex() != lead.CommitIndex() {
			t.Fatalf("post-install write did not replicate: victim %d leader %d", veng.CommitIndex(), lead.CommitIndex())
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHeartbeatsFlowDuringTransfer steps the leader directly and checks
// the two properties chunking exists for: no frame to the stranded peer
// ever carries more than one chunk of image data (a multi-MB image must
// not head-of-line block the per-peer stream), and heartbeat appends keep
// flowing to that peer while the transfer is in flight. The final ack
// must immediately resume appends from the snapshot boundary — the
// replication-state reset that makes pipelining restart without waiting
// for the next heartbeat probe.
func TestHeartbeatsFlowDuringTransfer(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 4, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		victim, base := strandVictim(t, c, leader.ID(), 4*protocol.SnapshotChunkSize)
		// A few entries above the snapshot give the leader something to
		// resume replicating the instant the install acks.
		for i := 0; i < 3; i++ {
			c.Submit(leader.ID(), put(uint64(500+i), "tail"))
		}
		c.Settle(3)
		lead, veng := rep(c, leader.ID()), rep(c, victim)
		c.Queue = nil

		// The victim's rejection of a heartbeat probe starts the transfer.
		out := lead.Step(victim, v.resp(raftstar.MsgAppendResp{Term: lead.Term(), LastIndex: veng.LastIndex()}))
		var chunk *protocol.MsgInstallSnapshot
		for _, env := range out.Msgs {
			if is, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && env.To == victim {
				chunk = is
			}
		}
		if chunk == nil || chunk.Offset != 0 {
			t.Fatalf("rejection below the base did not start a transfer: %+v", chunk)
		}

		// Mid-transfer, heartbeats still reach the transferring peer and no
		// frame carries the whole image.
		hb := false
		for i := 0; i < 4; i++ {
			for _, env := range lead.Tick().Msgs {
				if env.To != victim {
					continue
				}
				if _, ok := v.asReq(env.Msg); ok {
					hb = true
				}
				if m, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && len(m.Data) > protocol.SnapshotChunkSize {
					t.Fatalf("frame carries %d bytes mid-transfer, cap %d", len(m.Data), protocol.SnapshotChunkSize)
				}
			}
		}
		if !hb {
			t.Fatal("no heartbeat reached the peer during the transfer")
		}

		// Shuttle chunks by hand until the image lands.
		for hop := 0; ; hop++ {
			if hop == 100 {
				t.Fatal("transfer never completed")
			}
			vout := veng.Step(lead.ID(), chunk)
			var resp *protocol.MsgInstallSnapshotResp
			for _, env := range vout.Msgs {
				if r, ok := env.Msg.(*protocol.MsgInstallSnapshotResp); ok {
					resp = r
				}
			}
			if resp == nil {
				t.Fatal("chunk produced no ack")
			}
			lout := lead.Step(victim, resp)
			if resp.Installed {
				if vout.InstalledSnapshot == nil || vout.InstalledSnapshot.Index != base {
					t.Fatalf("install output = %+v, want image at %d", vout.InstalledSnapshot, base)
				}
				// The final ack resumes appends immediately, from the
				// snapshot boundary.
				resumed := false
				for _, env := range lout.Msgs {
					if ar, ok := v.asReq(env.Msg); ok && env.To == victim {
						resumed = true
						if ar.PrevIndex != base {
							t.Fatalf("resumed append PrevIndex = %d, want %d", ar.PrevIndex, base)
						}
					}
				}
				if !resumed {
					t.Fatal("leader did not resume appends on the final install ack")
				}
				break
			}
			chunk = nil
			for _, env := range lout.Msgs {
				if is, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && env.To == victim {
					chunk = is
				}
			}
			if chunk == nil {
				t.Fatal("ack released no next chunk")
			}
		}
		if veng.CommitIndex() != base {
			t.Fatalf("victim commit = %d after install, want %d", veng.CommitIndex(), base)
		}
	})
}

// TestLeaderChangeMidTransfer kills the leader partway through a transfer
// and checks the new leader re-sends and the stranded follower still
// converges (the assembly resumes the identical image from the new
// sender).
func TestLeaderChangeMidTransfer(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 5, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		oldID := leader.ID()
		victim, base := strandVictim(t, c, oldID, 4*protocol.SnapshotChunkSize)
		c.Isolate(victim, false)
		midTransfer(t, c, victim)

		// Old leader dies; the surviving follower (which holds the same
		// compacted log and snapshot) takes over and must restart the
		// shipment.
		c.Isolate(oldID, true)
		successor := otherThan(c, oldID, victim)
		c.Collect(successor, rep(c, successor).Campaign())
		c.Settle(60)

		if len(c.Installed[victim]) == 0 {
			t.Fatal("victim never installed after the leader change")
		}
		if got := c.Installed[victim][len(c.Installed[victim])-1]; got.Index != base {
			t.Fatalf("installed at %d, want %d", got.Index, base)
		}
		veng, seng := rep(c, victim), rep(c, successor)
		if !seng.IsLeader() || veng.CommitIndex() != seng.CommitIndex() {
			t.Fatalf("no convergence under new leader: victim %d, successor %d (leader=%v)",
				veng.CommitIndex(), seng.CommitIndex(), seng.IsLeader())
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReceiverCrashMidInstall wipes the receiving follower after it
// buffered part of an image: the torn assembly dies with it, the leader
// restarts the shipment from offset zero, and the reborn node still
// converges.
func TestReceiverCrashMidInstall(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 6, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		victim, base := strandVictim(t, c, leader.ID(), 4*protocol.SnapshotChunkSize)
		c.Isolate(victim, false)
		midTransfer(t, c, victim)

		// Crash: the victim loses its in-memory assembly (and, having been
		// wiped, everything else). It restarts empty.
		c.Engines[victim] = v.new(config(victim, []protocol.NodeID{0, 1, 2}, 66, false))
		c.Settle(60)

		if len(c.Installed[victim]) == 0 {
			t.Fatal("reborn follower never installed a snapshot")
		}
		if got := c.Installed[victim][len(c.Installed[victim])-1]; got.Index != base {
			t.Fatalf("installed at %d, want %d", got.Index, base)
		}
		cur := c.Leader()
		if cur == nil {
			t.Fatal("no unique leader after recovery")
		}
		if got, want := rep(c, victim).CommitIndex(), cur.(replica).CommitIndex(); got != want {
			t.Fatalf("victim commit %d != leader commit %d", got, want)
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestInstallOverConflictingSuffix: a deposed leader with a long
// uncommitted suffix falls behind the new leader's compaction and gets a
// snapshot whose boundary lands inside that stale suffix. The install
// must discard the conflicting suffix (keeping it would record the stale
// term at the base and every resumed append would be rejected forever —
// a permanent reject/install livelock).
func TestInstallOverConflictingSuffix(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c := v.cluster(3, 9, false)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		oldID := leader.ID()
		for i := 0; i < 5; i++ {
			c.Submit(oldID, put(uint64(i+1), "k"))
		}
		c.Settle(3)

		// The deposed leader appends a long suffix nobody sees.
		c.Isolate(oldID, true)
		c.Queue = nil
		for i := 0; i < 10; i++ {
			c.Submit(oldID, put(uint64(100+i), "stale"))
		}
		c.DeliverAll(100000)

		// A successor commits different entries over those indexes and
		// compacts into the middle of the deposed leader's stale suffix.
		succ := otherThan(c, oldID)
		c.Collect(succ, rep(c, succ).Campaign())
		c.Settle(10)
		seng := rep(c, succ)
		if !seng.IsLeader() {
			t.Fatal("no successor leader")
		}
		for i := 0; i < 15; i++ {
			c.Submit(succ, put(uint64(200+i), "new"))
		}
		c.Settle(5)
		old := rep(c, oldID)
		base := int64(10) // inside the stale suffix
		if base >= seng.CommitIndex() {
			t.Fatalf("setup: successor commit %d must cover base %d", seng.CommitIndex(), base)
		}
		if base <= 5 || base >= old.LastIndex() {
			t.Fatalf("setup: base %d must land inside the stale suffix (5, %d)", base, old.LastIndex())
		}
		ent, _ := seng.EntryAt(base)
		img := protocol.SnapshotImage{Index: base, Term: ent.Term, Data: []byte("img")}
		for id := range c.Engines {
			if id == oldID {
				continue
			}
			rep(c, id).TruncatePrefix(base)
			rep(c, id).SetSnapshotProvider(protocol.SnapshotProviderFunc(func() (protocol.SnapshotImage, bool) { return img, true }))
		}

		c.Isolate(oldID, false)
		c.Settle(60)

		if len(c.Installed[oldID]) == 0 {
			t.Fatal("deposed leader never installed the snapshot")
		}
		cur := c.Leader()
		if cur == nil {
			t.Fatal("no unique leader")
		}
		if got, want := old.CommitIndex(), cur.(replica).CommitIndex(); got != want {
			t.Fatalf("livelock: deposed leader stuck at commit %d, leader at %d", got, want)
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

func readReply(c *testcluster.Cluster, id uint64) (protocol.ClientReply, bool) {
	for _, r := range c.Replies {
		if r.CmdID == id {
			return r, true
		}
	}
	return protocol.ClientReply{}, false
}

// readIndexCluster elects a leader with ReadIndex on and commits k=v1.
func readIndexCluster(t *testing.T, v variant, seed int64) (*testcluster.Cluster, replica) {
	t.Helper()
	c := v.cluster(3, seed, true)
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	c.Submit(leader.ID(), protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v1")})
	c.Settle(5)
	return c, leader.(replica)
}

func wantRead(t *testing.T, c *testcluster.Cluster, id uint64, want string) {
	t.Helper()
	got, done := readReply(c, id)
	if !done || got.Err != nil || !bytes.Equal(got.Value, []byte(want)) {
		t.Fatalf("read %d: done=%v reply=%+v, want %q", id, done, got, want)
	}
}

// TestReadIndexServesWithoutLogGrowth is the read path itself: a leader
// read completes with the committed value after one confirmation round,
// and the log does not grow by a single entry — under either election
// rule, no-op barrier or adopted safe values.
func TestReadIndexServesWithoutLogGrowth(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c, leader := readIndexCluster(t, v, 1)
		last := leader.LastIndex()
		c.SubmitRead(leader.ID(), protocol.Command{ID: 2, Client: 900, Key: "k"})
		if _, done := readReply(c, 2); done {
			t.Fatal("read served before the confirmation round")
		}
		c.Settle(3)
		wantRead(t, c, 2, "v1")
		if got := leader.LastIndex(); got != last {
			t.Fatalf("read grew the log: %d -> %d", last, got)
		}
	})
}

// TestReadIndexFollowerForwards: a read submitted at a follower is
// forwarded to the leader, served there, and routed back — still with no
// log growth anywhere.
func TestReadIndexFollowerForwards(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c, leader := readIndexCluster(t, v, 2)
		last := leader.LastIndex()
		c.SubmitRead(otherThan(c, leader.ID()), protocol.Command{ID: 2, Client: 900, Key: "k"})
		c.Settle(3)
		wantRead(t, c, 2, "v1")
		if got := leader.LastIndex(); got != last {
			t.Fatalf("forwarded read grew the log: %d -> %d", last, got)
		}
	})
}

// TestReadIndexWaitsForElectionBarrier: a fresh leader must not serve
// reads below its log end at election — the read index is clamped up to
// it, so a read submitted the moment the election completes is served only
// once that prefix commits and applies at the new ballot, observing every
// entry the predecessor committed.
func TestReadIndexWaitsForElectionBarrier(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c, leader := readIndexCluster(t, v, 3)
		next := otherThan(c, leader.ID())
		c.Collect(next, rep(c, next).Campaign())
		c.DeliverAll(100000)
		c.SubmitRead(next, protocol.Command{ID: 2, Client: 900, Key: "k"})
		c.Settle(5)
		wantRead(t, c, 2, "v1")
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReadIndexAcrossLeaderChange: once a new leader has settled, its
// reads still observe everything the old leader committed.
func TestReadIndexAcrossLeaderChange(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		c, leader := readIndexCluster(t, v, 2)
		next := otherThan(c, leader.ID())
		c.Collect(next, rep(c, next).Campaign())
		c.Settle(5)
		c.SubmitRead(next, protocol.Command{ID: 2, Client: 900, Key: "k"})
		c.Settle(5)
		wantRead(t, c, 2, "v1")
		if err := c.CheckAgreement(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFastAcceptOverStaleLogStaysUnverified: a replica whose log diverged
// under a dead leader fast-accepts a command at the new term on top of the
// stale entries. The speculative entry carries the new leader's term, so
// the leader's next append matches it on (index, term) — speculative
// entries are not unique per (index, term) — and when the leader's own
// entry there is a no-op (command ID 0, which PrevID cannot tell from
// "unknown") only the speculation itself gives the mismatch away. The
// append must be refused: accepting it would count the stale entries below
// as verified and commit them.
func TestFastAcceptOverStaleLogStaysUnverified(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		peers := []protocol.NodeID{0, 1, 2}
		cfg := config(0, peers, 7, false)
		cfg.FastPath = true
		f := v.new(cfg)
		ent := func(i int64, term uint64, id uint64) protocol.Entry {
			return protocol.Entry{Index: i, Term: term, Bal: term, Cmd: put(id, "k")}
		}
		// A dead term-1 leader left entries 1..2 here alone.
		f.Step(2, v.req(raftstar.MsgAppendReq{Term: 1, Entries: []protocol.Entry{ent(1, 1, 11), ent(2, 1, 12)}}))
		// Term 2 arrives with a peer's fast ack; then a fast accept lands
		// at slot 3, speculative, stamped term 2.
		f.Step(1, &protocol.MsgFastAck{Term: 2})
		f.Step(2, &protocol.MsgFastAccept{Cmds: []protocol.Command{put(13, "k")}})
		if f.LastIndex() != 3 {
			t.Fatalf("log ends at %d, want the fast-accepted slot 3", f.LastIndex())
		}
		// The term-2 leader holds other commands at 1..2 and a no-op at 3,
		// all committed; its append continues from there.
		out := f.Step(1, v.req(raftstar.MsgAppendReq{
			Term: 2, PrevIndex: 3, PrevTerm: 2, PrevID: 0, Commit: 3,
			Entries: []protocol.Entry{ent(4, 2, 24)},
		}))
		for _, env := range out.Msgs {
			if r, ok := v.asResp(env.Msg); ok && r.Ok {
				t.Fatalf("append over an unverifiable speculative predecessor accepted: %+v", r)
			}
		}
		if len(out.Commits) != 0 || f.CommitIndex() != 0 {
			t.Fatalf("committed %d stale entries (commit=%d)", len(out.Commits), f.CommitIndex())
		}
	})
}
