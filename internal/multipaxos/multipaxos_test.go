package multipaxos_test

import (
	"testing"

	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/testcluster"
)

func newCluster(t *testing.T, n int, seed int64) *testcluster.Cluster {
	t.Helper()
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	engines := make([]protocol.Engine, n)
	for i := range peers {
		engines[i] = multipaxos.New(multipaxos.Config{
			ID: peers[i], Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: seed,
		})
	}
	return testcluster.New(seed, engines...)
}

func TestElectAndReplicate(t *testing.T) {
	c := newCluster(t, 3, 1)
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Submit(leader.ID(), protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(5)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Applied[leader.ID()]); got < 10 {
		t.Fatalf("leader chose %d instances, want >= 10", got)
	}
}

// TestValueRecoveryAcrossBallots: a value accepted by some acceptors under
// one leader must be adopted (never lost) by the next leader's phase 1.
func TestValueRecoveryAcrossBallots(t *testing.T) {
	c := newCluster(t, 5, 2)
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.Submit(leader.ID(), protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(5)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	committed := len(c.Applied[leader.ID()])
	if committed < 3 {
		t.Fatalf("committed=%d, want 3", committed)
	}
	c.Isolate(leader.ID(), true)
	var next protocol.Engine
	for r := 0; r < 600 && next == nil; r++ {
		c.Tick()
		c.DeliverAll(100000)
		for _, e := range c.Engines {
			if e.IsLeader() && e.ID() != leader.ID() {
				next = e
			}
		}
	}
	if next == nil {
		t.Fatal("no new leader")
	}
	c.Submit(next.ID(), protocol.Command{ID: 50, Op: protocol.OpPut, Key: "k"})
	c.Settle(15)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]bool{}
	for _, ent := range c.Applied[next.ID()] {
		ids[ent.Cmd.ID] = true
	}
	for i := uint64(1); i <= 3; i++ {
		if !ids[i] {
			t.Fatalf("chosen value %d lost across leader change", i)
		}
	}
	if !ids[50] {
		t.Fatal("new value not chosen")
	}
}

func TestForwarding(t *testing.T) {
	c := newCluster(t, 3, 3)
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	var follower protocol.NodeID = protocol.None
	for id := range c.Engines {
		if id != leader.ID() {
			follower = id
			break
		}
	}
	c.Submit(follower, protocol.Command{ID: 9, Op: protocol.OpPut, Key: "k"})
	c.Settle(5)
	found := false
	for _, ent := range c.Applied[leader.ID()] {
		if ent.Cmd.ID == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("forwarded command not chosen")
	}
}

func TestAgreementUnderChaos(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := newCluster(t, 3, 400+seed)
		leader, err := c.ElectLeader(100)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			c.Submit(leader.ID(), protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
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

func TestDuplicatedMessagesAreIdempotent(t *testing.T) {
	c := newCluster(t, 3, 5)
	c.DupRate = 0.3
	leader, err := c.ElectLeader(200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Submit(leader.ID(), protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
		c.Settle(2)
	}
	c.Settle(10)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// fixedCluster builds a cluster with explicit passivity per node, so
// tests can keep a wiped acceptor from campaigning.
func fixedCluster(t *testing.T, seed int64, passive map[protocol.NodeID]bool) *testcluster.Cluster {
	t.Helper()
	peers := []protocol.NodeID{0, 1, 2}
	engines := make([]protocol.Engine, len(peers))
	for i, p := range peers {
		engines[i] = multipaxos.New(multipaxos.Config{
			ID: p, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: seed,
			Passive: passive[p],
		})
	}
	return testcluster.New(seed, engines...)
}

// compactAndProvide truncates eng to its chosen prefix and hands it a
// provider serving an image at that boundary.
func compactAndProvide(t *testing.T, eng *multipaxos.Engine, imgSize int) protocol.SnapshotImage {
	t.Helper()
	base := eng.ChosenPrefix()
	info, ok := eng.InstanceAt(base)
	if !ok {
		t.Fatalf("no instance at chosen prefix %d", base)
	}
	img := protocol.SnapshotImage{Index: base, Term: info.Bal, Data: make([]byte, imgSize)}
	eng.TruncatePrefix(base)
	eng.SetSnapshotProvider(protocol.SnapshotProviderFunc(func() (protocol.SnapshotImage, bool) { return img, true }))
	if eng.FirstIndex() != base+1 {
		t.Fatalf("FirstIndex = %d after compaction, want %d", eng.FirstIndex(), base+1)
	}
	return img
}

// TestSnapshotTransferCatchesUpStrandedAcceptor: an acceptor that missed
// instances now buried under the leader's compaction base reports the gap
// (NeedFrom), receives the snapshot, and the leader re-sends the tail so
// execution resumes — the MultiPaxos port of Raft's InstallSnapshot plus
// next/match catch-up.
func TestSnapshotTransferCatchesUpStrandedAcceptor(t *testing.T) {
	// Node 2 is passive: a pure acceptor that never campaigns, so the
	// test exercises exactly the leader-to-acceptor direction.
	c := fixedCluster(t, 11, map[protocol.NodeID]bool{2: true})
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	leaderID := leader.ID()
	if leaderID == 2 {
		t.Fatal("passive node won the election")
	}
	for i := 0; i < 5; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	c.Isolate(2, true)
	for i := 5; i < 30; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	lead := c.Engines[leaderID].(*multipaxos.Engine)
	img := compactAndProvide(t, lead, 3*protocol.SnapshotChunkSize+9)

	c.Isolate(2, false)
	c.Settle(30)

	if len(c.Installed[2]) == 0 {
		t.Fatal("stranded acceptor never installed a snapshot")
	}
	if got := c.Installed[2][0]; got.Index != img.Index {
		t.Fatalf("installed at %d, want %d", got.Index, img.Index)
	}
	veng := c.Engines[2].(*multipaxos.Engine)
	if veng.ChosenPrefix() != lead.ChosenPrefix() {
		t.Fatalf("acceptor prefix %d != leader prefix %d", veng.ChosenPrefix(), lead.ChosenPrefix())
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	// Replication is live again: a fresh write reaches the rejoined node.
	c.Submit(leaderID, protocol.Command{ID: 999, Op: protocol.OpPut, Key: "post"})
	c.Settle(5)
	if veng.ChosenPrefix() != lead.ChosenPrefix() {
		t.Fatalf("post-install write did not reach the acceptor: %d vs %d", veng.ChosenPrefix(), lead.ChosenPrefix())
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// strandReplica elects a leader, commits a first batch everywhere,
// isolates one non-leader replica and commits more past it. Returns the
// leader and victim IDs.
func strandReplica(t *testing.T, c *testcluster.Cluster) (leaderID, victim protocol.NodeID) {
	t.Helper()
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	leaderID = leader.ID()
	for i := 0; i < 5; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	victim = protocol.NodeID(-1)
	for id := range c.Engines {
		if id != leaderID {
			victim = id
		}
	}
	c.Isolate(victim, true)
	for i := 5; i < 30; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	return leaderID, victim
}

// TestStrandedPreparerCatchesUpViaTransfer: a replica behind every peer's
// compaction base campaigns. No acceptor can report the compacted
// instances, so the preparer can only converge by installing a shipped
// snapshot — the acceptor-to-preparer direction of the ported
// InstallSnapshot.
func TestStrandedPreparerCatchesUpViaTransfer(t *testing.T) {
	c := fixedCluster(t, 12, nil)
	leaderID, victim := strandReplica(t, c)
	lead := c.Engines[leaderID].(*multipaxos.Engine)
	img := compactAndProvide(t, lead, 2*protocol.SnapshotChunkSize)
	for id, e := range c.Engines {
		if id != leaderID && id != victim {
			compactAndProvide(t, e.(*multipaxos.Engine), 2*protocol.SnapshotChunkSize)
		}
	}

	// The stranded replica rejoins and campaigns with its ancient
	// unchosen position.
	c.Isolate(victim, false)
	c.Collect(victim, c.Engines[victim].(*multipaxos.Engine).Campaign())
	c.Settle(40)

	if len(c.Installed[victim]) == 0 {
		t.Fatal("stranded preparer never installed a snapshot")
	}
	if got := c.Installed[victim][len(c.Installed[victim])-1]; got.Index != img.Index {
		t.Fatalf("installed at %d, want %d", got.Index, img.Index)
	}
	veng := c.Engines[victim].(*multipaxos.Engine)
	if veng.ChosenPrefix() < img.Index {
		t.Fatalf("preparer prefix %d did not reach the image boundary %d", veng.ChosenPrefix(), img.Index)
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	// The rejoined replica is a functional proposer: a fresh write chosen
	// under whoever leads now reaches everyone.
	cur := c.Leader()
	if cur == nil {
		t.Fatal("no unique leader after the stranded campaign")
	}
	c.Submit(cur.ID(), protocol.Command{ID: 999, Op: protocol.OpPut, Key: "post"})
	c.Settle(10)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparerDoesNotNoopOverwriteCompactedGap is the regression test for
// the silent-skip bug: a stranded preparer whose promise quorum consists
// of itself and a compacted acceptor used to fill the invisible gap with
// no-op proposals — which a third, uncompacted acceptor would then accept
// over its chosen real values. With the Base report the preparer proposes
// nothing at or below the quorum's compaction base, and the keeper's
// values survive.
func TestPreparerDoesNotNoopOverwriteCompactedGap(t *testing.T) {
	// Fixed roles: only node 0 campaigns on timeout, so it leads; node 2
	// is the stranded replica (campaigning explicitly); node 1 is the
	// keeper, a connected acceptor that never compacted. The victim's
	// prepare reaches node 0 first (broadcast order), so the promise
	// quorum is exactly {victim, compacted leader} — the configuration
	// where the old code fabricated no-ops for the invisible gap and the
	// keeper would have accepted them over its chosen real values.
	c := fixedCluster(t, 14, map[protocol.NodeID]bool{1: true, 2: true})
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	leaderID := leader.ID()
	if leaderID != 0 {
		t.Fatalf("leader = %d, want the only active node 0", leaderID)
	}
	const victim, keeper = protocol.NodeID(2), protocol.NodeID(1)
	for i := 0; i < 5; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	c.Isolate(victim, true)
	for i := 5; i < 30; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)

	// Two in-flight proposals reach nobody (keeper cut too): the leader
	// now holds unchosen instances 31..32 above its compacted prefix. A
	// preparer's phase 1 will see them reported — and the old code then
	// fabricated no-ops for every unreported instance below them, i.e.
	// the whole compacted gap 6..30.
	c.Partition(keeper, leaderID, true)
	c.Queue = nil
	c.Submit(leaderID, protocol.Command{ID: 201, Op: protocol.OpPut, Key: "inflight"})
	c.Submit(leaderID, protocol.Command{ID: 202, Op: protocol.OpPut, Key: "inflight"})
	c.DeliverAll(100000)
	c.Partition(keeper, leaderID, false)

	lead := c.Engines[leaderID].(*multipaxos.Engine)
	if lead.LastIndex() <= lead.ChosenPrefix() {
		t.Fatalf("no unchosen tail: last %d, prefix %d", lead.LastIndex(), lead.ChosenPrefix())
	}
	img := compactAndProvide(t, lead, protocol.SnapshotChunkSize/2)
	keepEng := c.Engines[keeper].(*multipaxos.Engine)
	wantCmds := map[int64]uint64{}
	for i := int64(1); i <= keepEng.ChosenPrefix(); i++ {
		if info, ok := keepEng.InstanceAt(i); ok && !info.Cmd.IsNop() {
			wantCmds[i] = info.Cmd.ID
		}
	}
	if len(wantCmds) < 25 {
		t.Fatalf("keeper holds %d real instances, want the full uncompacted log", len(wantCmds))
	}

	c.Isolate(victim, false)
	c.Collect(victim, c.Engines[victim].(*multipaxos.Engine).Campaign())
	c.Settle(40)

	if len(c.Installed[victim]) == 0 {
		t.Fatal("stranded preparer never installed a snapshot")
	}
	veng := c.Engines[victim].(*multipaxos.Engine)
	if veng.ChosenPrefix() < img.Index {
		t.Fatalf("preparer prefix %d did not reach the image boundary %d", veng.ChosenPrefix(), img.Index)
	}
	// The bugfix assertion: every chosen instance the keeper held below
	// the leader's compaction base still carries its original command —
	// no instance was overwritten by a fabricated no-op.
	for i, want := range wantCmds {
		info, ok := keepEng.InstanceAt(i)
		if !ok {
			continue // compacted locally since
		}
		if info.Cmd.ID != want || info.Cmd.IsNop() {
			t.Fatalf("instance %d was overwritten: cmd %d (nop=%v), want %d", i, info.Cmd.ID, info.Cmd.IsNop(), want)
		}
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptorCrashMidInstall wipes the receiving acceptor after it
// buffered part of an image: the torn assembly dies with it and the
// restarted transfer still converges.
func TestAcceptorCrashMidInstall(t *testing.T) {
	c := fixedCluster(t, 13, map[protocol.NodeID]bool{2: true})
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	leaderID := leader.ID()
	if leaderID == 2 {
		t.Fatal("passive node won the election")
	}
	for i := 0; i < 5; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	c.Isolate(2, true)
	for i := 5; i < 30; i++ {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	c.Settle(3)
	lead := c.Engines[leaderID].(*multipaxos.Engine)
	img := compactAndProvide(t, lead, 4*protocol.SnapshotChunkSize)
	c.Isolate(2, false)

	started := false
	for r := 0; r < 3000 && !started; r++ {
		c.Tick()
		c.DeliverAll(1)
		for _, env := range c.Queue {
			if _, ok := env.Msg.(*protocol.MsgInstallSnapshotResp); ok && env.From == 2 {
				started = true
			}
		}
	}
	if !started {
		t.Fatal("transfer never started")
	}
	if len(c.Installed[2]) != 0 {
		t.Skip("transfer completed before the crash point at this seed")
	}

	peers := []protocol.NodeID{0, 1, 2}
	c.Engines[2] = multipaxos.New(multipaxos.Config{
		ID: 2, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 77, Passive: true,
	})
	c.Settle(40)

	if len(c.Installed[2]) == 0 {
		t.Fatal("reborn acceptor never installed a snapshot")
	}
	if got := c.Installed[2][len(c.Installed[2])-1]; got.Index != img.Index {
		t.Fatalf("installed at %d, want %d", got.Index, img.Index)
	}
	veng := c.Engines[2].(*multipaxos.Engine)
	if veng.ChosenPrefix() != lead.ChosenPrefix() {
		t.Fatalf("acceptor prefix %d != leader prefix %d", veng.ChosenPrefix(), lead.ChosenPrefix())
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptTimeEmissionContiguity pins the AppendedEntries contract on an
// acceptor: accepts emit before the ack, gaps the tail grows past are
// padded with filler entries, and a later gap-filling accept re-emits the
// suffix so a store whose overwrite truncates loses nothing.
func TestAcceptTimeEmissionContiguity(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := multipaxos.New(multipaxos.Config{ID: 1, Peers: peers, Seed: 1})

	cmd := func(id uint64) protocol.Command {
		return protocol.Command{ID: id, Client: 0, Op: protocol.OpPut, Key: "k"}
	}
	// Instances 5 and 6 arrive first (1-4 were lost in flight): the
	// emission must cover 1-6, padding 1-4 as fillers, so the durable log
	// stays contiguous.
	out := e.Step(0, &multipaxos.MsgAccept{Bal: 3, Insts: []multipaxos.InstanceInfo{
		{Idx: 5, Bal: 3, Cmd: cmd(5)}, {Idx: 6, Bal: 3, Cmd: cmd(6)},
	}})
	if len(out.AppendedEntries) != 6 {
		t.Fatalf("emitted %d entries, want 6 (4 fillers + 2 accepts): %+v",
			len(out.AppendedEntries), out.AppendedEntries)
	}
	for i, ent := range out.AppendedEntries {
		if ent.Index != int64(i+1) {
			t.Fatalf("emission not contiguous at %d: %+v", i, out.AppendedEntries)
		}
		if i < 4 && !ent.IsFiller() {
			t.Fatalf("gap instance %d not a filler: %+v", ent.Index, ent)
		}
		if i >= 4 && (ent.IsFiller() || ent.Bal != 3) {
			t.Fatalf("accepted instance %d mangled: %+v", ent.Index, ent)
		}
	}
	// The ack leaves in the same output the entries rode in on.
	if len(out.Msgs) == 0 {
		t.Fatal("acceptOK missing")
	}

	// The gap-filling retransmission (NeedFrom path) lands at 1-4: the
	// emission must restate through the tail end (6), because the store's
	// overwriting append truncates the suffix.
	out = e.Step(0, &multipaxos.MsgAccept{Bal: 3, Insts: []multipaxos.InstanceInfo{
		{Idx: 1, Bal: 3, Cmd: cmd(1)}, {Idx: 2, Bal: 3, Cmd: cmd(2)},
		{Idx: 3, Bal: 3, Cmd: cmd(3)}, {Idx: 4, Bal: 3, Cmd: cmd(4)},
	}})
	if len(out.AppendedEntries) != 6 {
		t.Fatalf("gap fill emitted %d entries, want 6 (suffix restated): %+v",
			len(out.AppendedEntries), out.AppendedEntries)
	}
	for i, ent := range out.AppendedEntries {
		if ent.Index != int64(i+1) || ent.IsFiller() || ent.Cmd.ID != uint64(i+1) {
			t.Fatalf("restated suffix wrong at %d: %+v", i, ent)
		}
	}
}

// TestRestoreLogSkipsFillers proves a restart round-trips the hole state:
// fillers restore as "nothing accepted here", real instances come back
// with their ballots, and the tail length is preserved so later appends
// stay aligned with the durable log.
func TestRestoreLogSkipsFillers(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := multipaxos.New(multipaxos.Config{ID: 1, Peers: peers, Seed: 1})
	e.RestoreHardState(3, protocol.None)
	e.RestoreLog([]protocol.Entry{
		{Index: 1, Term: 3, Bal: 3, Cmd: protocol.Command{ID: 1, Op: protocol.OpPut, Key: "k"}},
		{Index: 2}, // filler: never accepted here
		{Index: 3, Term: 3, Bal: 3, Cmd: protocol.Command{ID: 3, Op: protocol.OpPut, Key: "k"}},
	}, 1)
	if e.LastIndex() != 3 {
		t.Fatalf("tail length lost: last = %d, want 3", e.LastIndex())
	}
	if _, ok := e.InstanceAt(2); ok {
		t.Fatal("filler restored as an accepted instance")
	}
	if info, ok := e.InstanceAt(3); !ok || info.Bal != 3 || info.Cmd.ID != 3 {
		t.Fatalf("real instance lost: %+v ok=%v", info, ok)
	}
	if e.ChosenPrefix() != 1 {
		t.Fatalf("chosen prefix = %d, want 1", e.ChosenPrefix())
	}
}

// TestStalePrefixAnnouncementDoesNotChooseLocalValue is the regression
// for a divergence the linearizability harness caught: an acceptor
// holding an instance accepted at an OLD ballot must not mark it chosen
// just because a newer leader's announced chosen prefix covers the index
// — the value actually chosen there may differ (the accept that would
// have replaced the stale copy was lost). The stale instance must instead
// stall the local prefix and be refetched through the NeedFrom catch-up,
// re-accepted at the announcing ballot. Reverting markChosenUpTo's ballot
// check makes this test fail with node 0 executing the unchosen value A.
func TestStalePrefixAnnouncementDoesNotChooseLocalValue(t *testing.T) {
	c := newCluster(t, 3, 9)
	// Node 0 leads first and proposes A, whose accepts reach nobody.
	c.Collect(0, c.Engines[0].(*multipaxos.Engine).Campaign())
	c.DeliverAll(100000)
	if !c.Engines[0].IsLeader() {
		t.Fatal("node 0 did not take leadership")
	}
	c.Isolate(0, true)
	c.Submit(0, protocol.Command{ID: 1, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("A")})
	c.DeliverAll(100000) // accepts for A die at the partition

	// Node 1 takes over and chooses B at the same instance.
	c.Collect(1, c.Engines[1].(*multipaxos.Engine).Campaign())
	c.DeliverAll(100000)
	if !c.Engines[1].IsLeader() {
		t.Fatal("node 1 did not take leadership")
	}
	c.Submit(1, protocol.Command{ID: 2, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("B")})
	for r := 0; r < 10; r++ {
		c.TickNode(1)
		c.TickNode(2)
		c.DeliverAll(100000)
	}

	// Heal node 0: the new leader's prefix announcement covers A's
	// instance, but node 0's stale copy of A must not execute — the
	// NeedFrom round replaces it with B first.
	c.Isolate(0, false)
	c.Settle(10)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	var got string
	for _, ent := range c.Applied[0] {
		if ent.Cmd.Key == "k" {
			got = string(ent.Cmd.Value)
			break
		}
	}
	if got != "B" {
		t.Fatalf("node 0 executed %q at the contested instance, want B", got)
	}
}

// lostAcceptRun drives seven puts through plain MultiPaxos, the second
// one's accept to one acceptor lost if lose is set, and counts the
// value-carrying accepts the whole run delivers.
func lostAcceptRun(t *testing.T, lose bool) (c *testcluster.Cluster, accepts int) {
	t.Helper()
	c = newCluster(t, 3, 10)
	c.Collect(0, c.Engines[0].(*multipaxos.Engine).Campaign())
	c.Settle(3)
	deliver := func() {
		for len(c.Queue) > 0 {
			if m, ok := c.Queue[0].Msg.(*multipaxos.MsgAccept); ok && len(m.Insts) > 0 {
				accepts++
			}
			c.DeliverAll(1)
		}
	}
	for i := uint64(1); i <= 7; i++ {
		c.Partition(0, 1, lose && i == 2)
		c.Submit(0, protocol.Command{ID: i, Client: 900, Op: protocol.OpPut, Key: "k"})
		deliver()
	}
	for r := 0; r < 10; r++ {
		c.Tick()
		deliver()
	}
	return c, accepts
}

// TestLostAcceptHoleReport: an acceptor that holds a later instance at the
// leader's ballot but not an earlier one reports the hole on the next
// heartbeat and has the run re-sent — and when no accept was lost the
// report never fires, so the steady state pays nothing for it.
func TestLostAcceptHoleReport(t *testing.T) {
	c, accepts := lostAcceptRun(t, false)
	if want := 7 * 2; accepts != want {
		t.Fatalf("%d value-carrying accepts with nothing lost, want %d (one per put and acceptor)", accepts, want)
	}
	if got := len(c.Applied[1]); got != 7 {
		t.Fatalf("acceptor applied %d of 7", got)
	}
	c, accepts = lostAcceptRun(t, true)
	if want := 7*2 + 1; accepts != want {
		t.Fatalf("%d value-carrying accepts with one lost, want %d (one re-send of the run)", accepts, want)
	}
	if got := len(c.Applied[1]); got != 7 {
		t.Fatalf("acceptor applied %d of 7 after its hole was refilled", got)
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}

// strandBehindCompaction strands acceptor 2 (passive: the other two lead)
// behind a compacted leader: a first batch is chosen everywhere, 2 is cut
// off, more is chosen past it, and the leader compacts to an image of
// imgSize bytes. tail more instances are chosen above the image. With
// alsoFollower the third replica compacts to the same image, so it can take
// over the shipment. Returns the cluster, the leader and the image.
func strandBehindCompaction(t *testing.T, seed int64, imgSize, tail int, alsoFollower bool) (*testcluster.Cluster, *multipaxos.Engine, protocol.SnapshotImage) {
	t.Helper()
	c := fixedCluster(t, seed, map[protocol.NodeID]bool{2: true})
	leader, err := c.ElectLeader(100)
	if err != nil {
		t.Fatal(err)
	}
	leaderID := leader.ID()
	put := func(i int) {
		c.Submit(leaderID, protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k"})
	}
	for i := 0; i < 5; i++ {
		put(i)
	}
	c.Settle(3)
	c.Isolate(2, true)
	for i := 5; i < 30; i++ {
		put(i)
	}
	c.Settle(3)
	lead := leader.(*multipaxos.Engine)
	img := compactAndProvide(t, lead, imgSize)
	if alsoFollower {
		other := c.Engines[1-leaderID].(*multipaxos.Engine)
		if other.ChosenPrefix() != img.Index {
			t.Fatalf("follower prefix %d, leader compacted at %d", other.ChosenPrefix(), img.Index)
		}
		compactAndProvide(t, other, imgSize)
	}
	for i := 0; i < tail; i++ {
		put(500 + i)
	}
	c.Settle(3)
	return c, lead, img
}

// TestHeartbeatsFlowDuringTransfer steps the leader directly and checks
// the two properties chunking exists for: no frame to the stranded
// acceptor ever carries more than one chunk of image data, and heartbeat
// accepts keep flowing to it while the transfer is in flight. The final
// ack must at once re-send the instances above the snapshot boundary, so
// the acceptor resumes without waiting for its next gap report.
func TestHeartbeatsFlowDuringTransfer(t *testing.T) {
	c, lead, img := strandBehindCompaction(t, 4, 4*protocol.SnapshotChunkSize, 3, false)
	const victim = protocol.NodeID(2)
	veng := c.Engines[victim].(*multipaxos.Engine)
	c.Queue = nil

	// The acceptor's gap report below the compaction base starts the
	// transfer.
	chunkTo := func(out protocol.Output) *protocol.MsgInstallSnapshot {
		var chunk *protocol.MsgInstallSnapshot
		for _, env := range out.Msgs {
			if m, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && env.To == victim {
				chunk = m
			}
		}
		return chunk
	}
	chunk := chunkTo(lead.Step(victim, &multipaxos.MsgAcceptOK{Bal: lead.Ballot(), NeedFrom: veng.ChosenPrefix() + 1}))
	if chunk == nil || chunk.Offset != 0 {
		t.Fatalf("a gap report below the base did not start a transfer: %+v", chunk)
	}

	// Mid-transfer, heartbeats still reach the acceptor and no frame
	// carries the whole image.
	hb := false
	for i := 0; i < 4; i++ {
		for _, env := range lead.Tick().Msgs {
			if env.To != victim {
				continue
			}
			if _, ok := env.Msg.(*multipaxos.MsgAccept); ok {
				hb = true
			}
			if m, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok && len(m.Data) > protocol.SnapshotChunkSize {
				t.Fatalf("frame carries %d bytes mid-transfer, cap %d", len(m.Data), protocol.SnapshotChunkSize)
			}
		}
	}
	if !hb {
		t.Fatal("no heartbeat reached the acceptor during the transfer")
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
			if vout.InstalledSnapshot == nil || vout.InstalledSnapshot.Index != img.Index {
				t.Fatalf("install output = %+v, want image at %d", vout.InstalledSnapshot, img.Index)
			}
			// The final ack re-sends the run right above the boundary.
			resumed := false
			for _, env := range lout.Msgs {
				if acc, ok := env.Msg.(*multipaxos.MsgAccept); ok && env.To == victim && len(acc.Insts) > 0 {
					resumed = true
					if acc.Insts[0].Idx != img.Index+1 {
						t.Fatalf("resumed accept starts at %d, want %d", acc.Insts[0].Idx, img.Index+1)
					}
				}
			}
			if !resumed {
				t.Fatal("leader did not re-send instances on the final install ack")
			}
			break
		}
		if chunk = chunkTo(lout); chunk == nil {
			t.Fatal("ack released no next chunk")
		}
	}
	if veng.ChosenPrefix() != img.Index {
		t.Fatalf("acceptor prefix = %d after install, want %d", veng.ChosenPrefix(), img.Index)
	}
}

// TestLeaderChangeMidTransfer cuts the leader off partway through a
// transfer: the other replica, holding the same image, takes over at a
// higher ballot, ships it again, and the stranded acceptor converges —
// its assembly resumes the identical image from the new sender.
func TestLeaderChangeMidTransfer(t *testing.T) {
	c, lead, img := strandBehindCompaction(t, 5, 4*protocol.SnapshotChunkSize, 0, true)
	const victim = protocol.NodeID(2)
	oldID := lead.ID()
	c.Isolate(victim, false)
	acked := false
	for r := 0; r < 3000 && !acked; r++ {
		c.Tick()
		c.DeliverAll(1)
		for _, env := range c.Queue {
			if _, ok := env.Msg.(*protocol.MsgInstallSnapshotResp); ok && env.From == victim {
				acked = true
			}
		}
	}
	if !acked {
		t.Fatal("transfer never started")
	}
	if len(c.Installed[victim]) != 0 {
		t.Skip("transfer completed before the fault could be injected")
	}

	c.Isolate(oldID, true)
	successor := c.Engines[1-oldID].(*multipaxos.Engine)
	c.Collect(successor.ID(), successor.Campaign())
	c.Settle(60)

	if len(c.Installed[victim]) == 0 {
		t.Fatal("acceptor never installed after the leader change")
	}
	if got := c.Installed[victim][len(c.Installed[victim])-1]; got.Index != img.Index {
		t.Fatalf("installed at %d, want %d", got.Index, img.Index)
	}
	veng := c.Engines[victim].(*multipaxos.Engine)
	if !successor.IsLeader() || veng.ChosenPrefix() != successor.ChosenPrefix() {
		t.Fatalf("no convergence under the new leader: acceptor %d, successor %d (leader=%v)",
			veng.ChosenPrefix(), successor.ChosenPrefix(), successor.IsLeader())
	}
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
}
