package mencius_test

import (
	"testing"

	"raftpaxos/internal/mencius"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/testcluster"
)

func newCluster(t *testing.T, n int, seed int64, policy mencius.ReplyPolicy) *testcluster.Cluster {
	t.Helper()
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	engines := make([]protocol.Engine, n)
	for i := range peers {
		engines[i] = mencius.New(mencius.Config{
			ID: peers[i], Peers: peers, HeartbeatTicks: 1, RevokeTicks: 20,
			Policy: policy, Seed: seed,
		})
	}
	return testcluster.New(seed, engines...)
}

func TestOwnership(t *testing.T) {
	cases := []struct {
		slot int64
		n    int
		want protocol.NodeID
	}{
		{1, 3, 0}, {2, 3, 1}, {3, 3, 2}, {4, 3, 0}, {7, 3, 0},
		{1, 5, 0}, {5, 5, 4}, {6, 5, 0}, {12, 5, 1},
	}
	for _, tc := range cases {
		if got := mencius.Owner(tc.slot, tc.n); got != tc.want {
			t.Errorf("Owner(%d,%d) = %d, want %d", tc.slot, tc.n, got, tc.want)
		}
	}
}

func TestNextOwned(t *testing.T) {
	cases := []struct {
		after int64
		o     protocol.NodeID
		n     int
		want  int64
	}{
		{0, 0, 3, 1}, {1, 0, 3, 4}, {0, 2, 3, 3}, {3, 2, 3, 6},
		{5, 1, 5, 7}, {2, 1, 5, 7},
	}
	for _, tc := range cases {
		if got := mencius.NextOwned(tc.after, tc.o, tc.n); got != tc.want {
			t.Errorf("NextOwned(%d,%d,%d) = %d, want %d", tc.after, tc.o, tc.n, got, tc.want)
		}
	}
}

func TestEveryReplicaCommitsLocally(t *testing.T) {
	c := newCluster(t, 3, 1, mencius.ReplyAtExecute)
	// Each replica submits a command at its own site, no forwarding.
	for i := 0; i < 3; i++ {
		c.Submit(protocol.NodeID(i), protocol.Command{
			ID: uint64(i + 1), Client: 100, Op: protocol.OpPut, Key: "k",
		})
	}
	c.Settle(10)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	// All three commands must execute on all replicas, with slot ownership
	// respected (command from replica i in a slot owned by i).
	for id, app := range c.Applied {
		real := 0
		for _, ent := range app {
			if ent.Cmd.IsNop() {
				continue
			}
			real++
			if own := mencius.Owner(ent.Index, 3); own != protocol.NodeID(ent.Cmd.ID-1) {
				t.Fatalf("node %d: cmd %d executed in slot %d owned by %d",
					id, ent.Cmd.ID, ent.Index, own)
			}
		}
		if real != 3 {
			t.Fatalf("node %d executed %d real commands, want 3", id, real)
		}
	}
	// Each submitter must have replied to its client exactly once.
	replied := map[uint64]int{}
	for _, r := range c.Replies {
		replied[r.CmdID]++
	}
	for i := uint64(1); i <= 3; i++ {
		if replied[i] != 1 {
			t.Fatalf("cmd %d replied %d times, want 1", i, replied[i])
		}
	}
}

func TestSkipsUnblockUnbalancedLoad(t *testing.T) {
	// Only replica 2 submits; replicas 0 and 1 must skip their slots so
	// replica 2's entries become executable.
	c := newCluster(t, 3, 2, mencius.ReplyAtExecute)
	for i := 0; i < 5; i++ {
		c.Submit(2, protocol.Command{ID: uint64(i + 1), Client: 100, Op: protocol.OpPut, Key: "k"})
		c.Settle(2)
	}
	c.Settle(10)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	app := c.Applied[2]
	real := 0
	for _, ent := range app {
		if !ent.Cmd.IsNop() {
			real++
		}
	}
	if real != 5 {
		t.Fatalf("executed %d real commands, want 5 (skips must fill other owners' slots)", real)
	}
}

func TestReplyAtCommitAnswersBeforeFullPrefixCommit(t *testing.T) {
	c := newCluster(t, 3, 3, mencius.ReplyAtCommit)
	c.Submit(0, protocol.Command{ID: 7, Client: 100, Op: protocol.OpPut, Key: "k"})
	c.Settle(5)
	found := 0
	for _, r := range c.Replies {
		if r.CmdID == 7 && r.Kind == protocol.ReplyWrite {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("reply count = %d, want 1", found)
	}
}

func TestRevocationUnblocksAfterOwnerCrash(t *testing.T) {
	c := newCluster(t, 3, 4, mencius.ReplyAtExecute)
	// Replica 0 proposes, then is isolated before its proposal can spread
	// its commit; other replicas keep going.
	c.Submit(0, protocol.Command{ID: 1, Client: 100, Op: protocol.OpPut, Key: "k"})
	c.Settle(3)
	c.Isolate(0, true)
	// Now replica 1 proposes: its slot is after replica 0's range; with 0
	// dead, revocation must eventually fill 0's pending slots with no-ops.
	c.Submit(1, protocol.Command{ID: 2, Client: 100, Op: protocol.OpPut, Key: "k"})
	c.Settle(60)
	if err := c.CheckAgreement(); err != nil {
		t.Fatal(err)
	}
	app := c.Applied[1]
	var got []uint64
	for _, ent := range app {
		if !ent.Cmd.IsNop() {
			got = append(got, ent.Cmd.ID)
		}
	}
	found2 := false
	for _, id := range got {
		if id == 2 {
			found2 = true
		}
	}
	if !found2 {
		t.Fatalf("command 2 never executed after owner crash; executed=%v", got)
	}
}

func TestAgreementUnderShuffledDelivery(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := newCluster(t, 5, 200+seed, mencius.ReplyAtExecute)
		id := uint64(1)
		for round := 0; round < 10; round++ {
			for r := 0; r < 5; r++ {
				c.Submit(protocol.NodeID(r), protocol.Command{
					ID: id, Client: 100, Op: protocol.OpPut, Key: "k",
				})
				id++
			}
			c.Tick()
			c.DeliverShuffled(100000)
		}
		for r := 0; r < 20; r++ {
			c.Tick()
			c.DeliverShuffled(100000)
		}
		if err := c.CheckAgreement(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAcceptTimeEmission pins the coordinated engines' persist-before-ack
// contract: a proposal accepted from a peer is emitted for persistence in
// the same output as its MsgProposeOK, an own-slot submission emits its
// self-accept, and slots the contiguous emission range crosses without a
// proposal are padded as fillers.
func TestAcceptTimeEmission(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := mencius.New(mencius.Config{ID: 1, Peers: peers, HeartbeatTicks: 1, Seed: 1})

	// Peer 0 proposes in its slot 1: the accept and its ack share an output.
	out := e.Step(0, &mencius.MsgPropose{
		Owner: 0, Proposer: 0,
		Slots:   []mencius.SlotCmd{{Slot: 1, Cmd: protocol.Command{ID: 1, Client: 0, Op: protocol.OpPut, Key: "a"}}},
		Barrier: 4, Frontier: []int64{0, 0, 0},
	})
	if len(out.AppendedEntries) != 1 || out.AppendedEntries[0].Index != 1 || out.AppendedEntries[0].IsFiller() {
		t.Fatalf("accepted slot 1 not emitted before ack: %+v", out.AppendedEntries)
	}
	ackSeen := false
	for _, env := range out.Msgs {
		if _, ok := env.Msg.(*mencius.MsgProposeOK); ok {
			ackSeen = true
		}
	}
	if !ackSeen {
		t.Fatal("no MsgProposeOK for the accepted slot")
	}

	// Peer 2 proposes in slot 6, far ahead: slots 2-5 (not yet proposed
	// locally beyond slot 1) pad as fillers so the durable log stays
	// contiguous.
	out = e.Step(2, &mencius.MsgPropose{
		Owner: 2, Proposer: 2,
		Slots:   []mencius.SlotCmd{{Slot: 6, Cmd: protocol.Command{ID: 6, Client: 2, Op: protocol.OpPut, Key: "c"}}},
		Barrier: 9, Frontier: []int64{0, 0, 0},
	})
	if len(out.AppendedEntries) != 5 {
		t.Fatalf("emitted %d entries for slot 6, want 5 (fillers 2-5 + slot 6): %+v",
			len(out.AppendedEntries), out.AppendedEntries)
	}
	for i, ent := range out.AppendedEntries {
		want := int64(i + 2)
		if ent.Index != want {
			t.Fatalf("emission not contiguous: got %d want %d", ent.Index, want)
		}
		if want < 6 && !ent.IsFiller() {
			t.Fatalf("unproposed slot %d not a filler: %+v", want, ent)
		}
	}

	// An own submission (slot 5 is replica 1's next own slot after the
	// barrier advanced past 1 and 6 was seen... its barrier now sits at
	// the next owned slot): the self-accept re-emits its slot.
	out = e.Submit(protocol.Command{ID: 9, Client: 1, Op: protocol.OpPut, Key: "mine"})
	found := false
	for _, ent := range out.AppendedEntries {
		if !ent.IsFiller() && ent.Cmd.ID == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("own submission's self-accept not emitted: %+v", out.AppendedEntries)
	}
}

// TestRestoreLogReobservesAcceptedTail: after a full-cluster crash, the
// accepted-but-unexecuted suffix must come back into the board (the
// persist-before-ack guarantee is useless if restart forgets the accepted
// values a revoker might need), while fillers restore as nothing.
func TestRestoreLogReobservesAcceptedTail(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := mencius.New(mencius.Config{ID: 1, Peers: peers, HeartbeatTicks: 1, Seed: 1})
	e.RestoreLog([]protocol.Entry{
		{Index: 1, Cmd: protocol.Command{ID: 1, Client: 0, Op: protocol.OpPut, Key: "done"}},
		{Index: 2}, // filler
		{Index: 4, Term: 0, Bal: 0, Cmd: protocol.Command{ID: 4, Client: 0, Op: protocol.OpPut, Key: "pending"}},
	}, 1)
	if cmd, ok := e.Board().Proposed(4); !ok || cmd.ID != 4 {
		t.Fatalf("accepted slot 4 not re-observed after restart: %+v ok=%v", cmd, ok)
	}
	if _, ok := e.Board().Proposed(2); ok {
		t.Fatal("filler slot 2 restored as a proposal")
	}
	if _, ok := e.Board().Proposed(1); ok {
		t.Fatal("executed slot 1 re-materialized below the commit point")
	}
	if e.CommitIndex() != 1 {
		t.Fatalf("executed prefix = %d, want 1", e.CommitIndex())
	}
}

// TestRestartProposesAboveLoggedSlots: a replica that passed over its own
// slots before a restart (peers may have executed them as skips) must not
// propose into them afterwards; its next slot is above everything it
// logged, even when its saved commit point lags far behind.
func TestRestartProposesAboveLoggedSlots(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := mencius.New(mencius.Config{ID: 0, Peers: peers, HeartbeatTicks: 1, Seed: 1})
	ents := []protocol.Entry{{Index: 1, Cmd: protocol.Command{ID: 1, Op: protocol.OpPut, Key: "done"}}}
	for i := int64(2); i <= 9; i++ {
		ents = append(ents, protocol.Entry{Index: i}) // fillers: own slots 4 and 7 were skipped
	}
	e.RestoreLog(ents, 1)
	out := e.Submit(protocol.Command{ID: 2, Client: 1, Op: protocol.OpGet, Key: "k"})
	for _, env := range out.Msgs {
		if m, ok := env.Msg.(*mencius.MsgPropose); ok {
			if got := m.Slots[0].Slot; got != 10 {
				t.Fatalf("first proposal after restart in slot %d, want 10 (above the logged slots)", got)
			}
			return
		}
	}
	t.Fatal("no proposal sent")
}

// TestRestartResumesAtDurableEnd: a replica whose executed prefix ran over
// skips past the end of its durable log restarts with its commit point
// beyond the store's last index. Its next emission continues the store,
// padding the skipped slots as fillers, instead of starting above the
// commit point, a gap the store refuses on every later round.
func TestRestartResumesAtDurableEnd(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	cfg := mencius.Config{ID: 0, Peers: peers, HeartbeatTicks: 1, Seed: 1}
	st := storage.NewMem()
	persist := func(out protocol.Output) {
		t.Helper()
		if err := st.Append(out.AppendedEntries); err != nil {
			t.Fatalf("emission stream not storage-legal: %v", err)
		}
	}
	e := mencius.New(cfg)
	persist(e.Step(1, &mencius.MsgPropose{
		Owner: 1, Proposer: 1,
		Slots:   []mencius.SlotCmd{{Slot: 2, Cmd: protocol.Command{ID: 2, Client: 1, Op: protocol.OpPut, Key: "a"}}},
		Barrier: 5, Frontier: []int64{0, 2, 0},
	}))
	persist(e.Step(2, &mencius.MsgCoordHB{Barrier: 9, Frontier: []int64{0, 2, 0}}))
	last, _ := st.LastIndex()
	if e.CommitIndex() != 3 || last != 2 {
		t.Fatalf("executed prefix %d over a store ending at %d, want 3 over 2", e.CommitIndex(), last)
	}
	ents, err := st.Entries(1, last)
	if err != nil {
		t.Fatal(err)
	}
	r := mencius.New(cfg)
	r.RestoreLog(ents, e.CommitIndex())
	persist(r.Submit(protocol.Command{ID: 4, Client: 1, Op: protocol.OpPut, Key: "b"}))
	if last, _ := st.LastIndex(); last != 4 {
		t.Fatalf("store last = %d after the first proposal, want 4", last)
	}
}

// TestStepDropsOutOfGroupIDs: the wire decodes a sender and an owner as any
// signed integer, and the per-owner state is indexed by replica ID. A
// message naming a replica outside the group is dropped, not acted on.
func TestStepDropsOutOfGroupIDs(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	slots := []mencius.SlotCmd{{Slot: 2, Cmd: protocol.Command{ID: 2, Client: 1, Op: protocol.OpPut, Key: "a"}}}
	for _, tc := range []struct {
		name string
		from protocol.NodeID
		msg  protocol.Message
	}{
		{"heartbeat from past the group", 3, &mencius.MsgCoordHB{Barrier: 9, Frontier: []int64{0, 0, 0}}},
		{"heartbeat from a negative sender", -1, &mencius.MsgCoordHB{Barrier: 9, Frontier: []int64{0, 0, 0}}},
		{"ack from past the group", 3, &mencius.MsgProposeOK{Slots: []int64{1}, Barrier: 5, Frontier: []int64{0, 0, 0}}},
		{"proposal for an owner past the group", 1, &mencius.MsgPropose{Owner: 3, Proposer: 1, Slots: slots, Barrier: 5}},
		{"proposal for a negative owner", 1, &mencius.MsgPropose{Owner: -1, Proposer: 1, Slots: slots, Barrier: 5}},
		{"revocation of a negative owner", 1, &mencius.MsgRevokePrep{Owner: -1, Bal: 4, From: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mencius.New(mencius.Config{ID: 0, Peers: peers, HeartbeatTicks: 1, Seed: 1})
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Step panicked: %v", r)
				}
			}()
			out := e.Step(tc.from, tc.msg)
			if len(out.Msgs) != 0 || len(out.AppendedEntries) != 0 || out.StateChanged {
				t.Fatalf("the message was acted on: %+v", out)
			}
		})
	}
}

// TestRestartReproposesOwnTail: an own proposal restored above the commit
// point had its votes counted only in the owner's memory. The first Tick
// after the restart proposes it again, and it commits and executes.
func TestRestartReproposesOwnTail(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := mencius.New(mencius.Config{ID: 0, Peers: peers, HeartbeatTicks: 1, Seed: 1, DisableRevocation: true})
	pending := protocol.Command{ID: 4, Client: 1, Op: protocol.OpPut, Key: "pending"}
	e.RestoreLog([]protocol.Entry{
		{Index: 1, Cmd: protocol.Command{ID: 1, Op: protocol.OpPut, Key: "done"}},
		{Index: 2}, {Index: 3},
		{Index: 4, Cmd: pending},
	}, 1)
	var again *mencius.MsgPropose
	for _, env := range e.Tick().Msgs {
		if m, ok := env.Msg.(*mencius.MsgPropose); ok && env.To == 1 {
			again = m
		}
	}
	if again == nil || len(again.Slots) != 1 || again.Slots[0].Slot != 4 || again.Slots[0].Cmd.ID != pending.ID || again.Bal != 0 {
		t.Fatalf("first tick after restart proposed %+v, want slot 4 again at ballot 0", again)
	}
	// Peer 2 skips slot 3; peer 1's vote makes the owner's own decisive.
	e.Step(2, &mencius.MsgCoordHB{Barrier: 6, Frontier: []int64{0, 0, 0}})
	out := e.Step(1, &mencius.MsgProposeOK{Slots: []int64{4}, Barrier: 5, Frontier: []int64{0, 0, 0}})
	var commits []protocol.CommitInfo
	for _, env := range out.Msgs {
		if env.To == 0 {
			commits = append(commits, e.Step(0, env.Msg).Commits...)
		}
	}
	if len(commits) == 0 || commits[len(commits)-1].Entry.Index != 4 || commits[len(commits)-1].Entry.Cmd.ID != pending.ID {
		t.Fatalf("restored slot 4 did not execute after its re-proposal: %+v", commits)
	}
}

// TestEmissionCoversTrailingSkips is the regression for a gap bug: skips
// are never accepted anywhere, so when the executable prefix runs past
// the durable-log watermark over trailing skips, the next emission must
// still pad those slots as fillers — starting from the watermark, not
// from the executed prefix — or the driver's contiguous store would
// reject every subsequent append and wedge the replica with its acks
// permanently withheld. The whole emission stream is replayed into a
// real store to prove it stays storage-legal.
func TestEmissionCoversTrailingSkips(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	e := mencius.New(mencius.Config{ID: 1, Peers: peers, HeartbeatTicks: 1, Seed: 1})
	st := storage.NewMem()
	persist := func(out protocol.Output) {
		t.Helper()
		if len(out.AppendedEntries) == 0 {
			return
		}
		if err := st.Append(out.AppendedEntries); err != nil {
			t.Fatalf("emission stream not storage-legal: %v", err)
		}
	}

	// Own slot 2: emission [1 filler, 2].
	persist(e.Submit(protocol.Command{ID: 1, Client: 1, Op: protocol.OpPut, Key: "a"}))
	// A peer ack and the owner's own, handed back durable, commit slot 2.
	out := e.Step(0, &mencius.MsgProposeOK{Slots: []int64{2}, Barrier: 1, Frontier: []int64{0, 0, 0}})
	persist(out)
	for _, env := range out.Msgs {
		if env.To == 1 {
			persist(e.Step(1, env.Msg))
		}
	}
	// Peer heartbeats advance their barriers: slots 1, 3, 4 become skips
	// and the executable prefix runs to 4 — past the durable watermark.
	persist(e.Step(0, &mencius.MsgCoordHB{Barrier: 7, Frontier: []int64{0, 0, 0}}))
	persist(e.Step(2, &mencius.MsgCoordHB{Barrier: 6, Frontier: []int64{0, 0, 0}}))
	if e.CommitIndex() < 4 {
		t.Fatalf("exec prefix = %d, want >= 4 (trailing skips)", e.CommitIndex())
	}
	// The next own submission lands at slot 5: its emission must cover
	// the skipped 3 and 4 as fillers, not jump the gap.
	out = e.Submit(protocol.Command{ID: 2, Client: 1, Op: protocol.OpPut, Key: "b"})
	if len(out.AppendedEntries) < 3 || out.AppendedEntries[0].Index != 3 {
		t.Fatalf("emission after trailing skips = %+v, want to start at slot 3", out.AppendedEntries)
	}
	persist(out)
	if last, _ := st.LastIndex(); last != 5 {
		t.Fatalf("store last = %d, want 5", last)
	}
}
