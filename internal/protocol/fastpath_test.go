package protocol

import "testing"

func TestFastQuorumSizes(t *testing.T) {
	cases := []struct{ n, fq int }{{3, 3}, {4, 3}, {5, 4}, {6, 5}, {7, 6}, {9, 7}}
	for _, tc := range cases {
		if got := FastQuorum(tc.n); got != tc.fq {
			t.Errorf("FastQuorum(%d) = %d, want %d", tc.n, got, tc.fq)
		}
		// Soundness: two fast quorums and one classic quorum always share
		// a replica (2·fq + q > 2n), for every cluster size the repo runs.
		if 2*FastQuorum(tc.n)+Quorum(tc.n) <= 2*tc.n {
			t.Errorf("n=%d: fast quorum %d too small for recovery soundness", tc.n, FastQuorum(tc.n))
		}
	}
}

func TestFastTrackerConfirm(t *testing.T) {
	tr := NewFastTracker(5) // fast quorum 4
	tr.Reset(3)
	tr.Ack(0, 3, 10, []uint64{77}, false)
	tr.Ack(1, 3, 10, []uint64{77}, false)
	tr.Ack(2, 3, 10, []uint64{77}, false)
	if tr.Confirmed(10, 77) {
		t.Fatal("confirmed with 3 of 4 acks and no leader ack")
	}
	tr.Ack(4, 3, 10, []uint64{77}, true) // leader's ack completes the quorum
	if !tr.Confirmed(10, 77) {
		t.Fatal("not confirmed with 4 acks including the leader")
	}
	if tr.Confirmed(10, 78) || tr.Confirmed(11, 77) {
		t.Fatal("confirmed a (slot, cmd) nobody acked")
	}
	// Duplicate acks from one replica must not double count.
	tr2 := NewFastTracker(5)
	tr2.Reset(3)
	for i := 0; i < 10; i++ {
		tr2.Ack(0, 3, 4, []uint64{9}, true)
	}
	if tr2.Confirmed(4, 9) {
		t.Fatal("one replica acking repeatedly reached the quorum")
	}
}

func TestFastTrackerLeaderArbitration(t *testing.T) {
	tr := NewFastTracker(3) // fast quorum 3: everyone
	tr.Reset(2)
	tr.Ack(0, 2, 5, []uint64{1}, false)
	tr.Ack(1, 2, 5, []uint64{1}, false)
	tr.Ack(2, 2, 5, []uint64{2}, true) // the leader acked a DIFFERENT cmd
	if tr.Confirmed(5, 1) {
		t.Fatal("confirmed against the leader's arbitration")
	}
}

func TestFastTrackerTermWindows(t *testing.T) {
	tr := NewFastTracker(3)
	tr.Reset(2)
	tr.Ack(0, 2, 1, []uint64{5}, true)
	tr.Ack(1, 2, 1, []uint64{5}, false)
	tr.Ack(2, 1, 1, []uint64{5}, false) // stale term: ignored
	if tr.Confirmed(1, 5) {
		t.Fatal("stale-term ack counted toward the quorum")
	}
	tr.Ack(2, 3, 1, []uint64{5}, false) // newer term resets the window
	if tr.Term() != 3 {
		t.Fatalf("term = %d after newer ack, want 3", tr.Term())
	}
	if tr.Confirmed(1, 5) {
		t.Fatal("acks from term 2 survived the reset to term 3")
	}
	tr.Ack(0, 3, 1, []uint64{5}, true)
	tr.Ack(1, 3, 1, []uint64{5}, false)
	if !tr.Confirmed(1, 5) {
		t.Fatal("fresh full quorum at term 3 not confirmed")
	}
	tr.Forget(1)
	if tr.Confirmed(1, 5) {
		t.Fatal("forgotten slot still confirmed")
	}
}

func TestFastTrackerBatchBase(t *testing.T) {
	tr := NewFastTracker(3)
	tr.Reset(1)
	for _, from := range []NodeID{0, 1, 2} {
		tr.Ack(from, 1, 7, []uint64{11, 12, 13}, from == 0)
	}
	for i, id := range []uint64{11, 12, 13} {
		if !tr.Confirmed(7+int64(i), id) {
			t.Fatalf("batched ack at slot %d not confirmed", 7+int64(i))
		}
	}
}

func TestChooseFastRatifiedWins(t *testing.T) {
	cmdA, cmdB := Command{ID: 1}, Command{ID: 2}
	// A ratified copy beats any number of speculative reports, and the
	// highest ballot wins among ratified ones.
	got, ok := ChooseFast([]FastReport{
		{Bal: 0, Cmd: cmdB}, {Bal: 3, Cmd: cmdA}, {Bal: 0, Cmd: cmdB}, {Bal: 5, Cmd: cmdB},
	}, 4, 5)
	if !ok || got.ID != cmdB.ID {
		t.Fatalf("adopted %d, want highest-ballot ratified %d", got.ID, cmdB.ID)
	}
}

func TestChooseFastCountRule(t *testing.T) {
	cmdA, cmdB := Command{ID: 1}, Command{ID: 2}
	// n=5, participants=3: threshold = 3 - (5-4) = 2. Two identical
	// speculative reports may have been fast-chosen; adopt them.
	got, ok := ChooseFast([]FastReport{
		{Cmd: cmdA}, {Cmd: cmdB}, {Cmd: cmdA},
	}, 3, 5)
	if !ok || got.ID != cmdA.ID {
		t.Fatalf("adopted %d, want possibly-chosen %d", got.ID, cmdA.ID)
	}
	// Below threshold everywhere: nothing was chosen, any pick is safe —
	// the rule must still return a value for liveness.
	if _, ok := ChooseFast([]FastReport{{Cmd: cmdB}}, 3, 5); !ok {
		t.Fatal("singleton report yielded nothing")
	}
	if _, ok := ChooseFast(nil, 3, 5); ok {
		t.Fatal("empty report set yielded a value")
	}
}

func TestChooseFastThresholdUnique(t *testing.T) {
	// The threshold must be unreachable by two values at once for every
	// (participants, n) a vote quorum can produce.
	for n := 3; n <= 9; n++ {
		q := Quorum(n)
		for p := q; p <= n; p++ {
			thr := FastRecoveryThreshold(p, n)
			if 2*thr <= p {
				t.Errorf("n=%d participants=%d: threshold %d reachable twice", n, p, thr)
			}
		}
	}
}

// fakeFastLog is the least an engine lends FastPath: a log of command IDs
// with a commit index, the classic path reduced to an append.
type fakeFastLog struct {
	ids      []uint64 // ids[i] is slot i+1
	commit   int64
	term     uint64
	leader   bool
	path     *FastPath
	replies  map[uint64]bool // cmd ID → Reply's verdict at commit
	repaired []int64
}

func newFakeFastLog(id NodeID, leader bool, peers ...NodeID) *fakeFastLog {
	if len(peers) == 0 {
		peers = []NodeID{0, 1, 2}
	}
	l := &fakeFastLog{term: 1, leader: leader, replies: map[uint64]bool{}}
	accept := func(cmds []Command, _ *Output) {
		for _, cmd := range cmds {
			l.ids = append(l.ids, cmd.ID)
		}
	}
	l.path = NewFastPath(id, peers, FastHost{
		Term:      func() uint64 { return l.term },
		IsLeader:  func() bool { return l.leader },
		LastIndex: func() int64 { return int64(len(l.ids)) },
		Commit:    func() int64 { return l.commit },
		HeldID: func(slot int64) (uint64, bool) {
			if slot < 1 || slot > int64(len(l.ids)) {
				return 0, false
			}
			return l.ids[slot-1], true
		},
		Speculate: accept,
		Propose:   accept,
		Repair:    func(_ NodeID, slot int64, _ *Output) { l.repaired = append(l.repaired, slot) },
		Choose:    func(slot int64, _ *Output) { l.commitThrough(slot) },
	})
	return l
}

// commitThrough commits like an engine does: Reply per slot, then Forget.
func (l *fakeFastLog) commitThrough(to int64) {
	for s := l.commit + 1; s <= to; s++ {
		id := l.ids[s-1]
		l.replies[id] = l.path.Reply(s, Command{ID: id, Client: 900}, l.leader)
	}
	l.commit = to
	l.path.Forget(to)
}

// selfAck returns the one self-addressed fast ack in out: a replica's own
// vote, which its runtime hands back once the round is durable.
func selfAck(t *testing.T, id NodeID, out Output) *MsgFastAck {
	t.Helper()
	var own *MsgFastAck
	for _, env := range out.Msgs {
		if env.To == id {
			if own != nil {
				t.Fatal("more than one self-addressed ack in one output")
			}
			own = env.Msg.(*MsgFastAck)
		}
	}
	if own == nil {
		t.Fatal("no self-addressed ack")
	}
	return own
}

// TestFastPathReplyRouting: the submitter answers its own fast command
// whichever way it commits, the arbiter stays quiet for it, and the counts
// add up — every submitted command is a fast commit or a fallback, once.
func TestFastPathReplyRouting(t *testing.T) {
	sub, lead := newFakeFastLog(1, false), newFakeFastLog(0, true)
	x, y := Command{ID: 7, Client: 900}, Command{ID: 8, Client: 900}
	own := selfAck(t, 1, sub.path.Submit([]Command{x}))
	lead.path.StepAccept(&MsgFastAccept{Cmds: []Command{x}})
	lead.path.StepAccept(&MsgFastAccept{Cmds: []Command{x}}) // replay: re-acked, not re-proposed
	if len(lead.ids) != 1 {
		t.Fatalf("leader holds %d entries after a replayed fast accept, want 1", len(lead.ids))
	}
	// Fast quorum at the submitter: the other two acks arrive first, and
	// its own completes it only once handed back durable.
	sub.path.StepAck(0, &MsgFastAck{Term: 1, Base: 1, IDs: []uint64{7}, Leader: true})
	sub.path.StepAck(2, &MsgFastAck{Term: 1, Base: 1, IDs: []uint64{7}})
	if sub.commit != 0 {
		t.Fatal("submitter committed before its own copy was durable")
	}
	sub.path.StepAck(1, own)
	if sub.commit != 1 || !sub.replies[7] {
		t.Fatalf("submitter: commit %d reply %v, want fast commit answered by the submitter", sub.commit, sub.replies[7])
	}
	lead.commitThrough(1)
	if lead.replies[7] {
		t.Fatal("the arbiter answered a command its submitter answers")
	}
	// y loses its slot at the submitter and commits classically one slot on.
	sub.path.Submit([]Command{y})
	sub.path.Displaced(8)
	sub.ids[1] = 99
	sub.ids = append(sub.ids, 8)
	sub.commitThrough(3)
	if !sub.replies[8] {
		t.Fatal("submitter did not answer its displaced command when it committed classically")
	}
	if st := sub.path.Stats(); st.Submitted != 2 || st.FastCommits != 1 || st.ClassicFallbacks != 1 {
		t.Fatalf("stats %+v, want 2 submitted = 1 fast + 1 fallback", st)
	}
	// A peer acking another command at a held slot is repaired from there.
	lead.path.StepAck(2, &MsgFastAck{Term: 1, Base: 1, IDs: []uint64{5}})
	if len(lead.repaired) != 1 || lead.repaired[0] != 1 || lead.path.Stats().Conflicts != 1 {
		t.Fatalf("repairs %v conflicts %d, want one repair from slot 1", lead.repaired, lead.path.Stats().Conflicts)
	}
	if got := lead.path.ReadIndex(0); got != 1 {
		t.Fatalf("leader read index %d, want its last index 1", got)
	}
	if got := (*FastPath)(nil).ReadIndex(5); got != 5 {
		t.Fatalf("read index with the fast path off = %d, want the classic 5", got)
	}
}

// TestFastPathSelfAckRule: every fast accept — submitted or stepped —
// yields exactly one self-addressed ack, and a replica's own vote counts
// toward the fast quorum only when that ack comes back. With five
// replicas (fast quorum 4) the other four, leader included, choose without
// it; with only three others the submitter's own durable copy decides.
func TestFastPathSelfAckRule(t *testing.T) {
	peers := []NodeID{0, 1, 2, 3, 4}
	sub := newFakeFastLog(1, false, peers...)
	others := map[NodeID]*fakeFastLog{0: newFakeFastLog(0, true, peers...)}
	for _, id := range []NodeID{2, 3, 4} {
		others[id] = newFakeFastLog(id, false, peers...)
	}
	x, y := Command{ID: 7, Client: 900}, Command{ID: 8, Client: 900}
	ackOf := func(id NodeID, cmd Command) *MsgFastAck {
		return selfAck(t, id, others[id].path.StepAccept(&MsgFastAccept{Cmds: []Command{cmd}}))
	}

	selfAck(t, 1, sub.path.Submit([]Command{x}))
	for _, id := range []NodeID{0, 2, 3, 4} {
		sub.path.StepAck(id, ackOf(id, x))
	}
	if sub.commit != 1 {
		t.Fatalf("submitter commit %d, want the four others' fast quorum to choose without its own ack", sub.commit)
	}

	own := selfAck(t, 1, sub.path.Submit([]Command{y}))
	for _, id := range []NodeID{0, 2, 3} {
		sub.path.StepAck(id, ackOf(id, y))
	}
	if sub.commit != 1 {
		t.Fatal("submitter committed on three of four fast acks")
	}
	sub.path.StepAck(1, own)
	if sub.commit != 2 {
		t.Fatalf("submitter commit %d after its own ack came back, want 2", sub.commit)
	}
}

// TestFastPathBookkeepingBounded is the submitter whose every fast accept
// is dropped: nothing it submits ever commits. What it keeps per command is
// bounded by the window for mine and by the uncommitted tail for the rest,
// and the tail's share goes when the leader's entries take the slots.
func TestFastPathBookkeepingBounded(t *testing.T) {
	sub := newFakeFastLog(1, false)
	const n = 3 * fastWindow
	for i := 1; i <= n; i++ {
		sub.path.Submit([]Command{{ID: uint64(i), Client: 900}}) // fast accepts and acks all lost
	}
	f := sub.path
	if len(f.mine) != fastWindow || !f.mine[n] || f.mine[n-fastWindow] {
		t.Fatalf("mine holds %d commands, want the newest %d", len(f.mine), fastWindow)
	}
	if len(f.seen) != n {
		t.Fatalf("seen holds %d commands for an uncommitted tail of %d", len(f.seen), n)
	}
	// The leader's log, which never held any of them, overwrites the tail
	// and commits.
	for i := range sub.ids {
		f.Displaced(sub.ids[i])
		sub.ids[i] = 0
	}
	sub.commitThrough(n)
	if len(f.seen)+len(f.remote)+len(f.acks.slots) != 0 {
		t.Fatalf("after the tail committed: seen %d remote %d ack windows %d, want 0",
			len(f.seen), len(f.remote), len(f.acks.slots))
	}
	if len(f.mine) != fastWindow {
		t.Fatalf("mine holds %d commands, want %d", len(f.mine), fastWindow)
	}
}
