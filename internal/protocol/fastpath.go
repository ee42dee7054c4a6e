package protocol

// The Fast Paxos write path, built once at the protocol layer and shared
// by raft, raftstar, and multipaxos the way Front and CatchUp are: a
// submitter broadcasts its commands directly to every replica
// (MsgFastAccept), each replica accepts them speculatively into the next
// open slot of its own log and acks everyone (MsgFastAck — a
// BarrierMessage, so the persist-before-ack barrier covers speculative
// entries exactly like classic ones), and a command is fast-chosen the
// moment a fast quorum of ⌈3n/4⌉ replicas — the leader among them — acks
// the same command in the same slot at the same term. Conflict-free
// writes commit in one WAN round trip at the submitter instead of two
// (forward to leader + classic accept round).
//
// FastPath is that path as one component; FastHost is the little an
// engine lends it. Collisions need no separate arbitration protocol, and
// three rules keep them safe (README "Fast path semantics" has the trace
// behind each):
//
//  1. The leader is the only re-proposer. It treats every MsgFastAccept
//     as a forwarded submission and runs its classic path concurrently,
//     so a command that loses its slot anywhere still commits through the
//     leader, within ~2 classic RTTs. A replica whose copy is displaced
//     only cleans its bookkeeping (Displaced): the leader usually holds
//     the command one slot further on, and forwarding it again is a second
//     apply. A fast accept lost on its way to the leader is a lost
//     forward, and the client's timeout covers both.
//  2. The leader's read index is its last index (ReadIndex): a submitter
//     completes a write the moment it sees the fast quorum, before the
//     leader's commit index covers the slot. The leader has acked the slot
//     by then, and its own tail is classic at its term, so it commits.
//  3. The state machine applies a command ID once (kvstore): election
//     recovery can adopt a speculative copy of a command already chosen a
//     slot earlier, and no engine can see that from inside.
//
// Why ⌈3n/4⌉: any two fast quorums intersect with any classic majority in
// at least one non-faulty replica (2·⌈3n/4⌉ + ⌊n/2⌋+1 > 2n), which is
// what makes the recovery count rule in ChooseFast sound — a value
// fast-chosen at any term is the unique value that can reach the
// recovery threshold inside any vote quorum.

// FastQuorum returns ⌈3n/4⌉, the fast-path ack quorum for n replicas
// (3 of 3, 4 of 5, 6 of 7).
func FastQuorum(n int) int { return (3*n + 3) / 4 }

// FastRecoveryThreshold returns how many identical speculative reports a
// value must reach, among `participants` vote-quorum reporters out of n
// replicas, before a new leader must assume it may have been fast-chosen:
// a chosen value has ≥ FastQuorum(n) acks total, of which at most
// n-participants sit outside the quorum the leader heard from.
func FastRecoveryThreshold(participants, n int) int {
	return participants - (n - FastQuorum(n))
}

// MsgFastAccept carries a submitter's commands directly to every replica.
//
// Wire format (wire.TagFastAccept): Cmds counted — field order is frozen;
// append new fields at the end only.
type MsgFastAccept struct {
	Cmds []Command
}

// WireSize implements Message.
func (m *MsgFastAccept) WireSize() int {
	n := 8
	for i := range m.Cmds {
		n += m.Cmds[i].WireSize()
	}
	return n
}

// CmdCount implements simnet.CmdCounter.
func (m *MsgFastAccept) CmdCount() int { return len(m.Cmds) }

// MsgFastAck announces that its sender speculatively accepted the
// commands identified by IDs at the contiguous slots Base, Base+1, ...
// at Term (the sender's current term/ballot). It is broadcast to every
// replica so any of them — the submitter above all — can observe the
// fast quorum directly. Leader marks the arbiter's ack: a fast commit
// requires the leader's copy, which is what guarantees the classic path
// can never choose a different value for the slot afterwards.
//
// Wire format (wire.TagFastAck): Term, Base, IDs counted, Leader — field
// order is frozen; append new fields at the end only.
type MsgFastAck struct {
	Term   uint64
	Base   int64
	IDs    []uint64
	Leader bool
}

// WireSize implements Message.
func (m *MsgFastAck) WireSize() int { return 24 + 8*len(m.IDs) }

// CmdCount implements simnet.CmdCounter.
func (m *MsgFastAck) CmdCount() int { return len(m.IDs) }

// RequiresBarrier implements BarrierMessage: a fast ack promises the
// speculative entries it covers are durable on the sender, exactly like a
// classic append/accept ack.
func (m *MsgFastAck) RequiresBarrier() {}

// FastStats counts the fast path's outcomes on one replica. Every command
// counted in Submitted ends in exactly one of FastCommits and
// ClassicFallbacks, or never commits here at all.
type FastStats struct {
	// Submitted counts commands this replica put on the fast path.
	Submitted int64
	// FastCommits counts commands this replica committed through a fast
	// quorum (one-RTT path).
	FastCommits int64
	// ClassicFallbacks counts commands that went through the fast path but
	// committed via the classic path (collision or quorum shortfall).
	ClassicFallbacks int64
	// Conflicts counts slot collisions observed (two commands contending
	// for the same slot).
	Conflicts int64
}

// FastStatser is implemented by engines that run the fast write path.
type FastStatser interface {
	FastStats() FastStats
}

// FastHost is what an engine lends the fast path: a view of its log, and
// the four moves the Raft*/MultiPaxos mapping says differ between the
// families. (The fifth, election recovery, stays in the engine and calls
// ChooseFast.)
type FastHost struct {
	View
	HeldID func(slot int64) (id uint64, ok bool)

	// Speculate accepts cmds at the end of the log at ballot 0 — no leader
	// has accepted them — and emits them for persistence.
	Speculate func(cmds []Command, out *Output)
	// Propose is the leader's classic path for cmds, starting at the end of
	// its log (raft: append at its term and replicate; multipaxos: phase 2).
	Propose func(cmds []Command, out *Output)
	// Repair re-sends the leader's copy from slot on to a peer whose fast
	// ack named another command there.
	Repair func(peer NodeID, slot int64, out *Output)
	// Choose commits slot, the one right above the commit index.
	Choose func(slot int64, out *Output)
}

// fastWindow is how many of its own fast submissions a replica remembers.
const fastWindow = 4096

// FastPath runs the fast write path for one replica. A nil *FastPath is
// the path switched off: Stats, ReadIndex, Reset, StepAccept, Reply,
// Displaced and Forget then leave the classic answer standing, so engines
// call those unconditionally. What a step produces comes back as an Output
// of its own rather than through the caller's: the host's moves are
// indirect calls, and an Output handed through them would move every
// engine step's Output to the heap, fast path or not.
//
// Bookkeeping is bounded by the uncommitted tail plus one window. seen and
// remote name a slot: an entry goes when its command commits (Reply), when
// another command takes the slot (Displaced), or when the commit index
// passes it (Forget). mine must outlive the slot — a displaced command
// still commits through the leader, and its submitter answers it — so it
// is the newest fastWindow submissions instead: an older one that has not
// committed never reached the leader, and its client has long timed out.
type FastPath struct {
	id    NodeID
	peers []NodeID
	host  FastHost
	acks  *FastTracker
	stats FastStats

	// mine = commands this replica fast-submitted (it answers its own
	// client), recent the ring that evicts them; remote = commands the
	// leader took from others' fast accepts (the submitter replies, not the
	// arbiter); seen = slot each fast command occupies locally (replay
	// dedup); choosing = the slot TryCommit is committing right now.
	mine     map[uint64]bool
	recent   []uint64
	next     int
	remote   map[uint64]bool
	seen     map[uint64]int64
	choosing int64
}

// NewFastPath builds the fast path of replica id among peers over host.
func NewFastPath(id NodeID, peers []NodeID, host FastHost) *FastPath {
	return &FastPath{
		id: id, peers: peers, host: host,
		acks:   NewFastTracker(len(peers)),
		mine:   make(map[uint64]bool),
		recent: make([]uint64, fastWindow),
		remote: make(map[uint64]bool),
		seen:   make(map[uint64]int64),
	}
}

// Stats returns the replica's counters.
func (f *FastPath) Stats() FastStats {
	if f == nil {
		return FastStats{}
	}
	return f.stats
}

// ReadIndex is rule 2: the index a leader serves ReadIndex reads at, given
// the classic one (commit index clamped up to the election barrier).
func (f *FastPath) ReadIndex(classic int64) int64 {
	if f == nil {
		return classic
	}
	return f.host.LastIndex()
}

// Reset re-arms ack counting at a new leadership's term.
func (f *FastPath) Reset(term uint64) {
	if f != nil {
		f.acks.Reset(term)
	}
}

func (f *FastPath) broadcast(msg Message, out *Output) {
	for _, p := range f.peers {
		if p != f.id {
			out.Msgs = append(out.Msgs, Envelope{From: f.id, To: p, Msg: msg})
		}
	}
}

// Submit runs the one-RTT write path as a submitter, at a replica that
// knows a leader and is not it: broadcast the proposal to every replica,
// then accept and ack it like any of them. The entries ride the persist
// barrier like any accepted entry: our own ack counts toward the fast
// quorum, so our copy must be durable first.
func (f *FastPath) Submit(cmds []Command) Output {
	for _, cmd := range cmds {
		if old := f.recent[f.next]; old != 0 {
			delete(f.mine, old)
		}
		f.recent[f.next] = cmd.ID
		f.next = (f.next + 1) % fastWindow
		f.mine[cmd.ID] = true
	}
	f.stats.Submitted += int64(len(cmds))
	m := &MsgFastAccept{Cmds: append([]Command(nil), cmds...)}
	var out Output
	f.broadcast(m, &out)
	f.accept(m, &out)
	return out
}

// StepAccept accepts a submitter's broadcast. The leader runs its classic
// path on the commands (arbitration and fallback in one move); any other
// replica accepts them speculatively at its own log end. Replays never
// duplicate entries: a command already held is only re-acked, and only if
// its recorded slot still holds it — acking a slot we no longer hold would
// poison the quorum count.
func (f *FastPath) StepAccept(m *MsgFastAccept) Output {
	if f == nil {
		return Output{}
	}
	var out Output
	f.accept(m, &out)
	return out
}

func (f *FastPath) accept(m *MsgFastAccept, out *Output) {
	var fresh []Command
	for _, cmd := range m.Cmds {
		if slot, seen := f.seen[cmd.ID]; seen {
			if id, ok := f.host.HeldID(slot); ok && id == cmd.ID {
				f.ack(slot, []uint64{cmd.ID}, out)
			}
			continue
		}
		fresh = append(fresh, cmd)
	}
	if len(fresh) == 0 {
		return
	}
	leader := f.host.IsLeader()
	if !leader && f.host.Term() == 0 {
		return // no term yet: a fast round has no leader to arbitrate it
	}
	base := f.host.LastIndex() + 1
	ids := make([]uint64, len(fresh))
	for i, cmd := range fresh {
		ids[i] = cmd.ID
		f.seen[cmd.ID] = base + int64(i)
		if leader {
			f.remote[cmd.ID] = true
		}
	}
	if leader {
		f.host.Propose(fresh, out)
	} else {
		f.host.Speculate(fresh, out)
	}
	f.ack(base, ids, out)
}

// ack sends this replica's fast ack for ids at the contiguous slots base,
// base+1, ... to every replica, itself included. MsgFastAck is a
// BarrierMessage: the runtime holds it until the entries it covers are
// durable, and hands the self-addressed copy back only then, so our own
// vote reaches the local tracker exactly when a peer's would. That copy
// costs no sync of its own: it rides the round the broadcast already
// syncs.
func (f *FastPath) ack(base int64, ids []uint64, out *Output) {
	m := &MsgFastAck{Term: f.host.Term(), Base: base, IDs: ids, Leader: f.host.IsLeader()}
	f.broadcast(m, out)
	out.Msgs = append(out.Msgs, Envelope{From: f.id, To: f.id, Msg: m})
}

// StepAck records a replica's fast ack — a peer's, or our own handed back
// durable — and checks for a fast commit; the engine has already adopted
// the ack's term if it was higher. At the leader a peer's ack doubles as
// conflict detection: a peer acking a different command at a slot we hold
// means its speculative suffix diverged, so the leader's copy is re-sent
// from the divergence point.
func (f *FastPath) StepAck(from NodeID, m *MsgFastAck) Output {
	var out Output
	f.acks.Ack(from, m.Term, m.Base, m.IDs, m.Leader)
	if from != f.id && f.host.IsLeader() && m.Term == f.host.Term() {
		diverged := int64(0)
		for i, id := range m.IDs {
			slot := m.Base + int64(i)
			if held, ok := f.host.HeldID(slot); ok && held != id {
				f.stats.Conflicts++
				if diverged == 0 {
					diverged = slot
				}
			}
		}
		if diverged > 0 {
			f.host.Repair(from, diverged, &out)
		}
	}
	f.tryCommit(&out)
	return out
}

// TryCommit advances the commit index through contiguously fast-confirmed
// slots: a slot commits the moment a fast quorum — leader included — acked
// the command our own log holds there, at the current term. The leader's
// mandatory participation is what makes this safe: its classic copy of the
// slot can never name a different command afterwards, so the classic path
// can only re-confirm the choice. Engines call it after a classic accept
// too, which can put the confirmed command under the commit index's nose.
func (f *FastPath) TryCommit() Output {
	var out Output
	f.tryCommit(&out)
	return out
}

func (f *FastPath) tryCommit(out *Output) {
	if f.acks.Term() != f.host.Term() {
		return
	}
	for {
		slot := f.host.Commit() + 1
		id, ok := f.host.HeldID(slot)
		if !ok || !f.acks.Confirmed(slot, id) {
			return
		}
		f.choosing = slot
		f.host.Choose(slot, out)
		f.choosing = 0
		out.StateChanged = true
	}
}

// Reply routes the client reply for cmd, committing at slot, given what
// the engine would do without the fast path: the submitter answers for its
// own fast commands (it holds the client connection), the leader stays
// quiet for fast commands it took from others, and everything else is
// answered as usual.
func (f *FastPath) Reply(slot int64, cmd Command, reply bool) bool {
	if f == nil {
		return reply
	}
	switch {
	case f.mine[cmd.ID]:
		reply = cmd.Client != None
		if slot == f.choosing {
			f.stats.FastCommits++
		} else {
			f.stats.ClassicFallbacks++
		}
	case f.remote[cmd.ID]:
		reply = false
	}
	delete(f.mine, cmd.ID)
	delete(f.remote, cmd.ID)
	delete(f.seen, cmd.ID)
	return reply
}

// Displaced cleans up after the command id, whose slot the engine is
// handing to another command (rule 1: nothing is re-routed).
func (f *FastPath) Displaced(id uint64) {
	if f != nil {
		delete(f.seen, id)
		delete(f.remote, id)
	}
}

// Forget drops everything kept for slots at or below through, which are
// committed here or covered by an installed snapshot.
func (f *FastPath) Forget(through int64) {
	if f == nil {
		return
	}
	for id, slot := range f.seen {
		if slot <= through {
			delete(f.seen, id)
			delete(f.remote, id)
		}
	}
	f.acks.Forget(through)
}

// fastSlot accumulates acks for one slot at the tracker's current term.
type fastSlot struct {
	// acks[id] = the set of replicas that acked id at this slot.
	acks map[uint64]map[NodeID]bool
	// leaderID is the command the leader acked here (valid when leaderOK).
	leaderID uint64
	leaderOK bool
}

// FastTracker counts fast acks per (slot, command) at a single term. Every
// replica runs one (any of them can observe a fast commit); acks from an
// older term are ignored and a newer term resets the window, because a
// fast quorum is only meaningful when all its acks name the same term —
// mixed-term acks may disagree about the leader whose copy arbitrates.
type FastTracker struct {
	fastQuorum int
	term       uint64
	slots      map[int64]*fastSlot
}

// NewFastTracker sizes the tracker for an n-replica group.
func NewFastTracker(n int) *FastTracker {
	return &FastTracker{fastQuorum: FastQuorum(n), slots: make(map[int64]*fastSlot)}
}

// Reset discards every pending ack window and re-arms the tracker at
// term (leadership or term changes invalidate in-flight fast rounds; the
// commands themselves survive via the leader's classic repair).
func (t *FastTracker) Reset(term uint64) {
	t.term = term
	t.slots = make(map[int64]*fastSlot)
}

// Term returns the term the tracker currently counts at.
func (t *FastTracker) Term() uint64 { return t.term }

// Ack records one replica's fast ack: from accepted ids[i] at slot
// base+i at term. Acks below the tracker's term are stale and dropped;
// an ack above it resets the window to the newer term first.
func (t *FastTracker) Ack(from NodeID, term uint64, base int64, ids []uint64, leader bool) {
	if term < t.term {
		return
	}
	if term > t.term {
		t.Reset(term)
	}
	for i, id := range ids {
		slot := base + int64(i)
		s := t.slots[slot]
		if s == nil {
			s = &fastSlot{acks: make(map[uint64]map[NodeID]bool)}
			t.slots[slot] = s
		}
		set := s.acks[id]
		if set == nil {
			set = make(map[NodeID]bool)
			s.acks[id] = set
		}
		set[from] = true
		if leader {
			s.leaderID, s.leaderOK = id, true
		}
	}
}

// Confirmed reports whether (slot, id) has reached a fast quorum at the
// tracker's current term with the leader's ack among them.
func (t *FastTracker) Confirmed(slot int64, id uint64) bool {
	s := t.slots[slot]
	if s == nil || !s.leaderOK || s.leaderID != id {
		return false
	}
	return len(s.acks[id]) >= t.fastQuorum
}

// Forget drops every window at or below slot (committed: the window is
// settled and the memory reclaimable).
func (t *FastTracker) Forget(through int64) {
	for slot := range t.slots {
		if slot <= through {
			delete(t.slots, slot)
		}
	}
}

// FastReport is one vote-quorum participant's claim about a slot during
// recovery: the ballot its copy was accepted at (0 = speculative, i.e.
// fast-accepted and never ratified by a classic append) and the command.
type FastReport struct {
	Bal uint64
	Cmd Command
}

// ChooseFast picks the value a new leader must adopt for one slot from
// the reports of `participants` vote-quorum members (n = group size).
// The rule, in priority order:
//
//  1. Any ratified report (Bal > 0) wins, highest ballot first — a
//     classic accept at ballot b means the value passed the engine's own
//     phase-2, which already guarantees uniqueness per (ballot, slot).
//  2. Otherwise count identical speculative commands across ALL reports
//     regardless of the term they were accepted at: a value that reaches
//     FastRecoveryThreshold(participants, n) may have been fast-chosen
//     and must be adopted. The threshold is reachable by at most one
//     value inside any vote quorum (2·FastQuorum(n) + Quorum(n) > 2n),
//     and induction over terms — every fast quorum contains the leader
//     whose classic path ratifies what it repairs — keeps at most one
//     fast-chosen value per slot alive across terms. Filtering to the
//     newest term here would be UNSAFE: a value fast-chosen at an older
//     term can be reported by replicas that never saw the newer term's
//     speculation.
//  3. Otherwise nothing can have been chosen: adopt any report (the
//     first), preserving liveness for the command it carries.
//
// ok is false when no participant reported anything for the slot.
func ChooseFast(reports []FastReport, participants, n int) (cmd Command, ok bool) {
	if len(reports) == 0 {
		return Command{}, false
	}
	best := -1
	var bestBal uint64
	for i := range reports {
		if reports[i].Bal > 0 && (best < 0 || reports[i].Bal > bestBal) {
			best, bestBal = i, reports[i].Bal
		}
	}
	if best >= 0 {
		return reports[best].Cmd, true
	}
	counts := make(map[uint64]int, len(reports))
	for i := range reports {
		counts[reports[i].Cmd.ID]++
	}
	threshold := FastRecoveryThreshold(participants, n)
	if threshold < 1 {
		threshold = 1
	}
	for i := range reports {
		if counts[reports[i].Cmd.ID] >= threshold {
			return reports[i].Cmd, true
		}
	}
	return reports[0].Cmd, true
}
