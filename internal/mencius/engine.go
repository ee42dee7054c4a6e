package mencius

import (
	"slices"
	"sort"

	"raftpaxos/internal/protocol"
)

// ReplyPolicy selects when the slot owner answers its client, reproducing
// the paper's two Mencius workload modes.
type ReplyPolicy uint8

// Policies.
const (
	// ReplyAtCommit answers once the slot is committed and every earlier
	// slot is filled (proposal or skip known). This is the commutative /
	// 0%-conflict optimization: the operation's position is fixed and no
	// conflicting operation can precede it.
	ReplyAtCommit ReplyPolicy = iota + 1
	// ReplyAtExecute answers only when the slot is executed, i.e. the full
	// prefix is committed or skipped — required under conflicting (100%)
	// workloads, and always used for reads.
	ReplyAtExecute
)

// Config configures a coordinated replica.
type Config struct {
	ID    protocol.NodeID
	Peers []protocol.NodeID

	HeartbeatTicks int
	// RevokeTicks is how long an owner may be silent while blocking the
	// executable prefix before another replica revokes its slots.
	RevokeTicks int
	Policy      ReplyPolicy
	Seed        int64
	// DisableRevocation turns crash recovery off (benchmarks with no
	// failures avoid the timers).
	DisableRevocation bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.HeartbeatTicks <= 0 {
		out.HeartbeatTicks = 1
	}
	if out.RevokeTicks <= 0 {
		out.RevokeTicks = 50
	}
	if out.Policy == 0 {
		out.Policy = ReplyAtExecute
	}
	return out
}

type revocation struct {
	bal      uint64
	from     int64
	promises map[protocol.NodeID]*MsgRevokePromise
}

// Engine is one replica of the coordinated (Mencius-style) protocol:
// Coordinated Paxos, and Coordinated Raft* (the ported Raft*-Mencius; see
// the package comment).
type Engine struct {
	cfg Config
	n   int

	board *Board
	// tally counts the phase-2b votes of the proposals this replica made
	// (as owner, or as revoker) above the executed prefix. Its own vote
	// enters like any acceptor's, when its self-addressed ProposeOK comes
	// back durable.
	tally protocol.Votes
	// mine[slot] remembers own in-flight client commands for reply
	// tracking and post-revocation resubmission.
	mine map[int64]protocol.Command
	// owed lists, in increasing order, the own slots whose client reply has
	// not been sent yet. Each proposal takes a slot above every earlier
	// one, so propose appends.
	owed []int64

	// promisedRev[o] is the highest revocation ballot promised for owner
	// o's slots; revBal[o] the highest this replica has used as revoker.
	promisedRev []uint64
	revBal      []uint64
	revoking    map[protocol.NodeID]*revocation
	lastHeard   []int

	// redrive holds the own default-ballot proposals a restart restored
	// above the executed prefix. Only this replica counted their votes, in
	// memory, so the first Tick proposes them again.
	redrive []SlotCmd

	hbElapsed int
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a coordinated replica.
func New(cfg Config) *Engine {
	c := cfg.withDefaults()
	n := len(c.Peers)
	return &Engine{
		cfg:         c,
		n:           n,
		board:       NewBoard(c.ID, n),
		tally:       protocol.NewVotes(c.ID, c.Peers, nil),
		mine:        make(map[int64]protocol.Command),
		promisedRev: make([]uint64, n),
		revBal:      make([]uint64, n),
		revoking:    make(map[protocol.NodeID]*revocation),
		lastHeard:   make([]int, n),
	}
}

// ID implements protocol.Engine.
func (e *Engine) ID() protocol.NodeID { return e.cfg.ID }

// Leader implements protocol.Engine. Every replica leads its own slots;
// by convention we report ourselves.
func (e *Engine) Leader() protocol.NodeID { return e.cfg.ID }

// IsLeader implements protocol.Engine: every Mencius replica is a default
// leader for its slot class.
func (e *Engine) IsLeader() bool { return true }

// Board exposes the coordination state for tests and drivers.
func (e *Engine) Board() *Board { return e.board }

// --- restart restore / compaction (live-driver parity with the
// single-leader engines) ---

// Term reports the highest revocation ballot this replica has promised or
// used, under the name live drivers persist it as. Mencius has no single
// leader ballot; the revocation ballots are the only fencing state that
// must survive a restart.
func (e *Engine) Term() uint64 {
	var max uint64
	for _, b := range e.promisedRev {
		if b > max {
			max = b
		}
	}
	for _, b := range e.revBal {
		if b > max {
			max = b
		}
	}
	return max
}

// VotedFor implements protocol.Engine: Mencius elects no leader, so there
// is no vote to remember.
func (e *Engine) VotedFor() protocol.NodeID { return protocol.None }

// CommitIndex reports the executed prefix under the name live drivers
// persist it as: every slot at or below it is committed or skipped and has
// been emitted for execution.
func (e *Engine) CommitIndex() int64 { return e.board.ExecPrefix() }

// RestoreHardState primes the revocation-ballot floor from durable
// storage. The persisted term is the max ballot this replica promised any
// revoker; re-adopting it for every owner is conservative (a promise is
// only ever a refusal to ack lower ballots) and keeps a restarted replica
// from acking a revocation ballot it already promised away.
func (e *Engine) RestoreHardState(term uint64, _ protocol.NodeID) {
	for o := range e.promisedRev {
		if term > e.promisedRev[o] {
			e.promisedRev[o] = term
		}
	}
}

// RestoreSnapshot fast-forwards the board past a snapshotted prefix
// before RestoreLog delivers the tail. The log starts at the boundary:
// everything below it lives in the snapshot, so the first post-restart
// emission must not pad it with fillers.
func (e *Engine) RestoreSnapshot(index int64, _ uint64) {
	e.board.Restore(index, index, nil)
}

// RestoreLog adopts a durably logged prefix after a restart. The driver
// persists entries at accept time, so the durable log holds the executed
// prefix plus every proposal this replica accepted (and acked) beyond it.
// The board fast-forwards past the commit point — those entries are
// already applied by the driver — and re-observes the accepted tail above
// it, so a revocation after a full-cluster crash still learns values a
// quorum acknowledged before the crash (the persist-before-ack guarantee).
// Filler entries are contiguity padding for slots never accepted here and
// restore as nothing. Emission resumes at the durable log's end, even when
// commit lies past it.
func (e *Engine) RestoreLog(ents []protocol.Entry, commit int64) {
	end := e.board.log.LastIndex() // the snapshot's boundary, if any
	if len(ents) > 0 {
		end = max(end, ents[len(ents)-1].Index)
	}
	e.board.Restore(commit, end, ents)
	for _, ent := range ents {
		own := Owner(ent.Index, e.n) == e.cfg.ID && ent.Bal == 0
		if own && ent.Index > e.board.ExecPrefix() && !ent.IsFiller() {
			e.redrive = append(e.redrive, SlotCmd{Slot: ent.Index, Cmd: ent.Cmd})
		}
	}
	// Before the restart this replica may have passed over own slots up to
	// the end of its log, and its peers may have executed them as skips:
	// its next proposal goes above everything it logged, never into a slot
	// it gave away.
	e.board.AdvanceBarrier(e.cfg.ID, NextOwned(end, e.cfg.ID, e.n))
}

// TruncatePrefix implements protocol.Engine: drop the log at or below
// through (clamped to the executed prefix inside the board).
func (e *Engine) TruncatePrefix(through int64) { e.board.TruncatePrefix(through) }

// LogLen returns the number of slots held in memory (the uncompacted
// tail).
func (e *Engine) LogLen() int { return e.board.log.Len() }

// --- protocol.Engine ---

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output {
	var out protocol.Output
	if len(e.redrive) > 0 {
		e.tally.Advance(e.board.ExecPrefix())
		e.send(e.redrive, &out)
		e.redrive = nil
	}
	e.hbElapsed++
	if e.hbElapsed >= e.cfg.HeartbeatTicks {
		e.hbElapsed = 0
		hb := &MsgCoordHB{Barrier: e.board.Barrier(), Frontier: e.board.Frontier()}
		e.broadcast(&out, hb)
	}
	if !e.cfg.DisableRevocation {
		for o := range e.lastHeard {
			e.lastHeard[o]++
		}
		e.maybeRevoke(&out)
	}
	e.settle(&out)
	return out
}

// Submit implements protocol.Engine: commit each command through this
// replica's next owned slot — no forwarding, the core Mencius property.
func (e *Engine) Submit(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	for _, cmd := range cmds {
		e.propose(cmd, &out)
	}
	return out
}

// propose proposes cmd in this replica's next owned slot.
func (e *Engine) propose(cmd protocol.Command, out *protocol.Output) {
	slot := e.board.Barrier()
	e.board.AdvanceBarrier(e.cfg.ID, NextOwned(slot, e.cfg.ID, e.n))
	e.board.ObserveProposal(slot, cmd, 0)
	// Self-accept: the owner is one acceptor among n; its copy is persisted
	// like any other and votes once its self-ack proves it durable. The
	// emission also pads the skips the executed prefix may have run past:
	// a skip is never accepted anywhere and reaches the durable log only as
	// a filler.
	e.board.log.Emit(out)
	e.mine[slot] = cmd
	if cmd.Client != protocol.None {
		e.owed = append(e.owed, slot)
	}
	e.send([]SlotCmd{{Slot: slot, Cmd: cmd}}, out)
	e.settle(out)
}

// send proposes slots as their owner at the default ballot: they take
// votes, and the owner asks for its own once that decides. Sending again
// a value an acceptor holds at the same ballot is always safe, which is
// how the first Tick after a restart re-drives the restored own tail.
func (e *Engine) send(slots []SlotCmd, out *protocol.Output) {
	for _, sc := range slots {
		e.tally.Open(sc.Slot)
	}
	e.broadcast(out, &MsgPropose{
		Owner:    e.cfg.ID,
		Proposer: e.cfg.ID,
		Slots:    slots,
		Barrier:  e.board.Barrier(),
		Frontier: e.board.Frontier(),
	})
	if e.tally.Decisive(slots[len(slots)-1].Slot) {
		e.askOwnVote(out) // a lone replica's own vote is the quorum
	}
}

// SubmitRead implements protocol.Engine: reads order through the log like
// writes (and always reply at execution).
func (e *Engine) SubmitRead(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	for _, cmd := range cmds {
		cmd.Op = protocol.OpGet
		e.propose(cmd, &out)
	}
	return out
}

// Step implements protocol.Engine. A message from outside the group is
// dropped, as is one about the slots of an owner outside it (stepPropose,
// stepRevokePrep).
func (e *Engine) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	var out protocol.Output
	if !e.inGroup(from) {
		return out
	}
	if from != e.cfg.ID {
		e.lastHeard[from] = 0
	}
	switch m := msg.(type) {
	case *MsgPropose:
		e.stepPropose(from, m, &out)
	case *MsgProposeOK:
		e.stepProposeOK(from, m, &out)
	case *MsgCoordHB:
		e.board.AdvanceBarrier(from, m.Barrier)
		e.board.MergeFrontier(m.Frontier)
	case *MsgRevokePrep:
		e.stepRevokePrep(from, m, &out)
	case *MsgRevokePromise:
		e.stepRevokePromise(from, m, &out)
	}
	e.settle(&out)
	return out
}

// inGroup reports whether id names a replica of this group. The per-owner
// state is indexed by replica ID, and the wire decodes an ID as any signed
// integer.
func (e *Engine) inGroup(id protocol.NodeID) bool { return id >= 0 && int(id) < e.n }

func (e *Engine) broadcast(out *protocol.Output, msg protocol.Message) {
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: msg})
	}
}

func (e *Engine) stepPropose(from protocol.NodeID, m *MsgPropose, out *protocol.Output) {
	// Revocation fencing: proposals below the promised revocation ballot
	// for this owner are stale and must not be acknowledged.
	if !e.inGroup(m.Owner) || !e.inGroup(m.Proposer) || m.Bal < e.promisedRev[m.Owner] {
		return
	}
	var acked []int64
	maxSlot := int64(0)
	for _, sc := range m.Slots {
		if e.board.ObserveProposal(sc.Slot, sc.Cmd, m.Bal) {
			acked = append(acked, sc.Slot)
		}
		if sc.Slot > maxSlot {
			maxSlot = sc.Slot
		}
	}
	// Persist-before-ack: the accepted proposals (and any holes the log grew
	// past) are durable before the MsgProposeOK below releases — a
	// quorum-acked slot survives a full-cluster crash.
	e.board.log.Emit(out)
	// The barrier is the proposer's own announcement: a revoker proposing
	// in a silent owner's slots sends its barrier, not the owner's.
	e.board.AdvanceBarrier(m.Proposer, m.Barrier)
	e.board.MergeFrontier(m.Frontier)
	// Mencius skip rule: seeing traffic at a slot beyond our next own slot
	// means we skip our unused slots below it so the global order can
	// advance (piggybacked as our barrier in the reply).
	if maxSlot > e.board.Barrier() {
		e.board.AdvanceBarrier(e.cfg.ID, NextOwned(maxSlot, e.cfg.ID, e.n))
	}
	if len(acked) > 0 {
		out.Msgs = append(out.Msgs, protocol.Envelope{
			From: e.cfg.ID, To: m.Proposer,
			Msg: &MsgProposeOK{Bal: m.Bal, Slots: acked, Barrier: e.board.Barrier(), Frontier: e.board.Frontier()},
		})
	}
}

func (e *Engine) stepProposeOK(from protocol.NodeID, m *MsgProposeOK, out *protocol.Output) {
	e.board.AdvanceBarrier(from, m.Barrier)
	e.board.MergeFrontier(m.Frontier)
	ask := false
	for _, s := range m.Slots {
		e.tally.Ack(from, s, s)
		if e.tally.Reached(s) {
			e.tally.Shut(s)
			e.board.MarkCommitted(s)
		} else {
			ask = ask || e.tally.Decisive(s)
		}
	}
	if ask {
		e.askOwnVote(out)
	}
}

// askOwnVote asks, for every pending proposal of ours not yet covered, for
// our own ProposeOK: addressed to ourselves, handed back by the runtime once
// the round it rides is durable.
func (e *Engine) askOwnVote(out *protocol.Output) {
	slots := e.tally.ToAsk(nil)
	e.tally.Ask()
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: e.cfg.ID,
		Msg: &MsgProposeOK{Slots: slots}})
}

// settle advances frontiers, emits executable entries and any due client
// replies. It runs after every event.
func (e *Engine) settle(out *protocol.Output) {
	for o := 0; o < e.n; o++ {
		e.board.RecomputeOwnFrontier(protocol.NodeID(o))
	}
	e.board.AdvanceFilled()

	ents := e.board.AdvanceExec()
	e.tally.Advance(e.board.ExecPrefix())
	for _, ent := range ents {
		ci := protocol.CommitInfo{Entry: ent}
		if cmd, ok := e.mine[ent.Index]; ok {
			owed := e.dropOwed(ent.Index)
			if ent.Cmd.ID == cmd.ID {
				// Our value won the slot: settle any reply still owed.
				if owed {
					if cmd.Op == protocol.OpGet || e.cfg.Policy == ReplyAtExecute {
						// The driver answers after applying (reads need
						// the applied value).
						ci.Reply = true
					} else {
						out.Replies = append(out.Replies, protocol.ClientReply{
							Kind: protocol.ReplyWrite, CmdID: cmd.ID, Client: cmd.Client,
						})
					}
				}
			} else {
				// The slot was revoked to a no-op: resubmit the command in
				// a fresh slot.
				e.propose(cmd, out)
			}
			delete(e.mine, ent.Index)
		}
		out.Commits = append(out.Commits, ci)
	}

	if e.cfg.Policy == ReplyAtCommit {
		e.flushCommitReplies(out)
	}
}

// dropOwed removes slot from owed and reports whether it was there.
func (e *Engine) dropOwed(slot int64) bool {
	i, ok := slices.BinarySearch(e.owed, slot)
	if ok {
		e.owed = slices.Delete(e.owed, i, i+1)
	}
	return ok
}

// flushCommitReplies answers own writes that are committed with a fully
// filled prefix (ReplyAtCommit policy: the paper's commutative-operation
// optimization — the position is fixed and no conflicting op precedes it).
// It walks owed only up to the filled prefix, in slot order.
func (e *Engine) flushCommitReplies(out *protocol.Output) {
	filled := e.board.FilledPrefix()
	kept, i := 0, 0
	for ; i < len(e.owed) && e.owed[i] <= filled; i++ {
		s := e.owed[i]
		cmd, mineOK := e.mine[s]
		if !mineOK || cmd.Op == protocol.OpGet || !e.board.Committed(s) {
			e.owed[kept] = s // reads and uncommitted slots wait
			kept++
			continue
		}
		out.Replies = append(out.Replies, protocol.ClientReply{
			Kind: protocol.ReplyWrite, CmdID: cmd.ID, Client: cmd.Client,
		})
	}
	if kept < i {
		e.owed = append(e.owed[:kept], e.owed[i:]...)
	}
}

// --- revocation ---

// maybeRevoke starts recovery when the executable prefix is blocked on a
// silent owner.
func (e *Engine) maybeRevoke(out *protocol.Output) {
	blocked := e.board.ExecPrefix() + 1
	if blocked > e.board.MaxSlot() {
		return // nothing outstanding
	}
	o := Owner(blocked, e.n)
	if o == e.cfg.ID {
		return
	}
	if e.lastHeard[o] < e.cfg.RevokeTicks {
		return
	}
	if _, busy := e.revoking[o]; busy {
		return
	}
	bal := e.nextRevBal(o)
	e.revBal[o] = bal
	e.promisedRev[o] = bal
	out.StateChanged = true // the ballot floor (Term) fences after restart
	e.revoking[o] = &revocation{
		bal:  bal,
		from: blocked,
		promises: map[protocol.NodeID]*MsgRevokePromise{
			e.cfg.ID: e.localPromise(o, bal, blocked),
		},
	}
	e.broadcast(out, &MsgRevokePrep{Owner: o, Bal: bal, From: blocked})
}

// nextRevBal returns a revocation ballot for owner o's slots that is
// globally unique to this replica (b mod n == self) and above any seen.
func (e *Engine) nextRevBal(o protocol.NodeID) uint64 {
	n := uint64(e.n)
	cur := e.promisedRev[o]
	if e.revBal[o] > cur {
		cur = e.revBal[o]
	}
	b := (cur/n+1)*n + uint64(e.cfg.ID)
	if b <= cur {
		b += n
	}
	return b
}

func (e *Engine) localPromise(o protocol.NodeID, bal uint64, from int64) *MsgRevokePromise {
	pr := &MsgRevokePromise{Owner: o, Bal: bal, MaxSlot: e.board.MaxSlot()}
	for s := from; s <= e.board.MaxSlot(); s++ {
		if Owner(s, e.n) != o {
			continue
		}
		if p, ok := e.board.proposal(s); ok {
			pr.Props = append(pr.Props, SlotProp{Slot: s, Bal: p.Bal, Cmd: p.Cmd})
		}
	}
	return pr
}

func (e *Engine) stepRevokePrep(from protocol.NodeID, m *MsgRevokePrep, out *protocol.Output) {
	if !e.inGroup(m.Owner) || m.Bal <= e.promisedRev[m.Owner] {
		return
	}
	e.promisedRev[m.Owner] = m.Bal
	// Persist-before-ack for the promise itself: the raised ballot floor
	// must be durable before the reply releases, or a restarted replica
	// could ack a lower revocation ballot it already promised away.
	out.StateChanged = true
	if m.Owner == e.cfg.ID {
		// Our own slots are being revoked (we were presumed dead). Stop
		// proposing in the contested range; in-flight commands will be
		// resubmitted if their slots resolve to no-ops.
		e.board.AdvanceBarrier(e.cfg.ID, NextOwned(e.board.MaxSlot(), e.cfg.ID, e.n))
		return
	}
	pr := e.localPromise(m.Owner, m.Bal, m.From)
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: pr})
}

func (e *Engine) stepRevokePromise(from protocol.NodeID, m *MsgRevokePromise, out *protocol.Output) {
	rv, ok := e.revoking[m.Owner]
	if !ok || m.Bal != rv.bal {
		return
	}
	rv.promises[from] = m
	if len(rv.promises) < protocol.Quorum(e.n) {
		return
	}
	delete(e.revoking, m.Owner)

	// Phase-1 complete: re-propose the safe value (highest accepted
	// ballot) for every contested slot, no-op where nothing was accepted,
	// up to the horizon every promise has seen.
	horizon := int64(0)
	best := map[int64]SlotProp{}
	for _, pr := range rv.promises {
		if pr.MaxSlot > horizon {
			horizon = pr.MaxSlot
		}
		for _, p := range pr.Props {
			if cur, seen := best[p.Slot]; !seen || p.Bal > cur.Bal {
				best[p.Slot] = p
			}
		}
	}
	var slots []SlotCmd
	for s := rv.from; s <= horizon; s++ {
		if Owner(s, e.n) != m.Owner {
			continue
		}
		cmd := protocol.Command{Op: protocol.OpNop}
		if p, seen := best[s]; seen {
			cmd = p.Cmd
		}
		e.board.ObserveProposal(s, cmd, rv.bal)
		e.tally.Open(s) // re-opens the slot's votes, like a phase 1
		slots = append(slots, SlotCmd{Slot: s, Cmd: cmd})
	}
	if len(slots) == 0 {
		return
	}
	// The revoker self-accepts its re-proposals at the revocation ballot and
	// persists them like any acceptor.
	e.board.log.Emit(out)
	sort.Slice(slots, func(i, j int) bool { return slots[i].Slot < slots[j].Slot })
	e.broadcast(out, &MsgPropose{
		Owner:    m.Owner,
		Proposer: e.cfg.ID,
		Bal:      rv.bal,
		Slots:    slots,
		Barrier:  e.board.Barrier(),
		Frontier: e.board.Frontier(),
	})
}
