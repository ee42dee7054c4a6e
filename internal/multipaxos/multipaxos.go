// Package multipaxos implements MultiPaxos per Figure 1 of the paper: one
// single-decree Paxos instance per log position, phase-1 batched over all
// unchosen instances, concurrent instances, and a stable distinguished
// leader. Instances may be chosen out of order; execution is in order.
//
// This is protocol A in the paper's porting framework: Raft* refines it,
// and the PQL and Mencius optimizations are expressed against it.
package multipaxos

import (
	"slices"

	"raftpaxos/internal/protocol"
)

// InstanceInfo is the per-instance payload of a prepareOK reply.
type InstanceInfo struct {
	Idx    int64
	Bal    uint64
	Cmd    protocol.Command
	Chosen bool
}

// Wire stability: the message types below travel the live wire through internal/wire;
// exported field ORDER is the encoded layout and is frozen. Append new
// fields at the end and bump the transport's wireVersion.
//
// MsgPrepare is Paxos phase 1a, batched from the first unchosen instance.
type MsgPrepare struct {
	Bal      uint64
	Unchosen int64
}

// WireSize implements protocol.Message.
func (m *MsgPrepare) WireSize() int { return 16 }

// MsgPrepareOK is Paxos phase 1b: the acceptor promises and reports every
// accepted instance at or above the requested position.
type MsgPrepareOK struct {
	Bal   uint64
	Insts []InstanceInfo
	// Base is the responder's compaction base: instances at or below it
	// are chosen, applied, and folded into its snapshot, so they cannot be
	// reported individually. A preparer whose unchosen position lies at or
	// below a quorum member's Base is stranded — it must not fill that gap
	// with no-op proposals (the instances are chosen with real values) and
	// instead waits for the snapshot the responder ships alongside this
	// promise.
	Base int64
}

// WireSize implements protocol.Message.
func (m *MsgPrepareOK) WireSize() int {
	n := 16
	for i := range m.Insts {
		n += 24 + m.Insts[i].Cmd.WireSize()
	}
	return n
}

// CmdCount implements simnet.CmdCounter.
func (m *MsgPrepareOK) CmdCount() int { return len(m.Insts) }

// RequiresBarrier implements protocol.BarrierMessage: a promise commits
// the acceptor to its recorded ballot.
func (m *MsgPrepareOK) RequiresBarrier() {}

// MsgAccept is Paxos phase 2a for a batch of consecutive instances, with
// the contiguous chosen prefix piggybacked.
type MsgAccept struct {
	Bal          uint64
	Insts        []InstanceInfo
	ChosenPrefix int64
	// ReadCtx is the highest open ReadIndex confirmation context at the
	// leader (0 = none); the acceptor echoes it in its acceptOK. A quorum
	// of echoes proves the leader's ballot was still the highest after the
	// reads arrived — the accept-round counterpart of Raft's heartbeat
	// confirmation (see protocol.ReadTracker).
	ReadCtx uint64
}

// WireSize implements protocol.Message.
func (m *MsgAccept) WireSize() int {
	n := 32
	for i := range m.Insts {
		n += 24 + m.Insts[i].Cmd.WireSize()
	}
	return n
}

// CmdCount implements simnet.CmdCounter.
func (m *MsgAccept) CmdCount() int { return len(m.Insts) }

// MsgAcceptOK is Paxos phase 2b for a batch of instances.
type MsgAcceptOK struct {
	Bal  uint64
	Idxs []int64
	// Holders lists replicas holding a valid lease granted by the
	// responder (PQL's modified Phase2b: Figure 11 line 16); empty unless
	// the PQL extension is active.
	Holders []protocol.NodeID
	// NeedFrom, when non-zero, is the first instance the responder is
	// missing below the leader's announced chosen prefix — a gap log
	// replay at the responder can never fill on its own, since MultiPaxos
	// has no per-peer retransmission. The leader re-sends the run of
	// instances from there, or ships its snapshot when the gap starts at
	// or below its own compaction base. This is the ported counterpart of
	// Raft's next/match catch-up plus InstallSnapshot.
	NeedFrom int64
	// ReadCtx echoes the accept's ReadIndex confirmation context: the
	// acceptor still recognized the sender's ballot as the highest when it
	// processed the accept, which is all the read path needs.
	ReadCtx uint64
}

// WireSize implements protocol.Message.
func (m *MsgAcceptOK) WireSize() int { return 32 + 8*len(m.Idxs) + 4*len(m.Holders) }

// RequiresBarrier implements protocol.BarrierMessage: a Phase2b ack
// promises the accepted instances are durable.
func (m *MsgAcceptOK) RequiresBarrier() {}

// MsgForward carries client commands from an acceptor to the leader.
type MsgForward struct {
	Cmds []protocol.Command
}

// WireSize implements protocol.Message.
func (m *MsgForward) WireSize() int {
	n := 8
	for i := range m.Cmds {
		n += m.Cmds[i].WireSize()
	}
	return n
}

// CmdCount implements simnet.CmdCounter.
func (m *MsgForward) CmdCount() int { return len(m.Cmds) }

// Config configures a MultiPaxos replica.
type Config struct {
	ID    protocol.NodeID
	Peers []protocol.NodeID

	ElectionTicks  int
	HeartbeatTicks int
	Seed           int64
	Passive        bool
	// ReadIndex enables the fast linearizable read path, ported from Raft
	// per the paper's method: the leader captures the chosen prefix as the
	// read's index, confirms its ballot is still the highest with one
	// accept-round echo, and serves the read from the state machine — no
	// instance, no fsync. Followers forward reads to the leader. Off,
	// reads replicate through the log (Section 4.4, the paper's baseline).
	ReadIndex bool
	// UnsafeSkipReadQuorum serves ReadIndex reads without the ballot
	// confirmation round (testing only: the linearizability checker's
	// sabotage regression). Never enable in a deployment.
	UnsafeSkipReadQuorum bool
	// FastPath enables the one-RTT Fast Paxos write path
	// (protocol.FastPath): a non-leader replica broadcasts submissions to
	// every replica, which accept speculatively (instance ballot 0 — no
	// proposer ran phase 2 for it) and ack everyone; ⌈3n/4⌉ matching acks
	// including the leader's choose the command without the
	// forward-to-leader round trip. Collisions fall back to the classic path
	// automatically because the leader treats every fast accept as a
	// forwarded submission.
	FastPath bool

	// Hooks are the extension points of non-mutating optimizations
	// (package lease installs PQL through them).
	Hooks protocol.Hooks
}

// maxBatch caps the instances one catch-up accept re-sends.
const maxBatch = 1024

// Engine is a single MultiPaxos replica (proposer + acceptor + learner).
type Engine struct {
	cfg   Config
	timer protocol.Timer

	ballot    uint64 // highest ballot seen (promised)
	phase1OK  bool   // phase1Succeeded: this replica may propose at ballot
	leader    protocol.NodeID
	preparing bool

	// log holds the uncompacted instance tail in global instance space: an
	// instance accepted here is an entry whose Term and Bal are the ballot it
	// was accepted at, one nothing was accepted in yet is a filler
	// (Entry.IsFiller) — the form both take in the durable log. Instances at
	// or below log.Base() are chosen, applied, and folded into a snapshot
	// (TruncatePrefix).
	log          protocol.Log
	chosenPrefix int64 // all instances <= chosenPrefix are chosen
	// ahead marks the instances above chosenPrefix known chosen already:
	// instances are chosen out of order and executed in order.
	ahead map[int64]bool

	// Phase-1 state.
	prepareOKs map[protocol.NodeID]*MsgPrepareOK

	// tally counts the acceptances of every instance this replica proposed
	// at its ballot. The leader's own enters like any acceptor's, when its
	// self-addressed acceptOK comes back durable.
	tally protocol.Votes
	// The stall clock of the oldest unchosen instance at the leader: which
	// instance, how many votes it held when the clock restarted, and the
	// ticks since (retransmit).
	stallAt    int64
	stallVotes int
	stallTicks int
	// sentHolders is the Hooks.Holders set this acceptor last attached to
	// an acceptOK.
	sentHolders []protocol.NodeID

	// front routes client writes and reads (ReadIndex at the leader);
	// catchup ships snapshot images to peers stranded behind this replica's
	// compaction base (a lagging acceptor, or a preparer whose unchosen
	// position we compacted) and assembles inbound ones.
	front   protocol.Front
	catchup protocol.CatchUp

	// fast is the shared fast write path (nil unless cfg.FastPath). A
	// speculative instance holds bal 0 until a classic accept ratifies or
	// replaces it.
	fast *protocol.FastPath
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a MultiPaxos replica.
func New(c Config) *Engine {
	e := &Engine{
		cfg:    c,
		leader: protocol.None,
		ahead:  make(map[int64]bool),
		tally:  protocol.NewVotes(c.ID, c.Peers, c.Hooks.MustAck),
	}
	view := protocol.View{Term: e.Term, IsLeader: e.IsLeader, Leader: e.Leader, LastIndex: e.LastIndex, Commit: e.CommitIndex}
	if c.FastPath {
		e.fast = protocol.NewFastPath(c.ID, c.Peers, protocol.FastHost{View: view, HeldID: e.heldID,
			Speculate: e.speculate, Propose: e.propose, Repair: e.resendInstances, Choose: e.choose})
	}
	e.front = protocol.NewFront(c.ID, len(c.Peers), c.ReadIndex, c.UnsafeSkipReadQuorum, e.fast, view, forward)
	e.catchup = protocol.NewCatchUp(c.ID)
	e.timer = protocol.NewTimer(c.Seed, c.ID, c.ElectionTicks, c.HeartbeatTicks, c.Passive)
	return e
}

// forward is the message an acceptor forwards client commands in.
func forward(cmds []protocol.Command) protocol.Message { return &MsgForward{Cmds: cmds} }

// act does the work the front hands back: a confirmation round for reads
// (an empty accept broadcast carrying their ctx), then a proposal.
func (e *Engine) act(w protocol.Work, out *protocol.Output) {
	if w.Confirm {
		e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, ChosenPrefix: e.chosenPrefix})
	}
	if w.Propose != nil {
		e.propose(w.Propose, out)
	}
}

// FastStats implements protocol.FastStatser.
func (e *Engine) FastStats() protocol.FastStats { return e.fast.Stats() }

// ID implements protocol.Engine.
func (e *Engine) ID() protocol.NodeID { return e.cfg.ID }

// Leader implements protocol.Engine.
func (e *Engine) Leader() protocol.NodeID { return e.leader }

// IsLeader implements protocol.Engine.
func (e *Engine) IsLeader() bool { return e.phase1OK }

// Ballot returns the highest ballot this replica has seen.
func (e *Engine) Ballot() uint64 { return e.ballot }

// Term reports the ballot under the name live drivers persist it as
// (MultiPaxos's promised ballot is the term analogue).
func (e *Engine) Term() uint64 { return e.ballot }

// VotedFor is always None: MultiPaxos has no vote separate from the
// promise, which is the ballot itself (see RestoreHardState).
func (e *Engine) VotedFor() protocol.NodeID { return protocol.None }

// CommitIndex reports the contiguous chosen prefix under the name live
// drivers persist it as.
func (e *Engine) CommitIndex() int64 { return e.chosenPrefix }

// RestoreHardState primes the promised ballot from durable storage so a
// restarted acceptor honours promises made before the crash. MultiPaxos
// has no separate vote: the promise is the ballot itself.
func (e *Engine) RestoreHardState(term uint64, _ protocol.NodeID) {
	if term > e.ballot {
		e.ballot = term
	}
}

// SetSnapshotProvider implements protocol.SnapshotSender: the driver
// wires its snapshot store so this replica can ship images to peers that
// fell behind its compaction base.
func (e *Engine) SetSnapshotProvider(p protocol.SnapshotProvider) { e.catchup.SetProvider(p) }

// RestoreSnapshot primes the engine at a snapshot boundary before
// RestoreLog delivers the tail: instances at or below index are chosen and
// live only in the snapshot.
func (e *Engine) RestoreSnapshot(index int64, term uint64) {
	if e.LastIndex() > 0 {
		return
	}
	e.log.Restore(index, term, nil)
	if index > e.chosenPrefix {
		e.chosenPrefix = index
	}
}

// RestoreLog adopts durably logged instances after a restart, before the
// engine processes any input; instances up to commit come back chosen and
// instances above it come back accepted-but-unchosen (the driver persists
// at accept time, so a quorum-acked suffix survives a full-cluster crash
// and is re-learned through the next leader's phase 1). Filler entries —
// contiguity padding for instances this acceptor never received — restore
// as holes, exactly the gap state the NeedFrom catch-up path refills. The
// tail continues wherever RestoreSnapshot anchored the instance space.
func (e *Engine) RestoreLog(ents []protocol.Entry, commit int64) {
	if e.log.Len() > 0 || len(ents) == 0 {
		return
	}
	for _, ent := range ents {
		if !ent.IsFiller() {
			ent.Term = ent.Bal
		}
		e.log.Put(ent) // below the snapshot boundary: already covered
	}
	if commit > e.LastIndex() {
		commit = e.LastIndex()
	}
	if commit > e.chosenPrefix {
		e.chosenPrefix = commit
	}
}

// TruncatePrefix implements protocol.Engine: drop in-memory instance state
// at or below through (clamped to the chosen prefix — unchosen instances
// may still be re-proposed and must stay).
func (e *Engine) TruncatePrefix(through int64) {
	e.log.TruncatePrefix(min(through, e.chosenPrefix))
}

// LogLen returns the number of instances held in memory (the uncompacted
// tail).
func (e *Engine) LogLen() int { return e.log.Len() }

// FirstIndex returns the lowest instance still held in memory.
func (e *Engine) FirstIndex() int64 { return e.log.FirstIndex() }

// ChosenPrefix returns the contiguous chosen (committed) prefix.
func (e *Engine) ChosenPrefix() int64 { return e.chosenPrefix }

// LastIndex returns the highest instance this replica has accepted.
func (e *Engine) LastIndex() int64 { return e.log.LastIndex() }

// InstanceAt returns (ballot, command, chosen) for instance i, if it
// accepted one; holes and compacted instances report false.
func (e *Engine) InstanceAt(i int64) (InstanceInfo, bool) {
	ent, ok := e.log.At(i)
	if !ok || ent.IsFiller() {
		return InstanceInfo{}, false
	}
	return InstanceInfo{Idx: i, Bal: ent.Bal, Cmd: ent.Cmd, Chosen: i <= e.chosenPrefix || e.ahead[i]}, true
}

// nextBallot returns the smallest ballot above cur owned by this replica
// (ballots are globally unique: b mod N identifies the proposer).
func (e *Engine) nextBallot(cur uint64) uint64 {
	n := uint64(len(e.cfg.Peers))
	b := (cur/n+1)*n + uint64(e.cfg.ID)
	if b <= cur {
		b += n
	}
	return b
}

// accept records cmd as accepted in instance i at ballot bal, growing the
// tail with holes up to it; false when i is compacted here (chosen and
// snapshotted).
func (e *Engine) accept(i int64, bal uint64, cmd protocol.Command) bool {
	return e.log.Put(protocol.Entry{Index: i, Term: bal, Bal: bal, Cmd: cmd})
}

// emitAppended queues instances [lo, LastIndex] for pre-ack persistence
// (Output.AppendedEntries), holes as fillers. The range always runs through
// the end of the held tail because the driver's store overwrites with
// suffix truncation: re-stating everything above the lowest touched
// instance keeps the durable log an exact mirror of the in-memory tail,
// holes included. In the steady state lo is yesterday's LastIndex+1 and
// this is just the new batch; only gap-filling accepts (the NeedFrom
// catch-up path) rewrite a longer suffix.
func (e *Engine) emitAppended(lo int64, out *protocol.Output) {
	for i := max(lo, e.log.FirstIndex()); i <= e.LastIndex(); i++ {
		ent, _ := e.log.At(i)
		out.AppendedEntries = append(out.AppendedEntries, ent)
	}
}

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output {
	var out protocol.Output
	due := e.timer.Tick(e.phase1OK)
	switch due {
	case protocol.Heartbeat:
		e.broadcastAccept(&out, &MsgAccept{Bal: e.ballot, ChosenPrefix: e.chosenPrefix})
	case protocol.Campaign:
		e.campaign(&out)
	}
	if e.phase1OK {
		e.retransmit(due == protocol.Heartbeat, &out)
	}
	return out
}

// retransmit clocks the oldest unchosen instance at the leader — the clock
// restarts whenever that instance changes or gains a vote — and on a
// heartbeat once it has gone an election timeout, re-sends the run from it
// to every acceptor missing from its votes. Nothing else would: heartbeats
// carry only the chosen prefix, and an acceptor reports a hole only below
// an instance it holds, so an accept lost to every peer — and every
// ReadIndex read behind it — would wait for the next write. The wait is far
// above any round trip, so a vote that is merely late never triggers it.
func (e *Engine) retransmit(beat bool, out *protocol.Output) {
	at := e.chosenPrefix + 1
	if _, n := e.tally.Holds(at, e.cfg.ID); at > e.LastIndex() || at != e.stallAt || n != e.stallVotes {
		e.stallAt, e.stallVotes, e.stallTicks = at, n, 0
		return
	}
	if e.stallTicks++; !beat || e.stallTicks < e.timer.Election() {
		return
	}
	e.stallTicks = 0
	for _, p := range e.cfg.Peers {
		if held, _ := e.tally.Holds(at, p); p != e.cfg.ID && !held {
			e.resendInstances(p, at, out)
		}
	}
}

// Campaign forces an immediate phase 1 (Phase1a).
func (e *Engine) Campaign() protocol.Output {
	var out protocol.Output
	e.campaign(&out)
	return out
}

func (e *Engine) campaign(out *protocol.Output) {
	e.ballot = e.nextBallot(e.ballot)
	e.phase1OK = false
	e.front.StepDown(out) // confirmation rounds die with the leadership
	e.preparing = true
	e.leader = protocol.None
	e.prepareOKs = map[protocol.NodeID]*MsgPrepareOK{}
	e.timer.Reset()
	out.StateChanged = true
	// Self-promise.
	e.prepareOKs[e.cfg.ID] = &MsgPrepareOK{Bal: e.ballot, Insts: e.instancesFrom(e.chosenPrefix + 1), Base: e.log.Base()}
	e.broadcast(out, &MsgPrepare{Bal: e.ballot, Unchosen: e.chosenPrefix + 1})
	if len(e.cfg.Peers) == 1 {
		e.phase1Succeed(out)
	}
}

// instancesFrom reports every instance accepted here at or above idx. The
// compacted prefix is chosen and snapshotted; only the held tail can be
// reported (a preparer that far behind needs a snapshot transfer to
// execute it anyway).
func (e *Engine) instancesFrom(idx int64) []InstanceInfo {
	var infos []InstanceInfo
	for i := max(idx, e.log.FirstIndex()); i <= e.LastIndex(); i++ {
		if info, ok := e.InstanceAt(i); ok {
			infos = append(infos, info)
		}
	}
	return infos
}

func (e *Engine) broadcast(out *protocol.Output, msg protocol.Message) {
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: msg})
	}
}

// broadcastAccept broadcasts a Phase2a message with the highest open
// ReadIndex confirmation context piggybacked: every acceptOK echoing it
// doubles as a ballot confirmation for the reads awaiting one.
func (e *Engine) broadcastAccept(out *protocol.Output, msg *MsgAccept) {
	msg.ReadCtx = e.front.ReadCtx()
	e.broadcast(out, msg)
}

// Step implements protocol.Engine.
func (e *Engine) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	var out protocol.Output
	switch m := msg.(type) {
	case *MsgPrepare:
		e.stepPrepare(from, m, &out)
	case *MsgPrepareOK:
		e.stepPrepareOK(from, m, &out)
	case *MsgAccept:
		e.stepAccept(from, m, &out)
	case *MsgAcceptOK:
		e.stepAcceptOK(from, m, &out)
	case *protocol.MsgInstallSnapshot:
		if m.Term >= e.ballot {
			e.observeBallot(m.Term, &out)
			e.timer.Reset()
		}
		if img, ok := e.catchup.Receive(from, m, e.ballot, e.chosenPrefix, &out); ok {
			e.installSnapshot(img, &out)
		}
	case *protocol.MsgInstallSnapshotResp:
		// Once installed, re-send the instance run above the boundary so
		// the receiver resumes execution without waiting for a gap report.
		if !e.observeBallot(m.Term, &out) && e.catchup.Ack(from, m, e.ballot, &out) {
			e.resendInstances(from, m.Index+1, &out)
		}
	case *MsgForward:
		e.act(e.front.Writes(m.Cmds, &out), &out)
	case *protocol.MsgReadForward:
		// The stamp is the forwarder's highest ballot seen — the paper's
		// term ≙ ballot mapping applied to the Raft family's witness rule.
		e.observeBallot(m.Term, &out)
		e.act(e.front.Forwarded(from, m, &out), &out)
	case *protocol.MsgFastAccept:
		return e.fast.StepAccept(m)
	case *protocol.MsgFastAck:
		if e.fast != nil {
			e.observeBallot(m.Term, &out)
			out.Merge(e.fast.StepAck(from, m))
		}
	}
	return out
}

// observeBallot adopts a higher ballot seen on any message: this replica's
// leadership or candidacy at the old one is over, its parked reads fail,
// and snapshot transfers (which carry the old ballot) restart on demand.
// It reports whether bal was higher.
func (e *Engine) observeBallot(bal uint64, out *protocol.Output) bool {
	if bal <= e.ballot {
		return false
	}
	e.ballot = bal
	e.phase1OK = false
	// Nobody leads the new ballot yet — least of all us, if we led the old
	// one: a stale pointer here forwards commands to ourselves.
	e.leader = protocol.None
	e.front.StepDown(out)
	e.preparing = false
	e.catchup.Drop()
	out.StateChanged = true
	return true
}

// stepPrepare is Phase1b: promise if the ballot is the highest seen.
func (e *Engine) stepPrepare(from protocol.NodeID, m *MsgPrepare, out *protocol.Output) {
	if !e.observeBallot(m.Bal, out) {
		return // stale prepare; proposer retries with a higher ballot
	}
	e.timer.Reset()
	resp := &MsgPrepareOK{Bal: m.Bal, Insts: e.instancesFrom(m.Unchosen), Base: e.log.Base()}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
	if m.Unchosen <= e.log.Base() {
		// The preparer's first unchosen instance is inside our compacted
		// prefix: nothing we report can fill it. Ship our snapshot so the
		// new leader can jump past the gap — the acceptor-to-preparer
		// direction of the ported InstallSnapshot.
		e.catchup.Send(from, e.ballot, e.FirstIndex(), out)
	}
}

// stepPrepareOK is Phase1Succeed once a quorum of promises arrives.
func (e *Engine) stepPrepareOK(from protocol.NodeID, m *MsgPrepareOK, out *protocol.Output) {
	if !e.preparing || m.Bal != e.ballot {
		return
	}
	e.prepareOKs[from] = m
	if len(e.prepareOKs) >= protocol.Quorum(len(e.cfg.Peers)) {
		e.phase1Succeed(out)
	}
}

func (e *Engine) phase1Succeed(out *protocol.Output) {
	e.preparing = false
	e.phase1OK = true
	e.leader = e.cfg.ID
	e.timer.Lead()
	out.StateChanged = true

	// Adopt the safe value (highest accepted ballot) for every instance
	// reported by the quorum; unreported gaps become no-ops — except below
	// a quorum member's compaction base, where unreported instances are
	// chosen with real values this preparer simply cannot see. Proposing
	// no-ops there could overwrite a chosen value on a straggler acceptor;
	// the gap is instead filled by the snapshot the compacted acceptor
	// ships alongside its promise.
	safe := map[int64]InstanceInfo{}
	participants := len(e.prepareOKs)
	var fastReports map[int64][]protocol.FastReport
	if e.fast != nil {
		fastReports = make(map[int64][]protocol.FastReport)
	}
	var maxIdx, maxBase int64
	// Reports in peer order: on a tie ChooseFast and the safe-value pick
	// keep the first, and map order would keep a seed from replaying.
	for _, p := range e.cfg.Peers {
		ok := e.prepareOKs[p]
		if ok == nil {
			continue
		}
		if ok.Base > maxBase {
			maxBase = ok.Base
		}
		for _, info := range ok.Insts {
			cur, seen := safe[info.Idx]
			if !seen || info.Bal > cur.Bal || (info.Chosen && !cur.Chosen) {
				safe[info.Idx] = info
			}
			if e.fast != nil {
				fastReports[info.Idx] = append(fastReports[info.Idx], protocol.FastReport{Bal: info.Bal, Cmd: info.Cmd})
			}
			if info.Idx > maxIdx {
				maxIdx = info.Idx
			}
		}
	}
	e.prepareOKs = nil

	var reproposal []InstanceInfo
	oldLast := e.LastIndex()
	firstTouched := int64(0)
	e.tally.Reset(e.chosenPrefix)
	e.stallTicks = 0
	for i := max(e.chosenPrefix, maxBase, e.log.Base()) + 1; i <= maxIdx; i++ {
		// (At or below a quorum member's compaction base the instance
		// arrives via snapshot; at or below ours it is chosen and
		// snapshotted.)
		info, ok := safe[i]
		if ok && !info.Chosen && e.fast != nil {
			// Fast-path recovery (protocol.ChooseFast) widens the safe-value
			// rule for an instance nobody reports chosen: ratified copies
			// still win by highest ballot, speculative ones by the count rule.
			info.Cmd, _ = protocol.ChooseFast(fastReports[i], participants, len(e.cfg.Peers))
		}
		held, _ := e.log.At(i)
		cmd := protocol.Command{Op: protocol.OpNop}
		switch {
		case ok:
			if !held.IsFiller() && held.Bal == 0 && held.Cmd.ID != info.Cmd.ID {
				e.fast.Displaced(held.Cmd.ID)
			}
			cmd = info.Cmd
			if info.Chosen {
				e.ahead[i] = true
			}
		case !held.IsFiller():
			cmd = held.Cmd
		}
		e.accept(i, e.ballot, cmd)
		e.tally.Open(i)
		if firstTouched == 0 {
			firstTouched = i
		}
		reproposal = append(reproposal, InstanceInfo{Idx: i, Bal: e.ballot, Cmd: cmd})
	}
	e.fast.Reset(e.ballot)
	if firstTouched > 0 {
		// The new leader self-accepts its re-proposals and persists them
		// like any acceptor. Growth past the old tail (a quorum member's
		// compaction base beyond it) emits the grown holes too, keeping the
		// durable log contiguous.
		e.emitAppended(min(firstTouched, oldLast+1), out)
	}
	if len(reproposal) > 0 && e.tally.Decisive(reproposal[0].Idx) {
		e.askOwnVote(out) // a lone replica's own vote is the quorum
	}
	// Reads wait for the phase-1 re-proposals to be chosen at this ballot.
	e.front.Elect(e.LastIndex())
	if len(reproposal) > 0 {
		e.observeAccepted(reproposal)
		e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, Insts: reproposal, ChosenPrefix: e.chosenPrefix})
	} else {
		// Announce leadership.
		e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, ChosenPrefix: e.chosenPrefix})
	}
	e.advanceChosen(out)
	e.act(e.front.Flush(out), out)
}

// Submit implements protocol.Engine (Phase2a for fresh instances): the
// whole batch becomes consecutive instances proposed in a single Phase2a
// broadcast (the batched-accept optimization the paper ports between
// protocols).
func (e *Engine) Submit(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	e.act(e.front.Writes(cmds, &out), &out)
	return out
}

// SubmitRead implements protocol.Engine: with ReadIndex enabled, the
// leader serves the batch from the state machine after one accept-round
// ballot confirmation shared by the whole batch — no instance, no fsync;
// otherwise a strongly consistent read is persisted into the log as if it
// were a write (Section 4.4 of the paper).
func (e *Engine) SubmitRead(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	e.act(e.front.Reads(cmds, protocol.None, &out), &out)
	return out
}

func (e *Engine) propose(cmds []protocol.Command, out *protocol.Output) {
	insts := make([]InstanceInfo, 0, len(cmds))
	firstNew := e.LastIndex() + 1
	for _, cmd := range cmds {
		idx := e.LastIndex() + 1
		e.accept(idx, e.ballot, cmd)
		e.tally.Open(idx)
		insts = append(insts, InstanceInfo{Idx: idx, Bal: e.ballot, Cmd: cmd})
	}
	// Self-accept: the proposer is one acceptor among n; its copy is
	// persisted like any other and votes once its self-ack proves it durable.
	e.emitAppended(firstNew, out)
	out.StateChanged = true
	e.observeAccepted(insts)
	e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, Insts: insts, ChosenPrefix: e.chosenPrefix})
	if e.tally.Decisive(firstNew) {
		e.askOwnVote(out) // a lone replica's own vote is the quorum
	}
}

// observeAccepted reports insts, now accepted locally, to Hooks.OnAccept.
func (e *Engine) observeAccepted(insts []InstanceInfo) {
	if h := e.cfg.Hooks.OnAccept; h != nil {
		for i := range insts {
			h(insts[i].Idx, insts[i].Cmd)
		}
	}
}

// stepAccept is Phase2b: accept the value if the ballot is current.
func (e *Engine) stepAccept(from protocol.NodeID, m *MsgAccept, out *protocol.Output) {
	if m.Bal < e.ballot {
		return // reject silently; sender will learn the higher ballot
	}
	e.observeBallot(m.Bal, out)
	e.leader = from
	e.timer.Reset()
	var idxs []int64
	oldLast := e.LastIndex()
	firstTouched := int64(0)
	for _, info := range m.Insts {
		held, _ := e.log.At(info.Idx)
		if !e.accept(info.Idx, m.Bal, info.Cmd) {
			continue // already chosen and compacted here: stale accept
		}
		if !held.IsFiller() && held.Bal == 0 && held.Cmd.ID != info.Cmd.ID {
			// A classic accept displaces a speculative command, which
			// reaches the log through the leader or not at all.
			e.fast.Displaced(held.Cmd.ID)
		}
		idxs = append(idxs, info.Idx)
		if firstTouched == 0 || info.Idx < firstTouched {
			firstTouched = info.Idx
		}
		out.StateChanged = true
	}
	if firstTouched > 0 {
		// Persist-before-ack (Phase2b): everything accepted this step —
		// plus any holes the tail grew past — is durable before the
		// acceptOK below releases. Gap fills below the old tail re-emit
		// the suffix so the store's truncating overwrite loses nothing.
		e.emitAppended(min(firstTouched, oldLast+1), out)
	}
	e.observeAccepted(m.Insts)
	if m.ChosenPrefix > e.chosenPrefix {
		e.markChosenUpTo(m.ChosenPrefix, m.Bal)
		e.advanceChosen(out)
	}
	// The leader's prefix ran past us and every current-ballot instance
	// below it is already marked: whatever still blocks us is an instance
	// we never received at this ballot — a hole, or a stale value whose
	// replacing accept we missed — and can never receive again by normal
	// accepts. Report the first such instance so the leader refills the
	// run, re-accepted at its ballot (or ships its snapshot when the gap
	// starts inside its compacted prefix).
	var needFrom int64
	if m.ChosenPrefix > e.chosenPrefix {
		needFrom = e.chosenPrefix + 1
	} else if len(m.Insts) == 0 {
		needFrom = e.firstHole(m.Bal)
	}
	var holders []protocol.NodeID
	if h := e.cfg.Hooks.Holders; h != nil {
		holders = h()
	}
	// A ReadCtx demands a response even when nothing was accepted: the
	// echo is the ballot confirmation the leader's parked reads wait on.
	// So does a holder set that lost a member: the leader holds our votes
	// to the last set we reported (Hooks.MustAck), heartbeats are otherwise
	// unanswered, and a lapsed lease would block its instances until the
	// next accept.
	if len(idxs) > 0 || needFrom > 0 || m.ReadCtx > 0 || lostMember(e.sentHolders, holders) {
		e.sentHolders = holders
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: &MsgAcceptOK{
			Bal: m.Bal, Idxs: idxs, NeedFrom: needFrom, ReadCtx: m.ReadCtx, Holders: holders,
		}})
	}
	if e.fast != nil {
		out.Merge(e.fast.TryCommit())
	}
	e.act(e.front.Flush(out), out)
}

// lostMember reports whether some member of was is missing from now.
func lostMember(was, now []protocol.NodeID) bool {
	for _, p := range was {
		if !slices.Contains(now, p) {
			return true
		}
	}
	return false
}

// firstHole returns the first instance above the chosen prefix that this
// acceptor does not hold at ballot bal while holding a later one at it —
// an accept that was lost while its successors arrived — or 0 when there
// is none. Checked on heartbeats (empty accepts) only, so accepts merely
// in flight behind one another are not mistaken for losses. The leader's
// prefix cannot report this gap: with Hooks.MustAck naming this acceptor
// the instance is never chosen without our ack, so the prefix stalls
// below it and every later instance stalls behind it.
func (e *Engine) firstHole(bal uint64) int64 {
	hole := int64(0)
	for i := e.chosenPrefix + 1; i <= e.LastIndex(); i++ {
		ent, _ := e.log.At(i)
		held := !ent.IsFiller() && ent.Bal == bal
		if !held && hole == 0 {
			hole = i
		} else if held && hole > 0 {
			return hole
		}
	}
	return 0
}

// markChosenUpTo marks held instances at or below the leader's announced
// chosen prefix — but ONLY those accepted at the announcing ballot. A
// held instance from an older ballot may differ from the value actually
// chosen (its replacing accept may have been lost), and blindly marking
// it would execute an unchosen value: exactly the divergence the
// linearizability harness caught. Stale instances instead stall the
// local prefix, and the NeedFrom report below fetches the real run.
func (e *Engine) markChosenUpTo(p int64, bal uint64) {
	for i := e.chosenPrefix + 1; i <= p && i <= e.LastIndex(); i++ {
		if ent, _ := e.log.At(i); !ent.IsFiller() && ent.Bal == bal {
			e.ahead[i] = true
		}
	}
}

// stepAcceptOK is Learn: an instance is chosen once a quorum of acceptors
// voted for it at the same ballot, counted by tally. Paxos has no log
// matching: an acceptor's ack of a later instance says nothing about an
// earlier one, whose accept may have been lost, so every instance counts
// its own votes.
func (e *Engine) stepAcceptOK(from protocol.NodeID, m *MsgAcceptOK, out *protocol.Output) {
	if !e.phase1OK || m.Bal != e.ballot {
		return
	}
	if from != e.cfg.ID { // our own acceptOK carries only the vote
		e.front.Echo(from, m.ReadCtx, out)
		if h := e.cfg.Hooks.OnAck; h != nil {
			h(from, m.Holders)
		}
	}
	ask := false
	for _, idx := range m.Idxs {
		e.tally.Ack(from, idx, idx)
		if e.tally.Reached(idx) {
			e.chosen(idx)
		} else {
			ask = ask || e.tally.Decisive(idx)
		}
	}
	if ask {
		e.askOwnVote(out)
	}
	e.advanceChosen(out)
	if m.NeedFrom > 0 {
		if m.NeedFrom <= e.log.Base() {
			// The acceptor's gap starts inside our compacted prefix: only
			// the snapshot image can carry it there.
			e.catchup.Send(from, e.ballot, e.FirstIndex(), out)
		} else {
			e.resendInstances(from, m.NeedFrom, out)
		}
	}
}

// chosen records that the leader's votes chose instance i.
func (e *Engine) chosen(i int64) {
	e.tally.Shut(i)
	e.ahead[i] = true
}

// resendInstances re-sends the run of held instances starting at lo to
// one lagging acceptor — the catch-up retransmission MultiPaxos lacks
// natively and Raft gets from next/match. Values already chosen are
// simply re-accepted at the current ballot; the piggybacked prefix lets
// the receiver mark and execute them.
func (e *Engine) resendInstances(p protocol.NodeID, lo int64, out *protocol.Output) {
	if !e.phase1OK || lo <= e.log.Base() {
		return
	}
	var insts []InstanceInfo
	for i := lo; i <= min(e.LastIndex(), lo-1+maxBatch); i++ {
		if ent, _ := e.log.At(i); !ent.IsFiller() {
			insts = append(insts, InstanceInfo{Idx: i, Bal: e.ballot, Cmd: ent.Cmd})
		}
	}
	if len(insts) == 0 {
		return
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{
		From: e.cfg.ID, To: p,
		Msg: &MsgAccept{Bal: e.ballot, Insts: insts, ChosenPrefix: e.chosenPrefix},
	})
}

// installSnapshot adopts a fully assembled image: every instance at or
// below its index is chosen and lives in the image, so the instance space
// re-anchors there (keeping any held suffix beyond it) and the driver
// persists the image before applying anything above it.
func (e *Engine) installSnapshot(img protocol.SnapshotImage, out *protocol.Output) {
	if img.Index < e.LastIndex() {
		e.log.TruncatePrefix(img.Index)
	} else {
		e.log.Restore(img.Index, img.Term, nil)
	}
	e.chosenPrefix = img.Index
	for i := range e.ahead {
		if i <= img.Index {
			delete(e.ahead, i)
		}
	}
	e.tally.Advance(img.Index)
	e.fast.Forget(img.Index)
	out.StateChanged = true
	out.InstalledSnapshot = &img
	e.advanceChosen(out)
}

// askOwnVote asks, for every instance this ballot accepted and has not asked
// for yet, for the leader's own acceptOK: addressed to itself, handed back
// by the runtime once the round it rides is durable.
func (e *Engine) askOwnVote(out *protocol.Output) {
	own := e.tally.ToAsk(nil)
	e.tally.Ask()
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: e.cfg.ID,
		Msg: &MsgAcceptOK{Bal: e.ballot, Idxs: own}})
}

// Recheck re-evaluates every unchosen instance without new input: what
// Hooks.MustAck names shrinks as leases expire, which may unblock
// instances that were waiting on a dead holder.
func (e *Engine) Recheck() protocol.Output {
	var out protocol.Output
	reached, ask := e.tally.Recheck(nil)
	for _, i := range reached {
		e.chosen(i)
	}
	if ask && e.phase1OK {
		e.askOwnVote(&out)
	}
	e.advanceChosen(&out)
	return out
}

// advanceChosen extends the contiguous chosen prefix and emits commits in
// execution order.
func (e *Engine) advanceChosen(out *protocol.Output) {
	moved := false
	for e.chosenPrefix < e.LastIndex() {
		ent, _ := e.log.At(e.chosenPrefix + 1)
		if ent.IsFiller() || !e.ahead[ent.Index] {
			break
		}
		delete(e.ahead, ent.Index)
		e.chosenPrefix++
		moved = true
		out.Commits = append(out.Commits, protocol.CommitInfo{
			Entry: ent,
			Reply: e.fast.Reply(e.chosenPrefix, ent.Cmd, e.phase1OK && ent.Cmd.Client != protocol.None),
		})
	}
	if moved {
		e.tally.Advance(e.chosenPrefix)
		e.fast.Forget(e.chosenPrefix)
		if e.phase1OK {
			e.timer.BeatSoon() // piggyback the new prefix soon
		}
	}
}

// The moves this family lends protocol.FastPath (protocol.FastHost), beside
// propose and resendInstances.

func (e *Engine) heldID(i int64) (uint64, bool) {
	info, ok := e.InstanceAt(i)
	return info.Cmd.ID, ok
}

// speculate accepts cmds at the end of the instance space at ballot 0: no
// proposer ran phase 2 for them.
func (e *Engine) speculate(cmds []protocol.Command, out *protocol.Output) {
	base := e.LastIndex() + 1
	for i, cmd := range cmds {
		e.accept(base+int64(i), 0, cmd)
	}
	e.emitAppended(base, out)
	out.StateChanged = true
}

// choose marks the held instance slot chosen and executes what that frees.
func (e *Engine) choose(slot int64, out *protocol.Output) {
	e.ahead[slot] = true
	e.advanceChosen(out)
}
