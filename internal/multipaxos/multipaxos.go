// Package multipaxos implements MultiPaxos per Figure 1 of the paper: one
// single-decree Paxos instance per log position, phase-1 batched over all
// unchosen instances, concurrent instances, and a stable distinguished
// leader. Instances may be chosen out of order; execution is in order.
//
// This is protocol A in the paper's porting framework: Raft* refines it,
// and the PQL and Mencius optimizations are expressed against it.
package multipaxos

import (
	"math/rand"
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
	// ReadCtx is the highest pending ReadIndex confirmation context at the
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
	MaxBatch       int
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

func (c *Config) withDefaults() Config {
	out := *c
	if out.ElectionTicks <= 0 {
		out.ElectionTicks = 10
	}
	if out.HeartbeatTicks <= 0 {
		out.HeartbeatTicks = 1
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 1024
	}
	return out
}

type instance struct {
	bal    uint64
	cmd    protocol.Command
	used   bool
	chosen bool
}

// Engine is a single MultiPaxos replica (proposer + acceptor + learner).
type Engine struct {
	cfg Config
	rng *rand.Rand

	ballot    uint64 // highest ballot seen (promised)
	phase1OK  bool   // phase1Succeeded: this replica may propose at ballot
	leader    protocol.NodeID
	preparing bool

	// insts holds the uncompacted instance tail: insts[i] is instance
	// instBase+i+1 (global instance space). Instances at or below instBase
	// are chosen, applied, and folded into a snapshot (TruncatePrefix), so
	// memory tracks the tail instead of all history.
	insts        []instance
	instBase     int64
	chosenPrefix int64 // all instances <= chosenPrefix are chosen

	// Phase-1 state.
	prepareOKs map[protocol.NodeID]*MsgPrepareOK

	// Leader phase-2 bookkeeping: per-instance acceptances at the current
	// ballot. The leader's own enters like any acceptor's, when its
	// self-addressed acceptOK comes back durable (askSelf); selfAsked is the
	// highest instance one was asked for at this ballot.
	acks      map[int64]map[protocol.NodeID]bool
	selfAsked int64
	// sentHolders is the Hooks.Holders set this acceptor last attached to
	// an acceptOK.
	sentHolders []protocol.NodeID

	// provider supplies the durable snapshot image shipped to peers
	// stranded behind this replica's compaction base (a lagging acceptor,
	// or a preparer whose unchosen position we compacted); xfers tracks
	// one chunked transfer per such peer, snapAsm reassembles an inbound
	// one.
	provider protocol.SnapshotProvider
	xfers    map[protocol.NodeID]*protocol.SnapshotXfer
	snapAsm  protocol.SnapshotAssembly

	elapsed   int
	timeout   int
	hbElapsed int

	pending []protocol.Command
	// ReadIndex state: reads tracks confirmation rounds at the leader;
	// readBarrier is the last instance touched by this leadership's
	// phase 1 — anything a predecessor might have chosen was re-proposed
	// at or below it, so a read's index is clamped up to it until the
	// re-proposals are chosen; pendingReads buffers reads submitted while
	// no leader is known.
	reads        protocol.ReadTracker
	readBarrier  int64
	pendingReads []protocol.Command

	// fast is the shared fast write path (nil unless cfg.FastPath). A
	// speculative instance holds bal 0 until a classic accept ratifies or
	// replaces it.
	fast *protocol.FastPath
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a MultiPaxos replica.
func New(cfg Config) *Engine {
	c := cfg.withDefaults()
	e := &Engine{
		cfg:    c,
		rng:    rand.New(rand.NewSource(c.Seed ^ int64(c.ID)<<17)),
		leader: protocol.None,
		acks:   make(map[int64]map[protocol.NodeID]bool),
	}
	if c.FastPath {
		e.fast = protocol.NewFastPath(c.ID, c.Peers, protocol.FastHost{
			Term: e.Term, IsLeader: e.IsLeader, LastIndex: e.LastIndex, Commit: e.CommitIndex,
			HeldID: e.heldID, Speculate: e.speculate, Propose: e.propose,
			Repair: e.resendInstances, Choose: e.choose,
		})
	}
	e.resetTimeout()
	return e
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
func (e *Engine) SetSnapshotProvider(p protocol.SnapshotProvider) { e.provider = p }

// RestoreSnapshot primes the engine at a snapshot boundary before
// RestoreLog delivers the tail: instances at or below index are chosen and
// live only in the snapshot.
func (e *Engine) RestoreSnapshot(index int64, _ uint64) {
	if e.LastIndex() > 0 {
		return
	}
	e.instBase = index
	if index > e.chosenPrefix {
		e.chosenPrefix = index
	}
}

// RestoreLog adopts durably logged instances after a restart, before the
// engine processes any input; instances up to commit come back chosen and
// instances above it come back accepted-but-unchosen (the driver persists
// at accept time, so a quorum-acked suffix survives a full-cluster crash
// and is re-learned through the next leader's phase 1). Filler entries —
// contiguity padding for instances this acceptor never received — grow the
// tail but restore as "nothing accepted", exactly the gap state the
// NeedFrom catch-up path refills. The tail continues wherever
// RestoreSnapshot anchored the instance space.
func (e *Engine) RestoreLog(ents []protocol.Entry, commit int64) {
	if len(e.insts) > 0 || len(ents) == 0 {
		return
	}
	for _, ent := range ents {
		in := e.inst(ent.Index)
		if in == nil {
			continue // below the snapshot boundary: already covered
		}
		if ent.IsFiller() {
			continue // hole: the instance was never accepted here
		}
		in.used = true
		in.bal = ent.Bal
		in.cmd = ent.Cmd
		in.chosen = ent.Index <= commit
	}
	if commit > e.LastIndex() {
		commit = e.LastIndex()
	}
	if commit > e.chosenPrefix {
		e.chosenPrefix = commit
	}
}

// TruncatePrefix implements protocol.PrefixTruncator: drop in-memory
// instance state at or below through (clamped to the chosen prefix —
// unchosen instances may still be re-proposed and must stay). Index
// arithmetic stays in global instance space.
func (e *Engine) TruncatePrefix(through int64) {
	if through > e.chosenPrefix {
		through = e.chosenPrefix
	}
	if through <= e.instBase {
		return
	}
	e.insts = append([]instance(nil), e.insts[through-e.instBase:]...)
	e.instBase = through
	for idx := range e.acks {
		if idx <= through {
			delete(e.acks, idx)
		}
	}
}

// LogLen returns the number of instances held in memory (the uncompacted
// tail).
func (e *Engine) LogLen() int { return len(e.insts) }

// FirstIndex returns the lowest instance still held in memory.
func (e *Engine) FirstIndex() int64 { return e.instBase + 1 }

// ChosenPrefix returns the contiguous chosen (committed) prefix.
func (e *Engine) ChosenPrefix() int64 { return e.chosenPrefix }

// LastIndex returns the highest instance this replica has accepted.
func (e *Engine) LastIndex() int64 { return e.instBase + int64(len(e.insts)) }

// InstanceAt returns (ballot, command, chosen) for instance i, if used;
// compacted instances report false.
func (e *Engine) InstanceAt(i int64) (InstanceInfo, bool) {
	if i <= e.instBase || i > e.LastIndex() || !e.insts[i-e.instBase-1].used {
		return InstanceInfo{}, false
	}
	in := e.insts[i-e.instBase-1]
	return InstanceInfo{Idx: i, Bal: in.bal, Cmd: in.cmd, Chosen: in.chosen}, true
}

func (e *Engine) quorum() int { return protocol.Quorum(len(e.cfg.Peers)) }

func (e *Engine) resetTimeout() {
	e.elapsed = 0
	e.timeout = e.cfg.ElectionTicks + e.rng.Intn(e.cfg.ElectionTicks)
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

// inst grows the tail to cover instance i and returns it; instances at or
// below the compaction base are gone and yield nil (callers skip them —
// anything below the base is already chosen and snapshotted).
func (e *Engine) inst(i int64) *instance {
	if i <= e.instBase {
		return nil
	}
	for e.LastIndex() < i {
		e.insts = append(e.insts, instance{})
	}
	return &e.insts[i-e.instBase-1]
}

// entryAt materializes instance i as a persistable log entry: accepted
// instances carry their ballot and command, unaccepted holes become
// contiguity fillers (Entry.IsFiller) that restore as "nothing accepted".
func (e *Engine) entryAt(i int64) protocol.Entry {
	in := e.insts[i-e.instBase-1]
	if !in.used {
		return protocol.Entry{Index: i}
	}
	return protocol.Entry{Index: i, Term: in.bal, Bal: in.bal, Cmd: in.cmd}
}

// emitAppended queues instances [lo, LastIndex] for pre-ack persistence
// (Output.AppendedEntries). The range always runs through the end of the
// held tail because the driver's store overwrites with suffix truncation:
// re-stating everything above the lowest touched instance keeps the
// durable log an exact mirror of the in-memory tail, holes included. In
// the steady state lo is yesterday's LastIndex+1 and this is just the new
// batch; only gap-filling accepts (the NeedFrom catch-up path) rewrite a
// longer suffix.
func (e *Engine) emitAppended(lo int64, out *protocol.Output) {
	if lo <= e.instBase {
		lo = e.instBase + 1
	}
	for i := lo; i <= e.LastIndex(); i++ {
		out.AppendedEntries = append(out.AppendedEntries, e.entryAt(i))
	}
}

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output {
	var out protocol.Output
	if e.phase1OK {
		e.hbElapsed++
		if e.hbElapsed >= e.cfg.HeartbeatTicks {
			e.hbElapsed = 0
			e.broadcastAccept(&out, &MsgAccept{Bal: e.ballot, ChosenPrefix: e.chosenPrefix})
		}
		return out
	}
	if e.cfg.Passive {
		return out
	}
	e.elapsed++
	if e.elapsed >= e.timeout {
		e.campaign(&out)
	}
	return out
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
	e.reads.FailAll(out) // confirmation rounds die with the leadership
	e.preparing = true
	e.leader = protocol.None
	e.prepareOKs = map[protocol.NodeID]*MsgPrepareOK{}
	e.resetTimeout()
	out.StateChanged = true
	// Self-promise.
	e.prepareOKs[e.cfg.ID] = &MsgPrepareOK{Bal: e.ballot, Insts: e.instancesFrom(e.chosenPrefix + 1), Base: e.instBase}
	e.broadcast(out, &MsgPrepare{Bal: e.ballot, Unchosen: e.chosenPrefix + 1})
	if len(e.cfg.Peers) == 1 {
		e.phase1Succeed(out)
	}
}

func (e *Engine) instancesFrom(idx int64) []InstanceInfo {
	var infos []InstanceInfo
	if idx <= e.instBase {
		// The compacted prefix is chosen and snapshotted; only the held
		// tail can be reported (a preparer that far behind needs a
		// snapshot transfer to execute it anyway).
		idx = e.instBase + 1
	}
	for i := idx; i <= e.LastIndex(); i++ {
		in := e.insts[i-e.instBase-1]
		if in.used {
			infos = append(infos, InstanceInfo{Idx: i, Bal: in.bal, Cmd: in.cmd, Chosen: in.chosen})
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

// broadcastAccept broadcasts a Phase2a message with the highest pending
// ReadIndex confirmation context piggybacked: every acceptOK echoing it
// doubles as a ballot confirmation for the reads awaiting one.
func (e *Engine) broadcastAccept(out *protocol.Output, msg *MsgAccept) {
	msg.ReadCtx = e.reads.MaxCtx()
	// The ctx is now in flight: later reads must open a fresh one (an
	// echo of this ctx only proves ballot currency up to this send).
	e.reads.MarkSent()
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
		e.stepInstallSnapshot(from, m, &out)
	case *protocol.MsgInstallSnapshotResp:
		e.stepInstallSnapshotResp(from, m, &out)
	case *MsgForward:
		out.Merge(e.SubmitBatch(m.Cmds))
	case *protocol.MsgReadForward:
		e.stepReadForward(from, m, &out)
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
// leadership or candidacy at the old one is over, its pending reads fail,
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
	e.reads.FailAll(out)
	e.preparing = false
	e.xfers = nil
	out.StateChanged = true
	return true
}

// stepPrepare is Phase1b: promise if the ballot is the highest seen.
func (e *Engine) stepPrepare(from protocol.NodeID, m *MsgPrepare, out *protocol.Output) {
	if !e.observeBallot(m.Bal, out) {
		return // stale prepare; proposer retries with a higher ballot
	}
	e.resetTimeout()
	resp := &MsgPrepareOK{Bal: m.Bal, Insts: e.instancesFrom(m.Unchosen), Base: e.instBase}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
	if m.Unchosen <= e.instBase {
		// The preparer's first unchosen instance is inside our compacted
		// prefix: nothing we report can fill it. Ship our snapshot so the
		// new leader can jump past the gap — the acceptor-to-preparer
		// direction of the ported InstallSnapshot.
		e.beginSnapshotTransfer(from, out)
	}
}

// stepPrepareOK is Phase1Succeed once a quorum of promises arrives.
func (e *Engine) stepPrepareOK(from protocol.NodeID, m *MsgPrepareOK, out *protocol.Output) {
	if !e.preparing || m.Bal != e.ballot {
		return
	}
	e.prepareOKs[from] = m
	if len(e.prepareOKs) >= e.quorum() {
		e.phase1Succeed(out)
	}
}

func (e *Engine) phase1Succeed(out *protocol.Output) {
	e.preparing = false
	e.phase1OK = true
	e.leader = e.cfg.ID
	e.hbElapsed = 0
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
	for _, ok := range e.prepareOKs {
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
	e.selfAsked = e.chosenPrefix
	for i := e.chosenPrefix + 1; i <= maxIdx; i++ {
		if i <= maxBase {
			continue // compacted on a quorum member: arrives via snapshot
		}
		in := e.inst(i)
		if in == nil {
			continue // below the compaction base: chosen and snapshotted
		}
		info, ok := safe[i]
		if ok && !info.Chosen && e.fast != nil {
			// Fast-path recovery (protocol.ChooseFast) widens the safe-value
			// rule for an instance nobody reports chosen: ratified copies
			// still win by highest ballot, speculative ones by the count rule.
			info.Cmd, _ = protocol.ChooseFast(fastReports[i], participants, len(e.cfg.Peers))
		}
		switch {
		case ok:
			if in.used && in.bal == 0 && in.cmd.ID != info.Cmd.ID {
				e.fast.Displaced(in.cmd.ID)
			}
			in.cmd = info.Cmd
			in.chosen = in.chosen || info.Chosen
		case !in.used:
			in.cmd = protocol.Command{Op: protocol.OpNop}
		}
		in.used = true
		in.bal = e.ballot
		if firstTouched == 0 {
			firstTouched = i
		}
		e.acks[i] = map[protocol.NodeID]bool{}
		reproposal = append(reproposal, InstanceInfo{Idx: i, Bal: e.ballot, Cmd: in.cmd})
	}
	e.fast.Reset(e.ballot)
	if firstTouched > 0 {
		// The new leader self-accepts its re-proposals and persists them
		// like any acceptor. Growth past the old tail (a quorum member's
		// compaction base beyond it) emits the grown holes too, keeping the
		// durable log contiguous.
		if firstTouched > oldLast+1 {
			firstTouched = oldLast + 1
		}
		e.emitAppended(firstTouched, out)
	}
	if len(reproposal) > 0 && e.decisive(reproposal[0].Idx) {
		e.askSelf(out) // a lone replica's own vote is the quorum
	}
	// ReadIndex reads may not be served below the phase-1 re-proposals:
	// anything a predecessor might have chosen was re-proposed at or below
	// this watermark and is only reflected in the chosen prefix once the
	// re-proposals are chosen at this ballot.
	e.readBarrier = e.LastIndex()
	e.reads.Reset(e.quorum(), e.cfg.UnsafeSkipReadQuorum)
	if len(reproposal) > 0 {
		e.observeAccepted(reproposal)
		e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, Insts: reproposal, ChosenPrefix: e.chosenPrefix})
	} else {
		// Announce leadership.
		e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, ChosenPrefix: e.chosenPrefix})
	}
	e.advanceChosen(out)
	e.flushPending(out)
}

// Submit implements protocol.Engine (Phase2a for a fresh instance).
func (e *Engine) Submit(cmd protocol.Command) protocol.Output {
	return e.SubmitBatch([]protocol.Command{cmd})
}

// SubmitBatch implements protocol.BatchSubmitter: the whole batch becomes
// consecutive instances proposed in a single Phase2a broadcast (the
// batched-accept optimization the paper ports between protocols).
func (e *Engine) SubmitBatch(cmds []protocol.Command) protocol.Output {
	var out protocol.Output
	if len(cmds) == 0 {
		return out
	}
	switch {
	case e.phase1OK:
		e.propose(cmds, &out)
	case e.fast != nil && e.leader != protocol.None:
		return e.fast.Submit(cmds)
	case e.leader != protocol.None:
		out.Msgs = append(out.Msgs, protocol.Envelope{
			From: e.cfg.ID, To: e.leader,
			Msg: &MsgForward{Cmds: append([]protocol.Command(nil), cmds...)},
		})
	default:
		for _, cmd := range cmds {
			if len(e.pending) < 4096 {
				e.pending = append(e.pending, cmd)
				continue
			}
			kind := protocol.ReplyWrite
			if cmd.Op == protocol.OpGet {
				kind = protocol.ReplyRead
			}
			out.Replies = append(out.Replies, protocol.ClientReply{
				Kind: kind, CmdID: cmd.ID, Client: cmd.Client, Err: protocol.ErrNotLeader,
			})
		}
	}
	return out
}

// SubmitRead implements protocol.Engine: with ReadIndex enabled, the
// leader serves the read from the state machine after one accept-round
// ballot confirmation — no instance, no fsync; otherwise a strongly
// consistent read is persisted into the log as if it were a write
// (Section 4.4 of the paper).
func (e *Engine) SubmitRead(cmd protocol.Command) protocol.Output {
	return e.SubmitReadBatch([]protocol.Command{cmd})
}

// SubmitReadBatch implements protocol.ReadBatchSubmitter: the whole batch
// shares one read index and one confirmation round.
func (e *Engine) SubmitReadBatch(cmds []protocol.Command) protocol.Output {
	var out protocol.Output
	e.submitReads(cmds, protocol.None, &out)
	return out
}

// stepReadForward handles reads another replica forwarded. The stamp is
// the highest ballot the forwarder had seen when it sent them — the
// paper's term ≙ ballot mapping applied to the Raft family's rule: higher
// than ours deposes us like any higher-ballot message (the reads then
// re-route, never served here); equal to ours at the leader makes the
// forwarder a quorum witness for exactly these reads
// (protocol.ReadTracker); lower proves nothing and gets the full round.
func (e *Engine) stepReadForward(from protocol.NodeID, m *protocol.MsgReadForward, out *protocol.Output) {
	e.observeBallot(m.Term, out)
	witness := protocol.None
	if m.Term == e.ballot {
		witness = from
	}
	e.submitReads(m.Cmds, witness, out)
}

// submitReads serves cmds through ReadIndex at the leader — the read index
// is the chosen prefix clamped up to the phase-1 barrier (the last instance
// with the fast path on: protocol.FastPath.ReadIndex), and an empty
// accept broadcast carrying the batch's ctx starts the confirmation
// immediately instead of waiting out the heartbeat interval, unless leader
// + witness already confirmed it — and routes them toward the leader
// elsewhere.
func (e *Engine) submitReads(cmds []protocol.Command, witness protocol.NodeID, out *protocol.Output) {
	if len(cmds) == 0 {
		return
	}
	for i := range cmds {
		cmds[i].Op = protocol.OpGet
	}
	switch {
	case !e.cfg.ReadIndex:
		out.Merge(e.SubmitBatch(cmds))
	case e.phase1OK:
		e.reads.Add(cmds, e.fast.ReadIndex(max(e.chosenPrefix, e.readBarrier)), witness, out)
		if e.reads.Unsent() {
			e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, ChosenPrefix: e.chosenPrefix})
		}
	default:
		protocol.RouteReads(e.cfg.ID, e.leader, e.ballot, &e.pendingReads, cmds, out)
	}
}

func (e *Engine) propose(cmds []protocol.Command, out *protocol.Output) {
	insts := make([]InstanceInfo, 0, len(cmds))
	firstNew := e.LastIndex() + 1
	for _, cmd := range cmds {
		idx := e.LastIndex() + 1
		in := e.inst(idx)
		in.used = true
		in.bal = e.ballot
		in.cmd = cmd
		e.acks[idx] = map[protocol.NodeID]bool{}
		insts = append(insts, InstanceInfo{Idx: idx, Bal: e.ballot, Cmd: cmd})
	}
	// Self-accept: the proposer is one acceptor among n; its copy is
	// persisted like any other and votes once askSelf proves it durable.
	e.emitAppended(firstNew, out)
	out.StateChanged = true
	e.observeAccepted(insts)
	e.broadcastAccept(out, &MsgAccept{Bal: e.ballot, Insts: insts, ChosenPrefix: e.chosenPrefix})
	if e.decisive(firstNew) {
		e.askSelf(out) // a lone replica's own vote is the quorum
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

func (e *Engine) flushPending(out *protocol.Output) {
	if reads := e.pendingReads; len(reads) > 0 {
		e.pendingReads = nil
		out.Merge(e.SubmitReadBatch(reads))
	}
	if len(e.pending) == 0 {
		return
	}
	cmds := e.pending
	e.pending = nil
	if e.phase1OK {
		e.propose(cmds, out)
		return
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{
		From: e.cfg.ID, To: e.leader, Msg: &MsgForward{Cmds: cmds},
	})
}

// stepAccept is Phase2b: accept the value if the ballot is current.
func (e *Engine) stepAccept(from protocol.NodeID, m *MsgAccept, out *protocol.Output) {
	if m.Bal < e.ballot {
		return // reject silently; sender will learn the higher ballot
	}
	e.observeBallot(m.Bal, out)
	e.leader = from
	e.resetTimeout()
	var idxs []int64
	oldLast := e.LastIndex()
	firstTouched := int64(0)
	for _, info := range m.Insts {
		in := e.inst(info.Idx)
		if in == nil {
			continue // already chosen and compacted here: stale accept
		}
		if in.used && in.bal == 0 && in.cmd.ID != info.Cmd.ID {
			// A classic accept displaces a speculative command, which
			// reaches the log through the leader or not at all.
			e.fast.Displaced(in.cmd.ID)
		}
		in.used = true
		in.bal = m.Bal
		in.cmd = info.Cmd
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
		if firstTouched > oldLast+1 {
			firstTouched = oldLast + 1
		}
		e.emitAppended(firstTouched, out)
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
	// echo is the ballot confirmation the leader's pending reads wait on.
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
	e.flushPending(out)
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
		in := &e.insts[i-e.instBase-1]
		held := in.used && in.bal == bal
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
		if in := &e.insts[i-e.instBase-1]; in.used && in.bal == bal {
			in.chosen = true
		}
	}
}

// stepAcceptOK is Learn: an instance is chosen once f+1 acceptors voted
// for it at the same ballot.
func (e *Engine) stepAcceptOK(from protocol.NodeID, m *MsgAcceptOK, out *protocol.Output) {
	if !e.phase1OK || m.Bal != e.ballot {
		return
	}
	if from != e.cfg.ID { // our own acceptOK carries only the vote
		if m.ReadCtx > 0 {
			// The acceptor processed an accept we sent while still leading:
			// that confirms every read batch at or below the echoed ctx.
			e.reads.Ack(from, m.ReadCtx, out)
		}
		if h := e.cfg.Hooks.OnAck; h != nil {
			h(from, m.Holders)
		}
	}
	ask := false
	for _, idx := range m.Idxs {
		if set, ok := e.acks[idx]; ok {
			set[from] = true
			e.tryChoose(idx, set)
			ask = ask || e.decisive(idx)
		}
	}
	if ask {
		e.askSelf(out)
	}
	e.advanceChosen(out)
	if m.NeedFrom > 0 {
		if m.NeedFrom <= e.instBase {
			// The acceptor's gap starts inside our compacted prefix: only
			// the snapshot image can carry it there.
			e.beginSnapshotTransfer(from, out)
		} else {
			e.resendInstances(from, m.NeedFrom, out)
		}
	}
}

// resendInstances re-sends the run of held instances starting at lo to
// one lagging acceptor — the catch-up retransmission MultiPaxos lacks
// natively and Raft gets from next/match. Values already chosen are
// simply re-accepted at the current ballot; the piggybacked prefix lets
// the receiver mark and execute them.
func (e *Engine) resendInstances(p protocol.NodeID, lo int64, out *protocol.Output) {
	if !e.phase1OK || lo <= e.instBase {
		return
	}
	hi := e.LastIndex()
	if hi > lo-1+int64(e.cfg.MaxBatch) {
		hi = lo - 1 + int64(e.cfg.MaxBatch)
	}
	var insts []InstanceInfo
	for i := lo; i <= hi; i++ {
		if in := e.insts[i-e.instBase-1]; in.used {
			insts = append(insts, InstanceInfo{Idx: i, Bal: e.ballot, Cmd: in.cmd})
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

// beginSnapshotTransfer starts (or nudges) the chunked shipment of the
// latest durable snapshot to p, which needs instances inside this
// replica's compacted prefix — a lagging acceptor reporting a gap, or a
// preparer whose unchosen position we compacted. Same pacing as the raft
// engines: one chunk in flight, advanced per ack, so heartbeats never
// queue behind a multi-megabyte image.
func (e *Engine) beginSnapshotTransfer(p protocol.NodeID, out *protocol.Output) {
	if x, ok := e.xfers[p]; ok {
		// Already transferring: re-send the current chunk only after a
		// full retry interval of silence (chunk or ack lost).
		if x.Retry() {
			if chunk := x.Chunk(e.ballot); chunk != nil {
				out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: chunk})
			}
		}
		return
	}
	if e.provider == nil {
		return // no image source: the peer stays parked until one exists
	}
	img, ok := e.provider.LatestSnapshotImage()
	if !ok || img.Index < e.instBase {
		// No durable image, or it predates our held tail: the peer could
		// not resume instance replay above it, so shipping would not help.
		return
	}
	if e.xfers == nil {
		e.xfers = make(map[protocol.NodeID]*protocol.SnapshotXfer)
	}
	x := &protocol.SnapshotXfer{Img: img}
	e.xfers[p] = x
	if chunk := x.Chunk(e.ballot); chunk != nil {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: chunk})
	}
}

// stepInstallSnapshot receives one chunk of a peer's snapshot, assembling
// the image and adopting it when complete: the chosen prefix jumps to the
// image boundary and the driver is told (Output.InstalledSnapshot) to
// persist it and restore the state machine, after which instance replay
// resumes above the boundary.
func (e *Engine) stepInstallSnapshot(from protocol.NodeID, m *protocol.MsgInstallSnapshot, out *protocol.Output) {
	resp := &protocol.MsgInstallSnapshotResp{Term: e.ballot, Index: m.Index}
	if m.Term < e.ballot {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
		return
	}
	e.observeBallot(m.Term, out)
	resp.Term = e.ballot
	e.resetTimeout()
	if m.Index <= e.chosenPrefix {
		// Already covered locally (duplicate transfer or a stale chunk):
		// nothing to install; the ack lets the sender resume.
		e.snapAsm.Reset()
		resp.Installed = true
		resp.NextOffset = m.Offset + int64(len(m.Data))
	} else {
		img, done, next := e.snapAsm.Accept(m)
		if next < 0 {
			// A better transfer is in progress: no ack, so this sender's
			// damped retries cannot clobber the winning image's progress.
			return
		}
		resp.NextOffset = next
		if done {
			e.installSnapshot(img, out)
			resp.Installed = true
		}
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
}

// installSnapshot adopts a fully assembled image: every instance at or
// below its index is chosen and lives in the image, so the instance space
// re-anchors there (keeping any held suffix beyond it) and the driver
// persists the image before applying anything above it.
func (e *Engine) installSnapshot(img protocol.SnapshotImage, out *protocol.Output) {
	if img.Index <= e.chosenPrefix {
		return
	}
	if img.Index >= e.LastIndex() {
		e.insts = nil
	} else {
		e.insts = append([]instance(nil), e.insts[img.Index-e.instBase:]...)
	}
	e.instBase = img.Index
	e.chosenPrefix = img.Index
	for idx := range e.acks {
		if idx <= img.Index {
			delete(e.acks, idx)
		}
	}
	e.fast.Forget(img.Index)
	out.StateChanged = true
	out.InstalledSnapshot = &img
	e.advanceChosen(out)
}

// stepInstallSnapshotResp paces an outbound transfer: each ack releases
// the next chunk, and the final Installed ack immediately re-sends the
// instance run above the boundary so the receiver resumes execution
// without waiting for the next gap report.
func (e *Engine) stepInstallSnapshotResp(from protocol.NodeID, m *protocol.MsgInstallSnapshotResp, out *protocol.Output) {
	if e.observeBallot(m.Term, out) {
		return
	}
	x := e.xfers[from]
	if x == nil || x.Img.Index != m.Index || m.Term != e.ballot {
		return // ack from an older transfer or ballot
	}
	if m.Installed {
		delete(e.xfers, from)
		e.resendInstances(from, m.Index+1, out)
		return
	}
	x.Ack(m.NextOffset)
	if chunk := x.Chunk(e.ballot); chunk != nil {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: chunk})
	} else {
		delete(e.xfers, from) // receiver ran past the image end: abandon
	}
}

// tryChoose declares instance idx chosen if a quorum voted for it — under
// Hooks.MustAck, a quorum of votes that count: one where every replica the
// hook names for the voter voted for this instance too, in its own ack
// set. Paxos has no log matching: an acceptor's ack of a later instance
// says nothing about an earlier one, whose accept may have been lost, so a
// high-water mark must never stand in for set.
func (e *Engine) tryChoose(idx int64, set map[protocol.NodeID]bool) {
	if e.counted(set) < e.quorum() {
		return
	}
	delete(e.acks, idx)
	if in := e.inst(idx); in != nil {
		in.chosen = true
	}
}

// counted is how many votes in set count toward a quorum.
func (e *Engine) counted(set map[protocol.NodeID]bool) int {
	must := e.cfg.Hooks.MustAck
	if must == nil || len(set) < e.quorum() {
		return len(set)
	}
	counted := 0
voters:
	for p := range set {
		for _, h := range must(p) {
			if !set[h] {
				continue voters
			}
		}
		counted++
	}
	return counted
}

// decisive reports whether the leader's own vote, not yet asked for, would
// choose pending instance idx.
func (e *Engine) decisive(idx int64) bool {
	set, pending := e.acks[idx]
	if !e.phase1OK || !pending || idx <= e.selfAsked || set[e.cfg.ID] {
		return false
	}
	set[e.cfg.ID] = true
	ok := e.counted(set) >= e.quorum()
	delete(set, e.cfg.ID)
	return ok
}

// askSelf asks, for every instance this ballot accepted and has not asked
// for yet, for the leader's own acceptOK: addressed to itself, handed back
// by the runtime once the round it rides is durable.
func (e *Engine) askSelf(out *protocol.Output) {
	var own []int64
	for i := max(e.selfAsked, e.instBase) + 1; i <= e.LastIndex(); i++ {
		if _, pending := e.acks[i]; pending && e.insts[i-e.instBase-1].bal == e.ballot {
			own = append(own, i)
		}
	}
	e.selfAsked = e.LastIndex()
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: e.cfg.ID,
		Msg: &MsgAcceptOK{Bal: e.ballot, Idxs: own}})
}

// Recheck re-evaluates every pending instance without new input: what
// Hooks.MustAck names shrinks as leases expire, which may unblock
// instances that were waiting on a dead holder.
func (e *Engine) Recheck() protocol.Output {
	var out protocol.Output
	ask := false
	for idx, set := range e.acks {
		e.tryChoose(idx, set)
		ask = ask || e.decisive(idx)
	}
	if ask {
		e.askSelf(&out)
	}
	e.advanceChosen(&out)
	return out
}

// advanceChosen extends the contiguous chosen prefix and emits commits in
// execution order.
func (e *Engine) advanceChosen(out *protocol.Output) {
	moved := false
	for e.chosenPrefix < e.LastIndex() {
		in := e.insts[e.chosenPrefix-e.instBase]
		if !in.used || !in.chosen {
			break
		}
		e.chosenPrefix++
		moved = true
		out.Commits = append(out.Commits, protocol.CommitInfo{
			Entry: protocol.Entry{
				Index: e.chosenPrefix, Term: in.bal, Bal: in.bal, Cmd: in.cmd,
			},
			Reply: e.fast.Reply(e.chosenPrefix, in.cmd, e.phase1OK && in.cmd.Client != protocol.None),
		})
	}
	if moved {
		e.fast.Forget(e.chosenPrefix)
		if e.phase1OK {
			e.hbElapsed = e.cfg.HeartbeatTicks // piggyback the new prefix soon
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
		in := e.inst(base + int64(i))
		in.used = true
		in.bal = 0
		in.cmd = cmd
	}
	e.emitAppended(base, out)
	out.StateChanged = true
}

// choose marks the held instance slot chosen and executes what that frees.
func (e *Engine) choose(slot int64, out *protocol.Output) {
	e.insts[slot-e.instBase-1].chosen = true
	e.advanceChosen(out)
}
