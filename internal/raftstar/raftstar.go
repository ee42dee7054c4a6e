// Package raftstar implements Raft*, the Raft variant introduced by the
// paper (Figure 2, including the blue additions) for which a refinement
// mapping to MultiPaxos exists — and with it the one log-replication
// engine of the Raft family: roles, timers, votes, batching and pipelining
// exist here once, and the client front (forwarding, ReadIndex), snapshot
// catch-up and the fast write path come from package protocol, shared with
// multipaxos.
// Raft* differs from standard Raft at exactly three points, each a method
// group of Rules (rules.go holds Raft*'s, package raft holds Raft's):
//
//  1. Election recovery. A granting voter ships the log entries beyond the
//     candidate's last index in its requestVoteOK; the new leader extends
//     its own log with the safe value (highest ballot) for each such index
//     instead of later erasing follower suffixes.
//  2. Accept. An acceptor rejects an append that would leave its log
//     longer than the leader's. Every entry carries a ballot in addition
//     to its term; any accepted append re-stamps the ballots of all
//     entries it covers with the current term, restoring the MultiPaxos
//     invariant that acceptance overwrites the instance's ballot.
//  3. Commit. As a consequence the leader may commit any quorum-replicated
//     entry directly, without Raft's §5.4.2 current-term restriction.
//
// The engine is a pure, deterministic, tick-driven state machine so the
// same code runs under the discrete-event simulator and live transports.
package raftstar

import (
	"slices"

	"raftpaxos/internal/protocol"
)

// Role is the replica's current role.
type Role uint8

// Roles.
const (
	Follower Role = iota + 1
	Candidate
	Leader
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Config configures a replica of either variant (raft.New takes it too).
type Config struct {
	ID    protocol.NodeID
	Peers []protocol.NodeID // all replicas, including ID

	// ElectionTicks is the base election timeout; the effective timeout is
	// randomized in [ElectionTicks, 2*ElectionTicks).
	ElectionTicks int
	// HeartbeatTicks is the leader's heartbeat period.
	HeartbeatTicks int
	// Seed feeds the deterministic election jitter RNG.
	Seed int64
	// Passive disables the election timer (the replica still votes and
	// accepts appends). Benchmarks use it to pin the leader at one site.
	Passive bool
	// ReadIndex enables the fast linearizable read path: the leader
	// serves reads from the state machine after one leadership
	// confirmation round, with no log append and no fsync, and followers
	// forward reads to it. Off, reads replicate through the log like
	// writes (the paper's baseline).
	ReadIndex bool
	// UnsafeSkipReadQuorum serves ReadIndex reads without the leadership
	// confirmation round (testing only: the linearizability checker's
	// sabotage regression). Never enable in a deployment.
	UnsafeSkipReadQuorum bool
	// FastPath enables the one-RTT Fast Paxos write path
	// (protocol.FastPath): a follower broadcasts submissions to every
	// replica, which accept speculatively (entry Bal 0) and ack everyone;
	// ⌈3n/4⌉ matching acks including the leader's commit the command without
	// the forward-to-leader round trip. Collisions fall back to the classic
	// path automatically because the leader treats every fast accept as a
	// forwarded submission.
	FastPath bool

	// Hooks port non-mutating Paxos optimizations onto Raft* (package
	// lease); package raft drops them.
	Hooks protocol.Hooks
}

// maxBatch caps entries per append message; maxInflight caps the appends
// in flight to a pipelined follower. A clocked follower gets one: see
// sendAppend.
const (
	maxBatch    = 1024
	maxInflight = 16
)

// Engine is a single replica: Raft* when built by New, standard Raft when
// package raft builds it over its own Rules.
type Engine struct {
	cfg   Config
	rules Rules
	timer protocol.Timer

	term     uint64
	votedFor protocol.NodeID
	role     Role
	leader   protocol.NodeID

	// log is the uncompacted tail in global index space: the prefix at or
	// below log.Base() has been folded into a snapshot and truncated away
	// (TruncatePrefix), bounding replica memory by the tail length.
	log    protocol.Log
	commit int64
	// logBal is the term of the last append accepted (or election won)
	// over the log. Raft* stamps all covered entries with it on every
	// accept, so its per-entry ballots are always uniform; tracking one
	// value avoids an O(len(log)) re-stamp per append. Entries are stamped
	// through Rules.Ballot whenever they leave the engine (vote extras,
	// commits, EntryAt, persistence) — standard Raft never re-stamps and
	// ignores logBal there.
	logBal uint64

	// Candidate state.
	votes    map[protocol.NodeID]bool
	extras   map[int64]protocol.Entry // safest entry seen per index
	extraMax int64

	// Leader state. next/match/inflight are each peer's catch-up cursor:
	// inflight is the FIFO of appends sent and not yet answered, each
	// response retiring the oldest, and clocked marks the peers whose
	// last response answered its append within the tick it was sent in
	// (sendAppend's send rule). tally counts a match as a vote for every
	// index up to it — match[ID], the leader's own, raised only by its
	// self-ack (maybeCommit). ticks counts Tick calls.
	next     map[protocol.NodeID]int64
	match    map[protocol.NodeID]int64
	inflight map[protocol.NodeID][]sentAppend
	clocked  map[protocol.NodeID]bool
	ticks    int64
	tally    protocol.Votes

	// front routes client writes and reads (ReadIndex at the leader);
	// catchup ships snapshot images to peers stranded below the compaction
	// base and assembles inbound ones.
	front   protocol.Front
	catchup protocol.CatchUp

	// Fast write path state (nil/zero unless cfg.FastPath): fast is the
	// shared path, the rest is what this family adds to it. specFrom is the
	// fast path's amendment to the classic ballot: speculative
	// (fast-accepted) entries land at the log end, and an accepted classic
	// append verifies everything it covers, so one watermark separates the
	// classic prefix from a tail that is speculative or not yet verified
	// against a leader — entries at or above specFrom carry ballot 0 on
	// emission, everything below its classic ballot; specFrom 0 means no
	// speculation. fastVotes = voters' reports for election recovery.
	fast      *protocol.FastPath
	specFrom  int64
	fastVotes map[protocol.NodeID][]protocol.Entry
}

var _ protocol.Engine = (*Engine)(nil)

// sentAppend is one append in flight to a follower: the last index it
// carries and the tick it was sent in.
type sentAppend struct {
	last, tick int64
}

// New builds a Raft* replica.
func New(cfg Config) *Engine { return NewWithRules(cfg, star{}) }

// NewWithRules builds a replica that runs the shared engine under rules.
// The variant is fixed here, by the constructor called; one group must not
// mix variants, and package raft keeps its own wire tags so that it cannot.
func NewWithRules(c Config, rules Rules) *Engine {
	e := &Engine{
		cfg:      c,
		rules:    rules,
		votedFor: protocol.None,
		role:     Follower,
		leader:   protocol.None,
		tally:    protocol.NewVotes(c.ID, c.Peers, c.Hooks.MustAck),
	}
	view := protocol.View{Term: e.Term, IsLeader: e.IsLeader, Leader: e.Leader, LastIndex: e.LastIndex, Commit: e.CommitIndex}
	if c.FastPath {
		e.fast = protocol.NewFastPath(c.ID, c.Peers, protocol.FastHost{View: view, HeldID: e.heldID,
			Speculate: e.speculate, Propose: e.propose, Repair: e.repair, Choose: e.advanceCommit})
	}
	e.front = protocol.NewFront(c.ID, len(c.Peers), c.ReadIndex, c.UnsafeSkipReadQuorum, e.fast, view, e.forward)
	e.catchup = protocol.NewCatchUp(c.ID)
	e.timer = protocol.NewTimer(c.Seed, c.ID, c.ElectionTicks, c.HeartbeatTicks, c.Passive)
	return e
}

// forward is the message a follower forwards client commands in.
func (e *Engine) forward(cmds []protocol.Command) protocol.Message {
	return e.rules.Rename(&MsgForward{Cmds: cmds})
}

// send addresses msg, one of this engine's own messages, to peer to under
// the variant's wire identity (Rules.Rename).
func (e *Engine) send(to protocol.NodeID, msg protocol.Message, out *protocol.Output) {
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: to, Msg: e.rules.Rename(msg)})
}

// act does the work the front hands back: a confirmation round for reads
// (a heartbeat broadcast carrying their ctx), then a proposal.
func (e *Engine) act(w protocol.Work, out *protocol.Output) {
	if w.Confirm {
		e.broadcastAppend(out, true)
	}
	if w.Propose != nil {
		e.propose(w.Propose, out)
	}
}

// FastStats implements protocol.FastStatser.
func (e *Engine) FastStats() protocol.FastStats { return e.fast.Stats() }

// speculative reports whether index i lies in the speculative tail.
func (e *Engine) speculative(i int64) bool { return e.specFrom > 0 && i >= e.specFrom }

// bal returns the emission ballot of a held entry: 0 while it is
// speculative, the variant's classic ballot otherwise.
func (e *Engine) bal(ent protocol.Entry) uint64 {
	if e.speculative(ent.Index) {
		return 0
	}
	return e.rules.Ballot(ent, e.logBal)
}

// ID implements protocol.Engine.
func (e *Engine) ID() protocol.NodeID { return e.cfg.ID }

// Leader implements protocol.Engine.
func (e *Engine) Leader() protocol.NodeID { return e.leader }

// IsLeader implements protocol.Engine.
func (e *Engine) IsLeader() bool { return e.role == Leader }

// Term returns the current term (ballot).
func (e *Engine) Term() uint64 { return e.term }

// VotedFor returns the replica voted for in the current term (None when
// no vote was cast); live drivers persist it alongside the term.
func (e *Engine) VotedFor() protocol.NodeID { return e.votedFor }

// RestoreHardState primes term and vote from durable storage before the
// engine processes any input, so a restarted replica cannot cast a
// second vote in a term it already voted in.
func (e *Engine) RestoreHardState(term uint64, votedFor protocol.NodeID) {
	if term > e.term {
		e.term = term
		e.votedFor = votedFor
	}
}

// SetSnapshotProvider implements protocol.SnapshotSender: the driver
// wires its snapshot store so a leader can ship images to peers that
// fell behind the compaction base.
func (e *Engine) SetSnapshotProvider(p protocol.SnapshotProvider) { e.catchup.SetProvider(p) }

// RestoreSnapshot primes the engine at a snapshot boundary before
// RestoreLog delivers the tail: the log starts at index, whose entry had
// term, and everything at or below it is committed (it was applied before
// it was snapshotted).
func (e *Engine) RestoreSnapshot(index int64, term uint64) {
	if e.log.LastIndex() > 0 {
		return
	}
	e.log.Restore(index, term, nil)
	if index > e.commit {
		e.commit = index
	}
	if term > e.logBal {
		e.logBal = term
	}
}

// RestoreLog adopts a durably logged tail after a restart, before the
// engine processes any input. The tail continues wherever RestoreSnapshot
// anchored the log (index 1 on a snapshot-free store). The driver persists
// entries at accept time, so the tail normally extends past the saved
// commit index: the suffix comes back accepted-but-uncommitted, preserving
// a quorum-acked suffix across a full-cluster crash. Commit is clamped to
// the restored length regardless.
func (e *Engine) RestoreLog(ents []protocol.Entry, commit int64) {
	if e.log.Len() > 0 || len(ents) == 0 {
		return
	}
	if ents[0].Index != e.log.LastIndex()+1 {
		return // tail does not meet the snapshot boundary: driver bug
	}
	for _, ent := range ents {
		e.log.Append(ent)
	}
	if commit > e.log.LastIndex() {
		commit = e.log.LastIndex()
	}
	if commit > e.commit {
		e.commit = commit
	}
	// Entries were stamped with their ballot when they left the engine;
	// adopt the highest seen. A zero-ballot tail is a speculative
	// fast suffix that survived the restart: restore the watermark so the
	// entries stay marked speculative until a classic append ratifies them.
	for _, ent := range ents {
		if ent.Bal > e.logBal {
			e.logBal = ent.Bal
		}
		if e.fast != nil && ent.Bal == 0 && ent.Term > 0 && ent.Index > e.commit && e.specFrom == 0 {
			e.specFrom = ent.Index
		}
	}
}

// TruncatePrefix implements protocol.Engine: drop in-memory entries at or
// below through (clamped to the commit index — uncommitted entries may
// still be rewritten and must stay — and, on a leader, below the entries
// held for a clocked follower: they leave at its ack or within a tick, and
// dropping them first would turn a one-tick stall into a snapshot
// transfer). Index arithmetic stays in global log-index space throughout.
func (e *Engine) TruncatePrefix(through int64) {
	if through > e.commit {
		through = e.commit
	}
	if e.role == Leader {
		for p, q := range e.inflight {
			if e.clocked[p] && len(q) > 0 {
				through = min(through, e.next[p]-1)
			}
		}
	}
	e.log.TruncatePrefix(through)
}

// LogLen returns the number of entries held in memory (the uncompacted
// tail) — the quantity snapshots exist to bound.
func (e *Engine) LogLen() int { return e.log.Len() }

// FirstIndex returns the lowest log index still held in memory.
func (e *Engine) FirstIndex() int64 { return e.log.FirstIndex() }

// Role returns the current role.
func (e *Engine) Role() Role { return e.role }

// CommitIndex returns the highest committed log index.
func (e *Engine) CommitIndex() int64 { return e.commit }

// LastIndex returns the last log index.
func (e *Engine) LastIndex() int64 { return e.log.LastIndex() }

// EntryAt returns the entry at index i (1-based) and whether it exists;
// compacted indexes report false.
func (e *Engine) EntryAt(i int64) (protocol.Entry, bool) {
	ent, ok := e.log.At(i)
	if !ok {
		return protocol.Entry{}, false
	}
	ent.Bal = e.bal(ent)
	return ent, true
}

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output {
	var out protocol.Output
	e.ticks++
	if e.role == Leader {
		e.unclock(&out)
	}
	switch e.timer.Tick(e.role == Leader) {
	case protocol.Heartbeat:
		e.broadcastAppend(&out, true)
	case protocol.Campaign:
		e.campaign(&out)
	}
	return out
}

// Campaign forces an immediate election (used to bootstrap a preferred
// leader in benchmarks and tests).
func (e *Engine) Campaign() protocol.Output {
	var out protocol.Output
	e.campaign(&out)
	return out
}

func (e *Engine) campaign(out *protocol.Output) {
	e.term++
	e.role = Candidate
	// Pending confirmation rounds die with the leadership we just gave
	// up: echoes are ignored while Candidate, and winning re-arms the
	// tracker fresh — without this, forced re-election strands the reads.
	e.front.StepDown(out)
	e.leader = protocol.None
	e.votedFor = e.cfg.ID
	e.votes = map[protocol.NodeID]bool{e.cfg.ID: true}
	e.extras = make(map[int64]protocol.Entry)
	e.extraMax = e.LastIndex()
	e.timer.Reset()
	out.StateChanged = true
	if e.fast != nil {
		e.fastVotes = make(map[protocol.NodeID][]protocol.Entry)
	}
	req := &MsgVoteReq{Term: e.term, LastIndex: e.LastIndex(), LastTerm: e.log.TermAt(e.LastIndex()), Commit: e.commit}
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		e.send(p, req, out)
	}
	if len(e.cfg.Peers) == 1 {
		e.becomeLeader(out)
	}
}

func (e *Engine) becomeFollower(term uint64, leader protocol.NodeID, out *protocol.Output) {
	if term > e.term {
		e.term = term
		e.votedFor = protocol.None
		// Nobody leads the new term yet — least of all us, if we led the
		// old one: a stale pointer here forwards commands to ourselves.
		e.leader = protocol.None
		out.StateChanged = true
	}
	e.role = Follower
	e.catchup.Drop()
	e.front.StepDown(out)
	if leader != protocol.None {
		e.leader = leader
		e.act(e.front.Flush(out), out)
	}
	e.timer.Reset()
}

// Step implements protocol.Engine.
func (e *Engine) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	var out protocol.Output
	switch m := msg.(type) {
	case *MsgVoteReq:
		e.stepVoteReq(from, m, &out)
	case *MsgVoteResp:
		e.stepVoteResp(from, m, &out)
	case *MsgAppendReq:
		e.stepAppendReq(from, m, &out)
	case *MsgAppendResp:
		e.stepAppendResp(from, m, &out)
	case *protocol.MsgInstallSnapshot:
		if m.Term >= e.term {
			e.becomeFollower(m.Term, from, &out)
		}
		if img, ok := e.catchup.Receive(from, m, e.term, e.commit, &out); ok {
			e.installSnapshot(img, &out)
		}
	case *protocol.MsgInstallSnapshotResp:
		if m.Term > e.term {
			e.becomeFollower(m.Term, protocol.None, &out)
		} else if e.role == Leader && e.catchup.Ack(from, m, e.term, &out) {
			e.resume(from, m.Index, &out)
		}
	case *MsgForward:
		e.act(e.front.Writes(m.Cmds, &out), &out)
	case *protocol.MsgReadForward:
		if m.Term > e.term {
			e.becomeFollower(m.Term, protocol.None, &out)
		}
		e.act(e.front.Forwarded(from, m, &out), &out)
	case *protocol.MsgFastAccept:
		return e.fast.StepAccept(m)
	case *protocol.MsgFastAck:
		if e.fast != nil {
			if m.Term > e.term {
				e.becomeFollower(m.Term, protocol.None, &out)
			}
			out.Merge(e.fast.StepAck(from, m))
		}
	}
	return out
}

func (e *Engine) stepVoteReq(from protocol.NodeID, m *MsgVoteReq, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
	}
	upToDate := m.LastTerm > e.log.TermAt(e.LastIndex()) ||
		(m.LastTerm == e.log.TermAt(e.LastIndex()) && m.LastIndex >= e.LastIndex())
	grant := m.Term == e.term &&
		(e.votedFor == protocol.None || e.votedFor == from) &&
		e.role != Leader && upToDate
	resp := &MsgVoteResp{Term: e.term, LastIndex: e.LastIndex()}
	if grant {
		e.votedFor = from
		e.timer.Reset()
		resp.Granted = true
		out.StateChanged = true
		// Election recovery, voter's half: ship the entries the rule asks
		// for. Compacted entries cannot be shipped, but any candidate that
		// can win a quorum is up-to-date with some replica holding the
		// committed (hence snapshotted) prefix, so clamping to the held
		// tail is safe. With the fast path on, the report reaches down to
		// the candidate's commit index under either rule: speculative
		// entries can diverge at indexes the up-to-date check never
		// compares, and the recovery count rule needs every voter's copy.
		lo := e.rules.ShipFrom(m.LastIndex)
		if e.fast != nil {
			lo = m.Commit + 1
		}
		if lo > 0 && e.LastIndex() >= lo {
			resp.Extra = e.log.Tail(max(lo, e.log.FirstIndex()))
			for i := range resp.Extra {
				resp.Extra[i].Bal = e.bal(resp.Extra[i])
			}
		}
	}
	e.send(from, resp, out)
}

func (e *Engine) stepVoteResp(from protocol.NodeID, m *MsgVoteResp, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
		return
	}
	if e.role != Candidate || m.Term != e.term || !m.Granted {
		return
	}
	e.votes[from] = true
	for _, ent := range m.Extra {
		cur, ok := e.extras[ent.Index]
		// safeEntry: keep the value accepted at the highest ballot.
		if !ok || ent.Bal > cur.Bal {
			e.extras[ent.Index] = ent
		}
		if ent.Index > e.extraMax {
			e.extraMax = ent.Index
		}
	}
	if e.fastVotes != nil {
		e.fastVotes[from] = m.Extra
	}
	if len(e.votes) >= protocol.Quorum(len(e.cfg.Peers)) {
		e.becomeLeader(out)
	}
}

func (e *Engine) becomeLeader(out *protocol.Output) {
	if e.fast != nil {
		// Fast-path recovery runs first and consumes the voters' reports:
		// ChooseFast picks the possibly-chosen value per slot — ratified
		// copies by highest ballot exactly like Raft*'s safe-value rule,
		// speculative copies by the count rule — from the candidate's
		// commit index up.
		e.adoptFastSuffix(out)
		e.fast.Reset(e.term)
	}
	// Election recovery, winner's half: whatever the rule adopts is an
	// accepted entry like any other — appended at our term and durable
	// before the leadership announcement (the appends below) goes out.
	adopt, next := e.rules.Recover(e)
	for _, cmd := range adopt {
		adopted := protocol.Entry{Index: e.LastIndex() + 1, Term: e.term, Bal: e.term, Cmd: cmd}
		e.log.Append(adopted)
		out.AppendedEntries = append(out.AppendedEntries, adopted)
	}
	e.logBal = e.term
	e.role = Leader
	e.leader = e.cfg.ID
	e.votes = nil
	e.extras = nil
	e.next = make(map[protocol.NodeID]int64, len(e.cfg.Peers))
	e.match = make(map[protocol.NodeID]int64, len(e.cfg.Peers))
	e.inflight = make(map[protocol.NodeID][]sentAppend, len(e.cfg.Peers))
	e.clocked = make(map[protocol.NodeID]bool, len(e.cfg.Peers))
	e.catchup.Drop()
	for _, p := range e.cfg.Peers {
		e.next[p] = next
		e.match[p] = 0
	}
	e.tally.Reset(e.commit)
	for i := e.commit + 1; i <= e.LastIndex(); i++ {
		e.tally.Open(i)
	}
	if e.cfg.Hooks.OnAccept != nil && e.log.Len() > 0 {
		e.observeAccepted(e.log.Tail(e.log.FirstIndex()))
	}
	out.StateChanged = true
	e.timer.Lead()
	// Reads wait for the log's end at election to commit at our term —
	// Raft*'s re-proposed log, Raft's no-op barrier.
	e.front.Elect(e.LastIndex())
	if len(e.cfg.Peers) == 1 {
		e.maybeCommit(out)
	}
	// The first appends double as the leadership announcement.
	e.broadcastAppend(out, true)
	e.act(e.front.Flush(out), out)
}

// Submit implements protocol.Engine: the leader appends the whole batch
// locally and replicates it in one append broadcast — the MultiPaxos
// batched-accept optimization, which ports to Raft* unchanged.
func (e *Engine) Submit(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	e.act(e.front.Writes(cmds, &out), &out)
	return out
}

// SubmitRead implements protocol.Engine: with ReadIndex enabled, the
// leader serves the batch from the state machine after one leadership
// confirmation round shared by the whole batch — no log append, no fsync;
// otherwise Raft* serves strongly consistent reads by running them
// through the log, exactly like writes.
func (e *Engine) SubmitRead(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	e.act(e.front.Reads(cmds, protocol.None, &out), &out)
	return out
}

// propose is the leader's classic write path: append the batch locally and
// replicate it in one append broadcast.
func (e *Engine) propose(cmds []protocol.Command, out *protocol.Output) {
	for _, cmd := range cmds {
		e.appendLocal(cmd, out)
	}
	if len(e.cfg.Peers) == 1 {
		e.maybeCommit(out) // a lone replica's own vote is the quorum
	}
	e.broadcastAppend(out, false)
}

func (e *Engine) appendLocal(cmd protocol.Command, out *protocol.Output) {
	ent := protocol.Entry{Index: e.LastIndex() + 1, Term: e.term, Bal: e.term, Cmd: cmd}
	e.log.Append(ent)
	e.tally.Open(ent.Index)
	// The leader's copy is one acceptor's vote among n: it is persisted like
	// a follower's and counts toward the commit quorum only once the self-ack
	// riding a later round proves it durable (maybeCommit).
	out.AppendedEntries = append(out.AppendedEntries, ent)
	out.StateChanged = true
	if h := e.cfg.Hooks.OnAccept; h != nil {
		h(ent.Index, ent.Cmd)
	}
}

// observeAccepted reports ents, now held in the local log, to Hooks.OnAccept.
func (e *Engine) observeAccepted(ents []protocol.Entry) {
	if h := e.cfg.Hooks.OnAccept; h != nil {
		for i := range ents {
			h(ents[i].Index, ents[i].Cmd)
		}
	}
}

func (e *Engine) broadcastAppend(out *protocol.Output, heartbeat bool) {
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		e.sendAppend(p, out, heartbeat)
	}
}

// sendAppend ships log[next..] to p, respecting batch and inflight limits.
// When heartbeat is set, an empty append is sent even if nothing is new.
//
// The send rule is ack-clocked: a clocked follower — one that answers
// within the tick an append left in — gets one append per round trip, and
// entries proposed meanwhile wait for the ack, which ships them as one
// batch. A follower slower than that gets up to maxInflight appends
// pipelined, one per proposal, and Tick moves a clocked follower whose
// append stays unanswered past a tick (a disk stall, a lost append) back
// to pipelining. On links whose round trip is under a tick a write thus
// waits up to one round trip for the append in flight.
func (e *Engine) sendAppend(p protocol.NodeID, out *protocol.Output, heartbeat bool) {
	next := e.next[p]
	if !heartbeat {
		if next > e.LastIndex() {
			return
		}
		if n := len(e.inflight[p]); n >= maxInflight || (n > 0 && e.clocked[p]) {
			return // the ack in flight will trigger the next batch
		}
	}
	if next < e.log.FirstIndex() {
		// The compacted prefix cannot be resent entry-by-entry; start at
		// the held tail (the prefix is committed everywhere that matters —
		// shipping state to a peer behind the snapshot needs a snapshot
		// transfer, not an append).
		next = e.log.FirstIndex()
	}
	end := e.LastIndex()
	if end > next-1+maxBatch {
		end = next - 1 + maxBatch
	}
	var ents []protocol.Entry
	if end >= next {
		ents = e.log.Slice(next, end)
	}
	req := &MsgAppendReq{
		Term:      e.term,
		PrevIndex: next - 1,
		PrevTerm:  e.log.TermAt(next - 1),
		Entries:   ents,
		Commit:    e.commit,
		ReadCtx:   e.front.ReadCtx(),
	}
	if e.fast != nil {
		if prev, ok := e.log.At(next - 1); ok {
			req.PrevID = prev.Cmd.ID
		}
	}
	e.send(p, req, out)
	if end >= next {
		e.next[p] = end + 1 // optimistic pipelining
		e.inflight[p] = append(e.inflight[p], sentAppend{last: end, tick: e.ticks})
	}
}

// unclock moves every clocked follower with an append still in flight —
// sent before this tick, which Tick has just begun — back to pipelining,
// and sends what it held.
func (e *Engine) unclock(out *protocol.Output) {
	for _, p := range e.cfg.Peers {
		if e.clocked[p] && len(e.inflight[p]) > 0 {
			e.clocked[p] = false
			e.sendAppend(p, out, false)
		}
	}
}

func (e *Engine) stepAppendReq(from protocol.NodeID, m *MsgAppendReq, out *protocol.Output) {
	resp := &MsgAppendResp{Term: e.term, LastIndex: e.LastIndex()}
	if m.Term < e.term {
		e.send(from, resp, out)
		return
	}
	e.becomeFollower(m.Term, from, out)
	resp.Term = e.term
	// Echo the read confirmation ctx whenever we answer at the sender's
	// term — even a reject acknowledges its leadership, which is all the
	// ReadIndex round needs.
	resp.ReadCtx = m.ReadCtx

	switch {
	case m.PrevIndex > e.LastIndex():
		// Missing entries before PrevIndex: hint our last index.
		resp.LastIndex = e.LastIndex()
	case m.PrevIndex >= e.log.Base() && e.log.TermAt(m.PrevIndex) != m.PrevTerm:
		// Conflicting predecessor: hint one before PrevIndex. A PrevIndex
		// below our compaction base cannot conflict — everything at or
		// below the base is committed, hence identical on any leader.
		resp.LastIndex = m.PrevIndex - 1
	case e.fast != nil && e.specConflict(m.PrevIndex, m.PrevID):
		// Our entry at PrevIndex names a different command than the
		// leader's: a fast accept collided with it at the same (index,
		// term), which the PrevTerm check alone cannot distinguish. Back
		// up so the leader resends from the divergence point.
		resp.LastIndex = m.PrevIndex - 1
	default:
		v := e.rules.Accept(e, m)
		if v.Reject {
			resp.LastIndex = v.Hint
			break
		}
		resp.Ok = true
		resp.LastIndex = e.accept(m, v, out)
		if h := e.cfg.Hooks.Holders; h != nil {
			resp.Holders = h()
		}
		if c := min(m.Commit, resp.LastIndex); c > e.commit {
			e.advanceCommit(c, out)
		}
		if e.fast != nil {
			out.Merge(e.fast.TryCommit())
		}
	}
	e.send(from, resp, out)
}

// accept applies an append the accept rule admitted and returns the index
// through which our log is now verified against the leader's. Entries from
// v.From on are written — over whatever is held there, after erasing the
// held suffix when the rule says so; entries at or below the compaction
// base are already committed and snapshotted here and are skipped. Every
// entry written is emitted for persistence stamped with its ballot — for
// Raft* the re-stamp a restarted replica's RestoreLog rebuilds the uniform
// log ballot from — and must be durable before the ack leaves
// (Output.AppendedEntries); the store's overwriting append erases the same
// stale suffix an in-memory erase did.
func (e *Engine) accept(m *MsgAppendReq, v Verdict, out *protocol.Output) int64 {
	end := m.PrevIndex + int64(len(m.Entries))
	if e.specFrom > 0 {
		// Speculative slots the append overwrites or erases leave
		// speculation now; a command the leader's copy displaces reaches the
		// log through the leader or not at all.
		lo, hi := max(e.specFrom, v.From), min(end, e.LastIndex())
		if v.Erase {
			hi = e.LastIndex()
		}
		for slot := lo; slot <= hi; slot++ {
			old, _ := e.log.At(slot)
			if slot > end || old.Cmd.ID != m.Entries[slot-m.PrevIndex-1].Cmd.ID {
				e.fast.Displaced(old.Cmd.ID)
			}
		}
	}
	if v.Erase {
		e.log.TruncateSuffix(v.From - 1)
	}
	wrote := false
	for _, ent := range m.Entries {
		if ent.Index < v.From || ent.Index <= e.log.Base() {
			continue
		}
		if ent.Index <= e.LastIndex() {
			e.log.Set(ent.Index, ent)
		} else {
			e.log.Append(ent)
		}
		ent.Bal = e.rules.Ballot(ent, m.Term)
		out.AppendedEntries = append(out.AppendedEntries, ent)
		wrote = true
	}
	e.logBal = m.Term
	if e.specFrom > 0 {
		// The watermark advances only when the append covered the whole
		// speculative prefix: a lost earlier append leaves slots below
		// PrevIndex unverified, and they must stay speculative until the
		// leader's resend covers them.
		if e.specFrom > m.PrevIndex && e.specFrom <= end {
			e.specFrom = end + 1
		}
		if e.specFrom > e.LastIndex() {
			e.specFrom = 0
		}
	}
	if wrote {
		// Restate the speculative tail held above the append, or the
		// store's append erases what we keep (and have fast-acked).
		for i := end + 1; i <= e.LastIndex(); i++ {
			ent, _ := e.log.At(i)
			ent.Bal = e.bal(ent)
			out.AppendedEntries = append(out.AppendedEntries, ent)
		}
	}
	e.observeAccepted(m.Entries)
	out.StateChanged = true
	// Report the verified prefix: with a speculative tail left beyond this
	// append's end, or an unverified stretch below its start, only entries
	// under the watermark are known to match the leader (the rest is not
	// the leader's to count yet).
	if e.specFrom > 0 {
		return min(end, e.specFrom-1)
	}
	return end
}

func (e *Engine) stepAppendResp(from protocol.NodeID, m *MsgAppendResp, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
		return
	}
	if e.role != Leader || m.Term != e.term {
		return
	}
	if from == e.cfg.ID {
		// Our own vote, handed back once the round it rode was durable. The
		// driver may have raised LastIndex to all its store holds durably
		// (CoverDurable): a leader's log only grows within its term,
		// so that is still a prefix of this log.
		e.matched(from, m.LastIndex)
		e.maybeCommit(out)
		return
	}
	e.front.Echo(from, m.ReadCtx, out)
	if q := e.inflight[from]; len(q) > 0 {
		// A response retires the oldest append, whatever it answers; the
		// link is clocked if it answered that append in full, in time.
		e.clocked[from] = m.Ok && m.LastIndex >= q[0].last && q[0].tick == e.ticks
		e.inflight[from] = q[:copy(q, q[1:])]
	}
	if !m.Ok {
		// Either the follower is behind (resend from its hint) or — only
		// under Raft*'s never-shorten accept rule — its log is longer than
		// ours (extend with safe no-op proposals: indexes past a fresh
		// leader's log are provably uncommitted, because the vote quorum
		// shipped every possibly-chosen entry).
		if m.LastIndex > e.LastIndex() {
			for i := e.LastIndex() + 1; i <= m.LastIndex; i++ {
				e.appendLocal(protocol.Command{Op: protocol.OpNop}, out)
			}
		}
		e.next[from] = max(1, min(m.LastIndex+1, e.LastIndex()+1))
		if e.next[from] < e.log.FirstIndex() {
			// The follower needs entries below our compaction base, which
			// log replay can never provide: ship the snapshot image instead.
			// (Without a provider this degrades to heartbeat-cadence probes.)
			e.catchup.Send(from, e.term, e.log.FirstIndex(), out)
			return
		}
		e.sendAppend(from, out, false)
		return
	}
	e.matched(from, m.LastIndex)
	if e.next[from] <= e.match[from] {
		e.next[from] = e.match[from] + 1
	}
	if h := e.cfg.Hooks.OnAck; h != nil {
		h(from, m.Holders)
	}
	e.maybeCommit(out)
	// Continue pipelining if the follower is still behind.
	if e.next[from] <= e.LastIndex() {
		e.sendAppend(from, out, false)
	}
}

// installSnapshot adopts a fully assembled image: everything at or below
// its index is chosen and lives in the image, so the in-memory log
// re-anchors there and the driver persists the image before applying
// anything above it. A held suffix beyond the image survives only when
// its entry at the boundary agrees with the image's term (etcd-raft's
// rule) — keeping a conflicting suffix would also record the conflicting
// local term as the base term, and every resumed append at
// PrevIndex=img.Index would then be rejected forever.
func (e *Engine) installSnapshot(img protocol.SnapshotImage, out *protocol.Output) {
	if ent, ok := e.log.At(img.Index); ok && ent.Term == img.Term && img.Index < e.log.LastIndex() {
		e.log.TruncatePrefix(img.Index)
	} else {
		e.log.Restore(img.Index, img.Term, nil)
	}
	e.commit = img.Index
	if img.Term > e.logBal {
		e.logBal = img.Term
	}
	if e.specFrom > 0 && e.specFrom <= e.commit {
		e.specFrom = e.commit + 1
		if e.specFrom > e.LastIndex() {
			e.specFrom = 0
		}
	}
	e.fast.Forget(e.commit)
	out.StateChanged = true
	out.InstalledSnapshot = &img
}

// resume restarts replication to p once it installed the image at index:
// its replication state resets to the snapshot boundary so pipelining
// resumes at once instead of stalling until the next heartbeat probe.
func (e *Engine) resume(p protocol.NodeID, index int64, out *protocol.Output) {
	e.matched(p, index)
	e.next[p] = e.match[p] + 1
	e.inflight[p] = nil
	e.maybeCommit(out)
	if e.next[p] <= e.LastIndex() {
		e.sendAppend(p, out, false)
	}
}

// matched raises p's match index to last, and with it p's votes.
func (e *Engine) matched(p protocol.NodeID, last int64) {
	if was := e.match[p]; last > was {
		e.match[p] = last
		e.tally.Ack(p, was+1, last)
	}
}

// maybeCommit advances the leader's commit index to what the commit rule
// allows of the quorum-replicated prefix, counting the leader's own copy
// only as far as its self-ack proved durable, like a follower's. When
// counting its whole log would commit more — n = 1, a follower down, or one
// follower's ack in before the other's — it asks for that ack, once per
// index (protocol.Votes.Decisive): a MsgAppendResp addressed to itself,
// which the runtime hands back once the round it rides is durable.
func (e *Engine) maybeCommit(out *protocol.Output) {
	if e.role != Leader {
		return
	}
	if c := e.rules.Commit(e, e.tally.Top(false)); c > e.commit {
		e.advanceCommit(c, out)
	}
	if e.tally.Decisive(e.rules.Commit(e, e.tally.Top(true))) {
		e.tally.Ask()
		e.send(e.cfg.ID, &MsgAppendResp{Term: e.term, Ok: true, LastIndex: e.LastIndex()}, out)
	}
}

func (e *Engine) advanceCommit(to int64, out *protocol.Output) {
	for i := e.commit + 1; i <= to; i++ {
		ent, _ := e.log.At(i)
		ent.Bal = e.bal(ent)
		reply := e.fast.Reply(i, ent.Cmd, e.role == Leader && ent.Cmd.Client != protocol.None)
		out.Commits = append(out.Commits, protocol.CommitInfo{Entry: ent, Reply: reply})
	}
	e.commit = to
	e.tally.Advance(to)
	// Committed slots are chosen and leave speculation by definition.
	if e.specFrom > 0 && e.specFrom <= to {
		e.specFrom = to + 1
		if e.specFrom > e.LastIndex() {
			e.specFrom = 0
		}
	}
	e.fast.Forget(to)
}

// The moves this family lends protocol.FastPath (protocol.FastHost), beside
// propose and advanceCommit.

func (e *Engine) heldID(i int64) (uint64, bool) {
	ent, ok := e.log.At(i)
	return ent.Cmd.ID, ok
}

// speculate appends cmds at the log end at ballot 0 and starts the
// speculative tail there if there was none.
func (e *Engine) speculate(cmds []protocol.Command, out *protocol.Output) {
	base := e.LastIndex() + 1
	for i, cmd := range cmds {
		ent := protocol.Entry{Index: base + int64(i), Term: e.term, Bal: 0, Cmd: cmd}
		e.log.Append(ent)
		out.AppendedEntries = append(out.AppendedEntries, ent)
	}
	if e.specFrom == 0 {
		e.specFrom = base
	}
	out.StateChanged = true
}

// repair backs replication to p up to slot, where its speculative suffix
// diverged from our log.
func (e *Engine) repair(p protocol.NodeID, slot int64, out *protocol.Output) {
	if e.next[p] > slot {
		e.next[p] = slot
		e.sendAppend(p, out, false)
	}
}

// specConflict reports whether our entry at idx names a command other
// than id, the leader's copy. Speculative entries make this check
// essential — they are not unique per (index, term), so the PrevTerm
// check alone cannot see the divergence — but it guards classic entries
// too: a mismatch there means our line diverged from the leader's and
// backing up to overwrite is always the safe answer. id 0 is the leader
// saying nothing (it no longer holds the entry) or naming a no-op; a
// classic entry passes on the PrevTerm check then, but a speculative one —
// always a client command — cannot be told from the leader's and conflicts.
func (e *Engine) specConflict(idx int64, id uint64) bool {
	ent, ok := e.log.At(idx)
	if !ok || (id == 0 && !e.speculative(idx)) {
		return false
	}
	return ent.Cmd.ID != id
}

// adoptFastSuffix runs the fast-path election recovery over the vote
// quorum's log reports (protocol.ChooseFast): for every slot above our
// commit index, pick the value that may have been fast-chosen — ratified
// copies by highest ballot, exactly the base safe-value rule; speculative
// copies by the count rule — and install it in our own log at our term,
// the classic re-proposal Fast Paxos recovery calls for: Raft* re-proposes
// its whole log at the new ballot right after, and Raft's §5.4.2 no-op
// barrier, appended right after, commits the suffix classically. The
// reports are consumed: nothing is left for the rule's own recovery.
func (e *Engine) adoptFastSuffix(out *protocol.Output) {
	participants := len(e.votes)
	n := len(e.cfg.Peers)
	// Reports are gathered in voter ID order: below the recovery threshold
	// ChooseFast adopts the first one, and map order would make that pick —
	// and with it the replay of a seed — vary from run to run.
	voters := make([]protocol.NodeID, 0, len(e.fastVotes))
	for id := range e.fastVotes {
		voters = append(voters, id)
	}
	slices.Sort(voters)
	rewriting := false
	// Scan our own log too: fast accepts may have grown it past every report.
	for slot := e.commit + 1; slot <= max(e.extraMax, e.LastIndex()); slot++ {
		var reports []protocol.FastReport
		own, ownHeld := e.log.At(slot)
		if ownHeld {
			reports = append(reports, protocol.FastReport{Bal: e.bal(own), Cmd: own.Cmd})
		}
		for _, id := range voters {
			ents := e.fastVotes[id]
			for i := range ents {
				if ents[i].Index == slot {
					reports = append(reports, protocol.FastReport{Bal: ents[i].Bal, Cmd: ents[i].Cmd})
					break
				}
			}
		}
		cmd, ok := protocol.ChooseFast(reports, participants, n)
		if !ok {
			break // nobody reported anything at or above this slot
		}
		if !rewriting && ownHeld && own.Cmd.ID == cmd.ID && e.bal(own) > 0 {
			// Ratified in place: classic entries are unique per (index, term),
			// so the entry's term history can stand and the uniform re-stamp
			// ratifies it at our ballot.
			continue
		}
		// From the first slot whose entry changes — in content, or merely
		// from speculative to classic — the rest of the suffix is rewritten
		// at our term. A kept speculative value must NOT keep its entry term:
		// speculative entries are not unique per (index, term) — a replica
		// that classically accepted a different command at this slot under an
		// older leader carries the same term there, and only a fresh term
		// here lets the append boundary check (PrevTerm) expose the
		// divergence to that replica. Rewriting everything from the first
		// change also keeps the emitted suffix contiguous for the WAL.
		rewriting = true
		adopted := protocol.Entry{Index: slot, Term: e.term, Bal: e.term, Cmd: cmd}
		if ownHeld {
			if own.Cmd.ID != cmd.ID {
				e.fast.Displaced(own.Cmd.ID)
			}
			e.log.Set(slot, adopted)
		} else {
			e.log.Append(adopted)
		}
		// Adoptions are accepted entries like any other: durable before the
		// leadership announcement goes out.
		out.AppendedEntries = append(out.AppendedEntries, adopted)
	}
	e.fastVotes = nil
	e.extraMax = e.LastIndex()
	e.specFrom = 0 // every slot above our commit index is now ratified or rewritten
	if rewriting {
		out.StateChanged = true
	}
}

// Recheck re-evaluates the commit rule without new input: the set
// Hooks.MustAck names shrinks as leases expire, which may unblock writes
// that were waiting on a dead holder.
func (e *Engine) Recheck() protocol.Output {
	var out protocol.Output
	e.maybeCommit(&out)
	return out
}

// MatchIndex returns the leader's view of how much of the log peer p has
// acknowledged this term (0 when not leader).
func (e *Engine) MatchIndex(p protocol.NodeID) int64 {
	if e.role != Leader {
		return 0
	}
	return e.match[p]
}
