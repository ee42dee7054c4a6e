// Package raftstar implements Raft*, the Raft variant introduced by the
// paper (Figure 2, including the blue additions) for which a refinement
// mapping to MultiPaxos exists — and with it the one log-replication
// engine of the Raft family: roles, timers, votes, batching, pipelining,
// snapshot transfer, ReadIndex and the fast write path exist here once.
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
	"math/rand"
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
	// MaxBatch caps entries per append message (0 = 1024).
	MaxBatch int
	// MaxInflight caps pipelined appends per follower (0 = 16).
	MaxInflight int
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
	if out.MaxInflight <= 0 {
		out.MaxInflight = 16
	}
	return out
}

// Engine is a single replica: Raft* when built by New, standard Raft when
// package raft builds it over its own Rules.
type Engine struct {
	cfg   Config
	rules Rules
	rng   *rand.Rand

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

	// Leader state. match[ID] is the leader's own vote, raised only by its
	// self-ack (maybeCommit); selfAsked is the highest index one was asked
	// for this term; scratch is maybeCommit's sorting buffer.
	next      map[protocol.NodeID]int64
	match     map[protocol.NodeID]int64
	inflight  map[protocol.NodeID]int
	selfAsked int64
	scratch   []int64

	// provider supplies the durable snapshot image a leader ships to a
	// peer stranded below the compaction base; xfers tracks one chunked
	// transfer per such peer, snapAsm reassembles an inbound one.
	provider protocol.SnapshotProvider
	xfers    map[protocol.NodeID]*protocol.SnapshotXfer
	snapAsm  protocol.SnapshotAssembly

	elapsed   int
	timeout   int
	hbElapsed int

	// Commands buffered while no leader is known.
	pending []protocol.Command
	// ReadIndex state: reads tracks confirmation rounds at the leader;
	// readBarrier is the leader's last log index at election (whatever the
	// recovery rule adopted included) — every entry a predecessor might
	// have committed sits at or below it, so a read's index is clamped up
	// to it until it commits at this ballot; pendingReads buffers reads
	// submitted while no leader is known.
	reads        protocol.ReadTracker
	readBarrier  int64
	pendingReads []protocol.Command

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

// New builds a Raft* replica.
func New(cfg Config) *Engine { return NewWithRules(cfg, star{}) }

// NewWithRules builds a replica that runs the shared engine under rules.
// The variant is fixed here, by the constructor called; one group must not
// mix variants, and package raft keeps its own wire tags so that it cannot.
func NewWithRules(cfg Config, rules Rules) *Engine {
	c := cfg.withDefaults()
	e := &Engine{
		cfg:      c,
		rules:    rules,
		rng:      rand.New(rand.NewSource(c.Seed ^ int64(c.ID)<<17)),
		votedFor: protocol.None,
		role:     Follower,
		leader:   protocol.None,
		scratch:  make([]int64, 0, len(c.Peers)),
	}
	if c.FastPath {
		e.fast = protocol.NewFastPath(c.ID, c.Peers, protocol.FastHost{
			Term: e.Term, IsLeader: e.IsLeader, LastIndex: e.LastIndex, Commit: e.CommitIndex,
			HeldID: e.heldID, Speculate: e.speculate, Propose: e.propose,
			Repair: e.repair, Choose: e.advanceCommit,
		})
	}
	e.resetTimeout()
	return e
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
func (e *Engine) SetSnapshotProvider(p protocol.SnapshotProvider) { e.provider = p }

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

// TruncatePrefix implements protocol.PrefixTruncator: drop in-memory
// entries at or below through (clamped to the commit index — uncommitted
// entries may still be rewritten and must stay). Index arithmetic stays in
// global log-index space throughout.
func (e *Engine) TruncatePrefix(through int64) {
	if through > e.commit {
		through = e.commit
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

func (e *Engine) termAt(i int64) uint64 { return e.log.TermAt(i) }

func (e *Engine) quorum() int { return protocol.Quorum(len(e.cfg.Peers)) }

func (e *Engine) resetTimeout() {
	e.elapsed = 0
	e.timeout = e.cfg.ElectionTicks + e.rng.Intn(e.cfg.ElectionTicks)
}

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output {
	var out protocol.Output
	if e.role == Leader {
		e.hbElapsed++
		if e.hbElapsed >= e.cfg.HeartbeatTicks {
			e.hbElapsed = 0
			e.broadcastAppend(&out, true)
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
	e.reads.FailAll(out)
	e.leader = protocol.None
	e.votedFor = e.cfg.ID
	e.votes = map[protocol.NodeID]bool{e.cfg.ID: true}
	e.extras = make(map[int64]protocol.Entry)
	e.extraMax = e.LastIndex()
	e.resetTimeout()
	out.StateChanged = true
	if e.fast != nil {
		e.fastVotes = make(map[protocol.NodeID][]protocol.Entry)
	}
	req := &MsgVoteReq{Term: e.term, LastIndex: e.LastIndex(), LastTerm: e.termAt(e.LastIndex()), Commit: e.commit}
	for _, p := range e.cfg.Peers {
		if p == e.cfg.ID {
			continue
		}
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: req})
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
	e.xfers = nil // outbound transfers are leader state
	// Reads awaiting confirmation die with the leadership: fail them fast
	// so clients retry at the new leader instead of hanging (no-op unless
	// this replica was leading).
	e.reads.FailAll(out)
	if leader != protocol.None {
		e.leader = leader
		e.flushPending(out)
	}
	e.resetTimeout()
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
	upToDate := m.LastTerm > e.termAt(e.LastIndex()) ||
		(m.LastTerm == e.termAt(e.LastIndex()) && m.LastIndex >= e.LastIndex())
	grant := m.Term == e.term &&
		(e.votedFor == protocol.None || e.votedFor == from) &&
		e.role != Leader && upToDate
	resp := &MsgVoteResp{Term: e.term, LastIndex: e.LastIndex()}
	if grant {
		e.votedFor = from
		e.resetTimeout()
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
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
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
	if len(e.votes) >= e.quorum() {
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
	e.inflight = make(map[protocol.NodeID]int, len(e.cfg.Peers))
	e.xfers = make(map[protocol.NodeID]*protocol.SnapshotXfer)
	for _, p := range e.cfg.Peers {
		e.next[p] = next
		e.match[p] = 0
	}
	e.selfAsked = 0
	if e.cfg.Hooks.OnAccept != nil && e.log.Len() > 0 {
		e.observeAccepted(e.log.Tail(e.log.FirstIndex()))
	}
	out.StateChanged = true
	e.hbElapsed = 0
	// ReadIndex reads may not be served below the log's end at election:
	// everything a predecessor might have committed sits at or below it
	// (Raft*: the vote quorum shipped every possibly-chosen entry; Raft:
	// the election restriction), and is reflected in our commit index only
	// once an entry of our own ballot commits — Raft*'s re-proposed log,
	// Raft's no-op barrier.
	e.readBarrier = e.LastIndex()
	e.reads.Reset(e.quorum(), e.cfg.UnsafeSkipReadQuorum)
	if len(e.cfg.Peers) == 1 {
		e.maybeCommit(out)
	}
	// The first appends double as the leadership announcement.
	e.broadcastAppend(out, true)
	e.flushPending(out)
}

// Submit implements protocol.Engine.
func (e *Engine) Submit(cmd protocol.Command) protocol.Output {
	return e.SubmitBatch([]protocol.Command{cmd})
}

// SubmitBatch implements protocol.BatchSubmitter: the leader appends the
// whole batch locally and replicates it in one append broadcast — the
// MultiPaxos batched-accept optimization, which ports to Raft* unchanged.
func (e *Engine) SubmitBatch(cmds []protocol.Command) protocol.Output {
	var out protocol.Output
	if len(cmds) == 0 {
		return out
	}
	switch {
	case e.role == Leader:
		e.propose(cmds, &out)
	case e.fast != nil && e.leader != protocol.None:
		return e.fast.Submit(cmds)
	case e.leader != protocol.None:
		// etcd-style follower forwarding.
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
			out.Replies = append(out.Replies, protocol.ClientReply{
				Kind: ReplyKindFor(cmd), CmdID: cmd.ID, Client: cmd.Client, Err: protocol.ErrNotLeader,
			})
		}
	}
	return out
}

// ReplyKindFor maps a command's op to the reply kind the client expects.
func ReplyKindFor(cmd protocol.Command) protocol.ReplyKind {
	if cmd.Op == protocol.OpGet {
		return protocol.ReplyRead
	}
	return protocol.ReplyWrite
}

// SubmitRead implements protocol.Engine: with ReadIndex enabled, the
// leader serves the read from the state machine after one leadership
// confirmation round — no log append, no fsync; otherwise Raft* serves
// strongly consistent reads by running them through the log, exactly
// like writes.
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

// stepReadForward handles reads a follower forwarded. The stamp is the
// forwarder's term when it sent them: higher than ours deposes us like
// any higher-term message (the reads then re-route, never served here);
// equal to ours at the leader makes the forwarder a quorum witness for
// exactly these reads (protocol.ReadTracker); lower proves nothing and
// gets the full confirmation round.
func (e *Engine) stepReadForward(from protocol.NodeID, m *protocol.MsgReadForward, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
	}
	witness := protocol.None
	if m.Term == e.term {
		witness = from
	}
	e.submitReads(m.Cmds, witness, out)
}

// submitReads serves cmds through ReadIndex at the leader — the read index
// is the commit index clamped up to the election barrier (the last index
// with the fast path on: protocol.FastPath.ReadIndex), and a heartbeat
// broadcast carrying the batch's ctx starts the confirmation immediately
// instead of waiting out the heartbeat interval, unless leader + witness
// already confirmed it — and routes them toward the leader elsewhere.
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
	case e.role == Leader:
		e.reads.Add(cmds, e.fast.ReadIndex(max(e.commit, e.readBarrier)), witness, out)
		if e.reads.Unsent() {
			e.broadcastAppend(out, true)
		}
	default:
		protocol.RouteReads(e.cfg.ID, e.leader, e.term, &e.pendingReads, cmds, out)
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
	if e.role == Leader {
		e.propose(cmds, out)
		return
	}
	out.Msgs = append(out.Msgs, protocol.Envelope{
		From: e.cfg.ID, To: e.leader, Msg: &MsgForward{Cmds: cmds},
	})
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
// When heartbeat is set, an empty append is sent even if nothing is pending.
func (e *Engine) sendAppend(p protocol.NodeID, out *protocol.Output, heartbeat bool) {
	next := e.next[p]
	if next > e.LastIndex() && !heartbeat {
		return
	}
	if e.inflight[p] >= e.cfg.MaxInflight && !heartbeat {
		return // pipelining cap; the ack will trigger the next batch
	}
	if next < e.log.FirstIndex() {
		// The compacted prefix cannot be resent entry-by-entry; start at
		// the held tail (the prefix is committed everywhere that matters —
		// shipping state to a peer behind the snapshot needs a snapshot
		// transfer, not an append).
		next = e.log.FirstIndex()
	}
	end := e.LastIndex()
	if end > next-1+int64(e.cfg.MaxBatch) {
		end = next - 1 + int64(e.cfg.MaxBatch)
	}
	var ents []protocol.Entry
	if end >= next {
		ents = e.log.Slice(next, end)
	}
	req := &MsgAppendReq{
		Term:      e.term,
		PrevIndex: next - 1,
		PrevTerm:  e.termAt(next - 1),
		Entries:   ents,
		Commit:    e.commit,
		ReadCtx:   e.reads.MaxCtx(),
	}
	if e.fast != nil {
		if prev, ok := e.log.At(next - 1); ok {
			req.PrevID = prev.Cmd.ID
		}
	}
	// The ctx is now in flight: later reads must open a fresh one (an
	// echo of this ctx only proves leadership up to this send).
	e.reads.MarkSent()
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: req})
	if end >= next {
		e.next[p] = end + 1 // optimistic pipelining
		e.inflight[p]++
	}
}

func (e *Engine) stepAppendReq(from protocol.NodeID, m *MsgAppendReq, out *protocol.Output) {
	resp := &MsgAppendResp{Term: e.term, LastIndex: e.LastIndex()}
	if m.Term < e.term {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
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
	case m.PrevIndex >= e.log.Base() && e.termAt(m.PrevIndex) != m.PrevTerm:
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
	out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
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
		e.match[from] = max(e.match[from], m.LastIndex)
		e.maybeCommit(out)
		return
	}
	if m.ReadCtx > 0 {
		// The follower processed a message we sent while still leading:
		// that confirms every read batch at or below the echoed ctx.
		e.reads.Ack(from, m.ReadCtx, out)
	}
	if e.inflight[from] > 0 {
		e.inflight[from]--
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
			e.beginSnapshotTransfer(from, out)
			return
		}
		e.sendAppend(from, out, false)
		return
	}
	if m.LastIndex > e.match[from] {
		e.match[from] = m.LastIndex
	}
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

// beginSnapshotTransfer starts (or nudges) the chunked shipment of the
// latest durable snapshot to p, whose next index fell below the held
// tail. Chunks are ack-paced — one in flight, advanced per response — so
// heartbeats on the same per-peer stream are never head-of-line blocked
// behind a multi-megabyte image. This is the same mechanism the
// multipaxos engine uses: the transfer machinery ports across the family
// unchanged, like the paper's other optimizations.
func (e *Engine) beginSnapshotTransfer(p protocol.NodeID, out *protocol.Output) {
	if x, ok := e.xfers[p]; ok {
		// Already transferring: re-send the current chunk only after a
		// full heartbeat-cadence interval of silence (chunk or ack lost).
		if x.Retry() {
			if chunk := x.Chunk(e.term); chunk != nil {
				out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: chunk})
			}
		}
		return
	}
	if e.provider == nil {
		return // no image source: heartbeat probing is all we can do
	}
	img, ok := e.provider.LatestSnapshotImage()
	if !ok || img.Index+1 < e.log.FirstIndex() {
		// No durable image, or it predates our held tail: the peer could
		// not resume replay above it, so shipping it would not help.
		return
	}
	x := &protocol.SnapshotXfer{Img: img}
	e.xfers[p] = x
	if chunk := x.Chunk(e.term); chunk != nil {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: p, Msg: chunk})
	}
}

// stepInstallSnapshot receives one chunk of a leader's snapshot,
// assembling the image and adopting it when complete: the log re-anchors
// at the image boundary and the driver is told (Output.InstalledSnapshot)
// to persist it and restore the state machine, after which replication
// resumes from the snapshot index.
func (e *Engine) stepInstallSnapshot(from protocol.NodeID, m *protocol.MsgInstallSnapshot, out *protocol.Output) {
	resp := &protocol.MsgInstallSnapshotResp{Term: e.term, Index: m.Index}
	if m.Term < e.term {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: resp})
		return
	}
	e.becomeFollower(m.Term, from, out)
	resp.Term = e.term
	if m.Index <= e.commit {
		// Already covered locally (duplicate transfer or a stale chunk):
		// nothing to install; the ack lets the leader resume appends.
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

// installSnapshot adopts a fully assembled image: everything at or below
// its index is chosen and lives in the image, so the in-memory log
// re-anchors there and the driver persists the image before applying
// anything above it. A held suffix beyond the image survives only when
// its entry at the boundary agrees with the image's term (etcd-raft's
// rule) — keeping a conflicting suffix would also record the conflicting
// local term as the base term, and every resumed append at
// PrevIndex=img.Index would then be rejected forever.
func (e *Engine) installSnapshot(img protocol.SnapshotImage, out *protocol.Output) {
	if img.Index <= e.commit {
		return
	}
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

// stepInstallSnapshotResp paces an outbound transfer: each ack releases
// the next chunk, and the final Installed ack resets the follower's
// replication state to the snapshot boundary so pipelining resumes
// immediately instead of stalling until the next heartbeat probe.
func (e *Engine) stepInstallSnapshotResp(from protocol.NodeID, m *protocol.MsgInstallSnapshotResp, out *protocol.Output) {
	if m.Term > e.term {
		e.becomeFollower(m.Term, protocol.None, out)
		return
	}
	if e.role != Leader || m.Term != e.term {
		return
	}
	x := e.xfers[from]
	if x == nil || x.Img.Index != m.Index {
		return // ack from an older transfer
	}
	if m.Installed {
		delete(e.xfers, from)
		if m.Index > e.match[from] {
			e.match[from] = m.Index
		}
		e.next[from] = e.match[from] + 1
		e.inflight[from] = 0
		e.maybeCommit(out)
		if e.next[from] <= e.LastIndex() {
			e.sendAppend(from, out, false)
		}
		return
	}
	x.Ack(m.NextOffset)
	if chunk := x.Chunk(e.term); chunk != nil {
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: from, Msg: chunk})
	} else {
		delete(e.xfers, from) // receiver ran past the image end: abandon
	}
}

// maybeCommit advances the leader's commit index to what the commit rule
// allows of the quorum-replicated watermark, counting the leader's own copy
// only as far as its self-ack proved durable, like a follower's. When
// counting its whole log would commit more — n = 1, a follower down, or one
// follower's ack in before the other's — it asks for that ack, once per
// index: a MsgAppendResp addressed to itself, which the runtime hands back
// once the round it rides is durable.
func (e *Engine) maybeCommit(out *protocol.Output) {
	if e.role != Leader {
		return
	}
	if c := e.rules.Commit(e, e.watermark(e.match[e.cfg.ID])); c > e.commit {
		e.advanceCommit(c, out)
	}
	last := e.LastIndex()
	if e.selfAsked >= last {
		return
	}
	if c := e.rules.Commit(e, e.watermark(last)); c > e.commit && c > e.selfAsked {
		e.selfAsked = last
		out.Msgs = append(out.Msgs, protocol.Envelope{From: e.cfg.ID, To: e.cfg.ID,
			Msg: &MsgAppendResp{Term: e.term, Ok: true, LastIndex: last}})
	}
}

// watermark is the highest index a quorum of replicas match, counting the
// leader's own copy through self — under Hooks.MustAck, a quorum of matches
// that count. The matches are insertion-sorted into the engine's scratch
// array (n is small), so evaluating it allocates nothing.
func (e *Engine) watermark(self int64) int64 {
	m := e.scratch[:0]
	for _, p := range e.cfg.Peers {
		m = append(m, e.matchOf(p, self))
		for i := len(m) - 1; i > 0 && m[i] > m[i-1]; i-- {
			m[i], m[i-1] = m[i-1], m[i]
		}
	}
	e.scratch = m
	if must := e.cfg.Hooks.MustAck; must != nil {
		return e.countedQuorum(m[e.quorum()-1:], must, self)
	}
	return m[e.quorum()-1]
}

// matchOf is p's match index, with self standing in for the leader's own.
func (e *Engine) matchOf(p protocol.NodeID, self int64) int64 {
	if p == e.cfg.ID {
		return self
	}
	return e.match[p]
}

// countedQuorum is the quorum-replicated watermark under Hooks.MustAck: the
// highest of the candidate indexes (descending) that a quorum of replicas
// match with a match that counts — one where everybody must names for that
// replica matches the index too. Lower indexes only gain matches, so what
// holds for the one returned holds for every entry beneath it.
func (e *Engine) countedQuorum(candidates []int64, must func(protocol.NodeID) []protocol.NodeID, self int64) int64 {
	for _, n := range candidates {
		if n <= e.commit {
			break
		}
		counted := 0
	peers:
		for _, p := range e.cfg.Peers {
			if e.matchOf(p, self) < n {
				continue
			}
			for _, h := range must(p) {
				if e.matchOf(h, self) < n {
					continue peers
				}
			}
			counted++
		}
		if counted >= e.quorum() {
			return n
		}
	}
	return e.commit
}

func (e *Engine) advanceCommit(to int64, out *protocol.Output) {
	for i := e.commit + 1; i <= to; i++ {
		ent, _ := e.log.At(i)
		ent.Bal = e.bal(ent)
		reply := e.fast.Reply(i, ent.Cmd, e.role == Leader && ent.Cmd.Client != protocol.None)
		out.Commits = append(out.Commits, protocol.CommitInfo{Entry: ent, Reply: reply})
	}
	e.commit = to
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
	for slot := e.commit + 1; slot <= e.extraMax; slot++ {
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

// Peers returns the configured peer set.
func (e *Engine) Peers() []protocol.NodeID {
	return append([]protocol.NodeID(nil), e.cfg.Peers...)
}

// MatchIndex returns the leader's view of how much of the log peer p has
// acknowledged this term (0 when not leader).
func (e *Engine) MatchIndex(p protocol.NodeID) int64 {
	if e.role != Leader {
		return 0
	}
	return e.match[p]
}
