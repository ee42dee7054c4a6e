// Package protocol defines the shared vocabulary used by every consensus
// engine in this repository: node identities, commands, log entries, quorum
// arithmetic and the pure-state-machine engine contract that lets the same
// protocol logic run under the discrete-event simulator and under live
// transports.
//
// It also holds, written once, the parts of a leader-based engine that the
// Raft family and MultiPaxos share: Front, the client half (forwarding,
// the leaderless buffers, ReadIndex); CatchUp, the snapshot half of
// catching a peer up; and FastPath, the Fast Paxos write path. Each engine
// lends them the few moves that differ between the families.
package protocol

import (
	"errors"
	"fmt"
)

// NodeID identifies a replica. IDs are small dense integers in [0, N).
type NodeID int

// None is the absent node (for example "voted for nobody").
const None NodeID = -1

// Op is the kind of operation a client command performs on the replicated
// state machine.
type Op uint8

// Operations understood by the replicated key-value state machine.
const (
	OpPut Op = iota + 1
	OpGet
	OpNop
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpNop:
		return "nop"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Command is a client operation to be replicated. Engines treat the payload
// as opaque; the Key is visible so lease-based protocols can track
// read/write conflicts, and Size so the simulator can model wire and CPU
// costs of large values.
//
// Wire stability: Command and Entry are embedded in every live wire
// message and in WAL records; exported field ORDER is the encoded layout
// and is frozen (see internal/wire). Append new fields at the end and
// bump the transport's wireVersion.
type Command struct {
	// ID is unique per client request; replies are matched on it.
	ID uint64
	// Client identifies the submitting client (simulator endpoint or live
	// session). It travels with the command so whichever replica commits it
	// can route the reply.
	Client NodeID
	// Op is the state-machine operation.
	Op Op
	// Key is the record the command touches.
	Key string
	// Value is the payload for puts.
	Value []byte
	// Size is the logical wire size in bytes used by cost models; when zero
	// the encoded size is used.
	Size int
}

// IsNop reports whether the command is a no-op filler (Mencius skips,
// leader no-op barriers).
func (c Command) IsNop() bool { return c.Op == OpNop || c.Op == 0 }

// WireSize returns the simulated size in bytes of the command on the wire.
func (c Command) WireSize() int {
	if c.Size > 0 {
		return c.Size
	}
	return 16 + len(c.Key) + len(c.Value)
}

// Entry is one slot of the replicated log. Raft* keeps both the Raft term
// the entry was created in and the Paxos-style ballot it was last accepted
// at; for standard Raft, Bal mirrors Term; for MultiPaxos, Term is unused.
type Entry struct {
	Index int64
	Term  uint64
	// Bal is the ballot the entry was most recently accepted at (Raft* /
	// MultiPaxos). Raft* overwrites this with the current term on every
	// append; Raft never does, which is exactly why Raft does not refine
	// MultiPaxos (Section 3 of the paper).
	Bal uint64
	Cmd Command
}

// Quorum returns the majority size for a cluster of n replicas.
func Quorum(n int) int { return n/2 + 1 }

// MaxFailures returns f, the number of tolerated failures for n replicas.
func MaxFailures(n int) int { return (n - 1) / 2 }

// Message is implemented by every protocol message. The single method is a
// marker plus a size hook for the simulator's bandwidth model.
type Message interface {
	// WireSize is the simulated encoded size in bytes.
	WireSize() int
}

// Envelope is a routed message.
type Envelope struct {
	From NodeID
	To   NodeID
	Msg  Message
}

// CommitInfo reports a newly committed (chosen) log entry in apply order.
type CommitInfo struct {
	Entry Entry
	// Reply tells the driver to answer the entry's client after applying
	// it (set by the replica responsible for the reply: the leader in
	// single-leader protocols, the slot owner in Mencius). Reads need the
	// applied value, which only the driver has.
	Reply bool
}

// ReplyKind distinguishes client replies.
type ReplyKind uint8

// Reply kinds.
const (
	ReplyWrite ReplyKind = iota + 1
	ReplyRead
	ReplyRedirect
)

// ClientReply is produced by an engine when a client request completes (or
// must be redirected to another replica).
type ClientReply struct {
	Kind  ReplyKind
	CmdID uint64
	// Client is the original submitter.
	Client NodeID
	// Key is the record the request touched; drivers use it to fill read
	// values from the local store.
	Key string
	// Value is the read result for ReplyRead.
	Value []byte
	// Redirect is the replica the client should retry against for
	// ReplyRedirect.
	Redirect NodeID
	// Err is a protocol-level rejection (not a transport failure).
	Err error
}

// Output is everything an engine wants the driver to do after one step:
// persist what the step accepted, send messages, surface commits (in
// order), and deliver client replies. Slices are owned by the caller after
// return.
//
// Durability barrier (the accept-time persistence contract): both protocol
// formulations assume an acceptor/follower makes accepted state durable
// BEFORE answering — that is what lets a quorum of acks imply a chosen
// value survives a full-cluster crash. Runtimes therefore realize an
// Output's promises strictly in this order:
//
//  1. AppendedEntries are fsynced to the log store (one group-committed
//     append for the whole batch; suffix overwrite on conflict),
//  2. hard state (term/vote/commit) is fsynced,
//  3. BarrierMessages are released — only now can a vote grant,
//     append/accept ack, or any other promise leave the replica.
//
// A leader is one acceptor among n, and its own vote is such a promise:
// an engine counts its copy toward a commit quorum only through an ack it
// addresses to itself (From == To == its ID), which the runtime releases at
// step 3 like any other and delivers back to the same engine, without the
// network. So no engine commits on a copy no barrier has proved durable,
// and Commits and Replies need no barrier of their own: a runtime applies
// and answers them at once.
//
// The order is a per-Output contract, not a whole-driver serialization: a
// pipelined driver may stage several Outputs' persistence rounds and keep
// stepping the engine while their fsyncs are in flight, as long as each
// round's steps 1–3 complete in order and rounds release in staging order
// (an Output staged later never releases a promise before an earlier one
// reaches its durability point). Two refinements keep the contract cheap
// without weakening it: messages that are not BarrierMessages claim
// nothing about stable storage and may leave before steps 1–2 (see
// BarrierMessage), and step 2's fsync may be folded into step 1's
// (storage.GroupSync) since nothing observes the gap between them. Engines
// tolerate the resulting cross-iteration reorder of non-barrier messages;
// they survive arbitrary network reordering anyway.
//
// The simulator models steps 1–2 as latency on the ack edge so its figures
// stay honest about the fsync a real deployment pays.
type Output struct {
	Msgs    []Envelope
	Commits []CommitInfo
	Replies []ClientReply
	// AppendedEntries are the log entries this step accepted/appended that
	// must be durable before Msgs are released (barrier step 1). Engines
	// emit every entry they newly wrote to their in-memory log — leader
	// local appends, follower/acceptor accepts, safe-value adoptions — in
	// log order. When a step overwrites inside the existing log (conflict
	// truncation, gap fill), the emission restates the suffix through the
	// engine's last index so the driver's store, whose append semantics
	// overwrite-and-truncate, mirrors the in-memory log exactly. Slots an
	// engine grew but did not accept (MultiPaxos/Mencius holes) appear as
	// zero-valued filler entries (Bal == 0) so the persisted log stays
	// contiguous; fillers restore as "no proposal accepted".
	AppendedEntries []Entry
	// StateChanged hints that hard state (term/vote/commit) changed and
	// must be durably stored after AppendedEntries and before Msgs are
	// released (barrier step 2). Live drivers fsync on it; the simulator
	// charges it as ack-edge latency like the entry fsync.
	StateChanged bool
	// InstalledSnapshot, when non-nil, reports that the engine adopted a
	// snapshot received over the wire (MsgInstallSnapshot): its log now
	// starts at the image boundary. The driver must persist the image and
	// restore its state machine from it — strictly before persisting any
	// AppendedEntries or applying any Commits in the same output, which
	// continue above the boundary.
	InstalledSnapshot *SnapshotImage
	// ReadStates are read batches that passed the ReadIndex leadership
	// confirmation round: once the driver's state machine has applied
	// through a state's Index, serving its commands from the local store is
	// linearizable. Nothing here needs persisting — the whole point of the
	// fast read path is that it appends no log entry and pays no fsync —
	// but the driver must park each state until its applied watermark
	// (which trails the commit index by the applier's backlog) reaches
	// Index before answering.
	ReadStates []ReadState
}

// ReadState is one confirmed ReadIndex batch: Cmds may be served from the
// local state machine as soon as it has applied through Index.
type ReadState struct {
	Index int64
	Cmds  []Command
}

// Merge appends other's outputs into o. When both sides of the merge
// carry an installed snapshot (two installs folded into one driver
// iteration), the highest-index image wins: installs are monotonic, and
// letting a later-merged but lower-index image clobber a newer one would
// rewind the state machine below entries already re-anchored above it.
func (o *Output) Merge(other Output) {
	o.Msgs = append(o.Msgs, other.Msgs...)
	o.Commits = append(o.Commits, other.Commits...)
	o.Replies = append(o.Replies, other.Replies...)
	o.AppendedEntries = append(o.AppendedEntries, other.AppendedEntries...)
	o.ReadStates = append(o.ReadStates, other.ReadStates...)
	o.StateChanged = o.StateChanged || other.StateChanged
	if other.InstalledSnapshot != nil &&
		(o.InstalledSnapshot == nil || other.InstalledSnapshot.Index > o.InstalledSnapshot.Index) {
		o.InstalledSnapshot = other.InstalledSnapshot
	}
}

// IsFiller reports whether e is a contiguity filler emitted for a log slot
// the engine grew but has not accepted a value in (see
// Output.AppendedEntries). Real accepted entries always carry a non-zero
// ballot (Raft stamps Bal = Term >= 1; Paxos ballots are >= 1), so Bal == 0
// with no operation identifies a hole.
func (e Entry) IsFiller() bool { return e.Bal == 0 && e.Term == 0 && e.Cmd.Op == 0 }

// BarrierMessage marks message types whose send is a promise about the
// sender's durable state: vote grants, prepare promises, append/accept
// acknowledgements, snapshot-install acks. Drivers must hold these until
// the durability barrier completes (entries fsynced, hard state fsynced)
// — that is the whole persist-before-ack contract. A self-addressed one
// is the sender's own vote (see Output): held the same way, then handed
// back to the sender's engine instead of the network. Every other message
// (proposals, requests, forwards, heartbeats, snapshot chunks) claims
// nothing about stable storage and may be released concurrently with the
// fsync, which keeps the leader's disk off the replication round trip:
// followers chew on the proposal while the proposer's own write commits
// to disk. Protocols here tolerate the resulting same-iteration reorder
// (they survive arbitrary reordering, and Mencius's barrier announcements
// are max-merged, so an overtaking proposal cannot unskip anything).
type BarrierMessage interface {
	// RequiresBarrier is a marker; it is never called.
	RequiresBarrier()
}

// Engine is the contract every consensus implementation satisfies. Engines
// are pure, deterministic, single-threaded state machines: drivers serialize
// all calls. Time is logical: the driver calls Tick at a fixed cadence
// (TickInterval in the config) and engines count ticks for elections,
// heartbeats and leases.
//
// A restarted replica is restored before it processes any input, in this
// order: RestoreHardState with the saved term and vote; RestoreSnapshot
// when recovery starts from a snapshot boundary; RestoreLog with the
// persisted log above that boundary.
//
// Submit and SubmitRead take a non-empty batch (drivers skip the call on
// an empty one) and run it as one protocol step. The engine may keep the
// slice it is handed, so a driver hands over a fresh one each call.
type Engine interface {
	// ID returns this replica's identity.
	ID() NodeID
	// Tick advances logical time by one tick.
	Tick() Output
	// Step processes one inbound message.
	Step(from NodeID, msg Message) Output
	// Submit proposes cmds as writes at this replica, in order.
	Submit(cmds ...Command) Output
	// SubmitRead requests a strongly consistent read for every command in
	// cmds at this replica.
	SubmitRead(cmds ...Command) Output
	// Leader returns the replica currently believed to be leader, or None.
	Leader() NodeID
	// IsLeader reports whether this replica believes it is the leader.
	IsLeader() bool
	// Term is the fencing state a restart must not lose: the current term
	// (Raft family), the highest ballot seen (MultiPaxos) or the highest
	// revocation ballot used or promised (Mencius).
	Term() uint64
	// VotedFor is the replica voted for in Term, or None where the
	// protocol keeps no vote (MultiPaxos, Mencius).
	VotedFor() NodeID
	// CommitIndex is the committed prefix: every index at or below it is
	// committed.
	CommitIndex() int64
	// RestoreHardState adopts the durably recorded term and vote.
	RestoreHardState(term uint64, votedFor NodeID)
	// RestoreSnapshot starts the log after index, an entry of the given
	// term: everything at or below it is committed and lives only in a
	// snapshot.
	RestoreSnapshot(index int64, term uint64)
	// RestoreLog adopts the persisted log tail; entries up to commit come
	// back committed, the rest accepted but not committed.
	RestoreLog(ents []Entry, commit int64)
	// TruncatePrefix drops in-memory log state for indexes <= through, so
	// a driver that persisted a snapshot can bound replica memory. Only
	// committed indexes are dropped; engines clamp internally.
	TruncatePrefix(through int64)
}

// StateMachine is the replicated application the driver feeds committed
// entries to. Snapshot and Restore bound recovery: a driver may serialize
// the full applied state, persist it, and later rebuild the machine from
// that image plus only the log tail above it, instead of replaying all
// history.
type StateMachine interface {
	// Apply executes one committed entry; entries arrive in index order.
	Apply(e Entry)
	// Snapshot serializes the entire applied state deterministically.
	Snapshot() ([]byte, error)
	// Restore replaces the applied state with a Snapshot image.
	Restore(data []byte) error
}

// SubmitAll proposes cmds as one batch: Engine.Submit(cmds...).
func SubmitAll(e Engine, cmds []Command) Output { return e.Submit(cmds...) }

// MsgReadForward carries read commands from a follower to the leader,
// which serves them through its ReadIndex fast path and routes the
// replies back to the origin's clients. Shared by every engine with a
// ReadIndex port, like the snapshot-transfer messages.
//
// Wire stability: travels the live wire through internal/wire; exported
// field ORDER is the encoded layout and is frozen.
type MsgReadForward struct {
	Cmds []Command
	// Term is the sender's current term (Raft family) or highest seen
	// ballot (MultiPaxos) when it sent the forward. A leader at exactly
	// this term counts the sender as a quorum witness for these reads (see
	// ReadTracker); a higher stamp deposes it like any higher-term message.
	Term uint64
}

// WireSize implements Message.
func (m *MsgReadForward) WireSize() int {
	n := 16
	for i := range m.Cmds {
		n += m.Cmds[i].WireSize()
	}
	return n
}

// CmdCount implements simnet.CmdCounter.
func (m *MsgReadForward) CmdCount() int { return len(m.Cmds) }

// ErrNotLeader is returned in ClientReply.Err when a write was submitted to
// a replica that cannot serve it and cannot forward it.
var ErrNotLeader = errors.New("not leader")
