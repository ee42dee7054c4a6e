package lease

import "raftpaxos/internal/protocol"

// Mode selects the lease discipline.
type Mode uint8

// Modes.
const (
	// QuorumLease is Paxos Quorum Leases: every replica may hold leases
	// and serve local reads.
	QuorumLease Mode = iota + 1
	// LeaderLease is the LL baseline of the paper's Figure 9: replicas
	// grant only to the leader, which alone serves local reads; followers
	// forward reads to it.
	LeaderLease
)

// Wire stability: read requests travel the live wire through internal/wire;
// exported field ORDER is the encoded layout and is frozen. Append new
// fields at the end and bump the transport's wireVersion.
//
// MsgReadReq forwards a read to the leader (LeaderLease mode).
type MsgReadReq struct {
	Cmd protocol.Command
}

// WireSize implements protocol.Message.
func (m *MsgReadReq) WireSize() int { return 8 + m.Cmd.WireSize() }

// Inner is what the decorator needs of the log-replication engine it
// wraps. Both raftstar.Engine and multipaxos.Engine satisfy it; every
// method the decorator does not override is promoted to Engine unchanged,
// which is how live drivers reach the snapshot sender.
type Inner interface {
	protocol.Engine
	protocol.SnapshotSender
	// LastIndex is the last accepted log index; LogLen the in-memory tail
	// length.
	LastIndex() int64
	LogLen() int
	// Campaign forces an election; Recheck re-evaluates the commit rule
	// after the set Hooks.MustAck names may have shrunk.
	Campaign() protocol.Output
	Recheck() protocol.Output
}

// Engine decorates a log-replication engine with lease reads: Paxos Quorum
// Leases (Moraru et al.; Figure 11 / Appendix A.1 of the paper) on
// MultiPaxos, and — the same code, which is the paper's point — its port
// Raft*-PQL (Appendix A.2, Figure 13) on Raft*. The optimization is
// non-mutating: it touches the inner engine only through the four
// protocol.Hooks and keeps its own lease table and per-key write index.
//
//   - Holders: an acceptor attaches the leases it granted to every ack.
//   - OnAck / MustAck: a vote counts toward the leader's commit quorum only
//     once every holder its voter last reported has voted for the entry
//     too — for the leader's own vote, its self-addressed ack, the holders
//     of its own grants. That last clause is what the paper's derivation adds over a
//     hand port: Paxos's f+1 acceptOKs map to f appendOKs plus the
//     leader's self-ack.
//   - OnAccept: every replica tracks the last write it accepted per key.
//
// A replica then answers a read from its own store iff it holds leases
// from a quorum, it has committed through those leases' activation floors
// (package comment, rule 4), and every write to the key it has accepted is
// committed locally ("all instances modifying k are in chosenSet"). A read
// waits only for what the current leader is driving to commit: a write to
// its key accepted here in the current term, under a live lease. Anything
// else it would have to wait for is an accepted index nothing promises will
// ever commit — a floor is another replica's, a write accepted in an older
// term may sit in a deposed leader's tail, proposed to nobody — so without
// a lease, below a floor, or behind such a write the read takes the inner
// engine's read path, which is always safe and waits only on the leader.
type Engine struct {
	Inner
	mode   Mode
	leases *Table

	// lastWrite[k] is the highest log index of a write to k accepted here,
	// with the term (ballot) this replica was in when it accepted it.
	lastWrite map[string]accepted
	// reported[p] is the holder set peer p attached to its last ack. It
	// never ages out: p may be renewing those leases where we cannot hear.
	reported map[protocol.NodeID][]protocol.NodeID
	parked   []parkedRead
}

type accepted struct {
	index int64
	term  uint64
}

type parkedRead struct {
	cmd  protocol.Command
	wait accepted
}

var _ protocol.Engine = (*Engine)(nil)

// NewEngine builds the decorator around the engine build returns; build
// must install the hooks it is handed into that engine's Config. cfg.Self
// and cfg.Peers must match the inner engine's.
func NewEngine(cfg Config, mode Mode, build func(protocol.Hooks) Inner) *Engine {
	e := &Engine{
		mode:      mode,
		lastWrite: make(map[string]accepted),
		reported:  make(map[protocol.NodeID][]protocol.NodeID),
	}
	if mode == LeaderLease {
		// Grants are re-targeted at the current leader on every tick.
		cfg.Grantees = []protocol.NodeID{}
	}
	e.leases = NewTable(cfg)
	hooks := protocol.Hooks{OnAccept: e.onAccept}
	if mode != LeaderLease {
		// With the leader the only holder, commits need no extra acks.
		hooks.Holders, hooks.OnAck, hooks.MustAck = e.leases.Holders, e.onAck, e.mustAck
	}
	e.Inner = build(hooks)
	return e
}

// HasQuorumLease reports whether this replica holds leases from a quorum.
func (e *Engine) HasQuorumLease() bool { return e.leases.HasQuorumLease() }

func (e *Engine) onAck(from protocol.NodeID, holders []protocol.NodeID) {
	e.reported[from] = holders
}

// mustAck is the modified Learn / ported LeaderLearn: for from's vote to
// count, the holders of from's grants must have voted too.
func (e *Engine) mustAck(from protocol.NodeID) []protocol.NodeID {
	if from == e.ID() {
		return e.leases.Holders()
	}
	return e.reported[from]
}

func (e *Engine) onAccept(index int64, cmd protocol.Command) {
	// >=: a new leader re-proposing the entry renews the promise to commit it.
	if cmd.Op == protocol.OpPut && index >= e.lastWrite[cmd.Key].index {
		e.lastWrite[cmd.Key] = accepted{index, e.Term()}
	}
}

// Tick implements protocol.Engine: lease renewal rides on the engine tick.
func (e *Engine) Tick() protocol.Output {
	if e.mode == LeaderLease {
		// Followers grant only to whoever they currently believe leads.
		if l := e.Leader(); l != protocol.None && l != e.ID() {
			e.leases.SetGrantees([]protocol.NodeID{l})
		} else {
			e.leases.SetGrantees([]protocol.NodeID{})
		}
	}
	out := protocol.Output{Msgs: e.leases.Tick(e.LastIndex())}
	out.Merge(e.Inner.Tick())
	// Lease expiry may unblock gated commits and parked reads.
	out.Merge(e.Recheck())
	e.flushReads(&out)
	return out
}

// Step implements protocol.Engine.
func (e *Engine) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	if msgs, handled := e.leases.Step(from, msg); handled {
		return protocol.Output{Msgs: msgs}
	}
	if m, ok := msg.(*MsgReadReq); ok {
		return e.SubmitRead(m.Cmd)
	}
	out := e.Inner.Step(from, msg)
	e.flushReads(&out)
	return out
}

// Submit implements protocol.Engine (writes are the inner engine's;
// onAccept tracks the per-key write index when the entry is accepted).
func (e *Engine) Submit(cmds ...protocol.Command) protocol.Output {
	out := e.Inner.Submit(cmds...)
	e.flushReads(&out)
	return out
}

// SubmitRead implements protocol.Engine: the LocalRead subaction, decided
// read by read.
func (e *Engine) SubmitRead(cmds ...protocol.Command) protocol.Output {
	var out protocol.Output
	for _, cmd := range cmds {
		e.read(cmd, &out)
	}
	return out
}

// read decides one read: a follower under LeaderLease forwards it to the
// leader, a replica with a usable lease parks it until its key's writes
// commit, and any other read takes the inner engine's read path.
func (e *Engine) read(cmd protocol.Command, out *protocol.Output) {
	cmd.Op = protocol.OpGet
	if e.mode == LeaderLease && !e.IsLeader() {
		if l := e.Leader(); l != protocol.None {
			out.Msgs = append(out.Msgs, protocol.Envelope{From: e.ID(), To: l, Msg: &MsgReadReq{Cmd: cmd}})
			return
		}
		out.Merge(e.Inner.SubmitRead(cmd))
		return
	}
	if !e.leases.HasQuorumLease() || e.CommitIndex() < e.leases.Floor() {
		out.Merge(e.Inner.SubmitRead(cmd)) // no usable lease: the inner engine's read path
		return
	}
	e.parked = append(e.parked, parkedRead{cmd, e.lastWrite[cmd.Key]})
	e.flushReads(out)
}

// flushReads answers parked reads the commit index has caught up with, and
// hands the others to the inner engine's read path once the lease is lost
// or the term their write was accepted in is over.
func (e *Engine) flushReads(out *protocol.Output) {
	if len(e.parked) == 0 {
		return
	}
	commit, term := e.CommitIndex(), e.Term()
	hasLease := e.leases.HasQuorumLease()
	keep := e.parked[:0]
	for _, pr := range e.parked {
		switch {
		case pr.wait.index <= commit && hasLease:
			out.Replies = append(out.Replies, protocol.ClientReply{
				Kind: protocol.ReplyRead, CmdID: pr.cmd.ID, Client: pr.cmd.Client, Key: pr.cmd.Key,
			})
		case !hasLease || pr.wait.term != term:
			out.Merge(e.Inner.SubmitRead(pr.cmd))
		default:
			keep = append(keep, pr)
		}
	}
	e.parked = keep
}
