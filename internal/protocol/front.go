package protocol

// Front is the client half of a leader-based engine, built once for raft,
// raftstar and multipaxos: it routes submitted writes and reads. At the
// leader, writes go back to the engine to propose and reads run ReadIndex
// (ReadTracker, the election read barrier, the witness rule); elsewhere
// both go to a known leader, or park — at most MaxParked of each — until
// Flush re-routes them.
//
// The engine lends a View and its forward message; proposing, its
// broadcasts and its step-down stay in the engine. The front decides and
// the engine acts (Work): an engine Output handed through an indirect call
// moves every engine step's Output to the heap.
type Front struct {
	id        NodeID
	view      View
	forwardTo func(cmds []Command) Message
	fast      *FastPath
	readIndex bool

	writes, reads []Command // parked while no leader is known

	tracker ReadTracker
	quorum  int
	unsafe  bool
	// barrier is the leader's last index at election. Anything a
	// predecessor might have committed sits at or below it (Raft*: the vote
	// quorum shipped it; Raft: the election restriction; MultiPaxos: phase 1
	// re-proposed it), and shows in the commit index only once an entry of
	// the new term commits, so a read's index is clamped up to it.
	barrier int64
}

// View is an engine's state as the parts it shares (Front, FastPath) read
// it.
type View struct {
	Term      func() uint64 // term, or highest ballot seen
	IsLeader  func() bool
	Leader    func() NodeID
	LastIndex func() int64
	Commit    func() int64 // commit index, or chosen prefix
}

// Work is what a Front call leaves the engine to do, in this order: start
// a read confirmation round (its heartbeat or empty accept broadcast,
// which carries the read ctx), then propose Propose as leader.
type Work struct {
	Confirm bool
	Propose []Command
}

// MaxParked bounds each set of commands an engine holds unanswered — the
// writes and the reads parked while no leader is known, the reads the
// leader parks awaiting confirmation. Overflow gets ErrNotLeader.
const MaxParked = 4096

// NewFront builds the front of replica id among n; forward wraps commands
// in the engine's message to the leader. With readIndex off, reads
// replicate through the log like writes; unsafeSkipReadQuorum releases
// them without the confirmation round (testing only); fast is nil if off.
func NewFront(id NodeID, n int, readIndex, unsafeSkipReadQuorum bool, fast *FastPath, view View, forward func([]Command) Message) Front {
	return Front{id: id, view: view, forwardTo: forward, fast: fast, readIndex: readIndex, quorum: Quorum(n), unsafe: unsafeSkipReadQuorum}
}

// Writes routes writes submitted at, or forwarded to, this replica.
func (f *Front) Writes(cmds []Command, out *Output) Work {
	leader := f.view.Leader()
	switch {
	case len(cmds) == 0:
	case f.view.IsLeader():
		return Work{Propose: cmds}
	case f.fast != nil && leader != None:
		out.Merge(f.fast.Submit(cmds))
	case leader != None:
		f.forward(leader, append([]Command(nil), cmds...), out)
	default:
		f.writes = park(f.writes, cmds, out)
	}
	return Work{}
}

// Reads routes reads. At the leader a batch shares one read index — the
// commit index clamped up to the barrier (the last index with the fast
// path on: FastPath.ReadIndex) — and one confirmation round, unless leader
// and witness are already a quorum. witness is the replica that forwarded
// the batch at the leader's own term (Forwarded), else None. Elsewhere a
// batch goes to the known leader stamped with this replica's term, which
// is what makes the forwarder a witness there; a leader view still naming
// self (deposed, new leader unknown) counts as unknown, or the batch would
// loop through the transport forever.
func (f *Front) Reads(cmds []Command, witness NodeID, out *Output) Work {
	if len(cmds) == 0 {
		return Work{}
	}
	for i := range cmds {
		cmds[i].Op = OpGet
	}
	switch leader := f.view.Leader(); {
	case !f.readIndex:
		return f.Writes(cmds, out)
	case f.view.IsLeader():
		f.tracker.Add(cmds, f.fast.ReadIndex(max(f.view.Commit(), f.barrier)), witness, out)
		return Work{Confirm: f.tracker.Unsent()}
	case leader != None && leader != f.id:
		out.Msgs = append(out.Msgs, Envelope{
			From: f.id, To: leader,
			Msg: &MsgReadForward{Cmds: append([]Command(nil), cmds...), Term: f.view.Term()},
		})
	default:
		f.reads = park(f.reads, cmds, out)
	}
	return Work{}
}

// Forwarded serves reads another replica forwarded, once the engine has
// stepped down if their stamp is above its term (they then re-route). A
// stamp equal to the leader's term makes the forwarder a quorum witness
// for exactly these reads (ReadTracker); a lower one proves nothing.
func (f *Front) Forwarded(from NodeID, m *MsgReadForward, out *Output) Work {
	witness := None
	if m.Term == f.view.Term() {
		witness = from
	}
	return f.Reads(m.Cmds, witness, out)
}

// Flush re-routes what was parked once the engine knows a leader: the
// reads, then the writes as one batch — proposed at the leader, else one
// forward (never down the fast path). Reads park only with ReadIndex on,
// so they leave nothing to propose.
func (f *Front) Flush(out *Output) Work {
	var w Work
	if reads := f.reads; len(reads) > 0 {
		f.reads = nil
		w = f.Reads(reads, None, out)
	}
	if cmds := f.writes; len(cmds) > 0 {
		f.writes = nil
		if f.view.IsLeader() {
			w.Propose = cmds
		} else {
			f.forward(f.view.Leader(), cmds, out)
		}
	}
	return w
}

// Elect arms the read path for a leadership whose log ended at barrier.
func (f *Front) Elect(barrier int64) {
	f.barrier = barrier
	f.tracker.Reset(f.quorum, f.unsafe)
}

// StepDown fails the reads awaiting confirmation, so their clients retry
// at the new leader instead of hanging (a no-op unless leading).
func (f *Front) StepDown(out *Output) { f.tracker.FailAll(out) }

// ReadCtx is the read ctx to piggyback on an append or accept leaving now
// (0: none). It is then in flight, so later reads open a fresh one: an echo
// of it proves leadership only up to this send.
func (f *Front) ReadCtx() uint64 {
	ctx := f.tracker.MaxCtx()
	f.tracker.MarkSent()
	return ctx
}

// Echo takes a follower's echo of a read ctx: it processed a message this
// leader sent while leading, which confirms every batch at or below ctx.
func (f *Front) Echo(from NodeID, ctx uint64, out *Output) {
	if ctx > 0 {
		f.tracker.Ack(from, ctx, out)
	}
}

func (f *Front) forward(leader NodeID, cmds []Command, out *Output) {
	out.Msgs = append(out.Msgs, Envelope{From: f.id, To: leader, Msg: f.forwardTo(cmds)})
}

// park buffers cmds up to MaxParked and rejects the rest.
func park(parked, cmds []Command, out *Output) []Command {
	for _, cmd := range cmds {
		if len(parked) < MaxParked {
			parked = append(parked, cmd)
		} else {
			reject(cmd, out)
		}
	}
	return parked
}

// reject answers cmd with ErrNotLeader.
func reject(cmd Command, out *Output) {
	kind := ReplyWrite
	if cmd.Op == OpGet {
		kind = ReplyRead
	}
	out.Replies = append(out.Replies, ClientReply{Kind: kind, CmdID: cmd.ID, Client: cmd.Client, Key: cmd.Key, Err: ErrNotLeader})
}
