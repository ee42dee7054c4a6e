package protocol

import "slices"

// ReadTracker is the leader half of the ReadIndex read path, run by Front.
//
// The protocol: when a read arrives at the leader it captures the current
// commit index (clamped up to the leader's election barrier) as the
// read's index and opens a confirmation batch identified by a
// monotonically increasing context (ctx). The ctx is piggybacked on the
// next append/accept broadcast and echoed back in the acks; an ack
// echoing ctx c proves the follower still recognized this leader's
// term/ballot when it processed a message sent AFTER every batch with
// ctx <= c was opened — which is exactly what rules out a newer leader
// having committed writes this leader has not seen before the read was
// invoked. Once a quorum (the leader included) has vouched for a batch,
// the batch is released as an Output.ReadState; the driver serves it from
// the state machine as soon as its applied watermark reaches the read
// index. No log append, no fsync.
//
// Joining an open batch is only legal before any message carrying its ctx
// has left the replica: an echo of a ctx that was already in flight when
// the read arrived would prove leadership only up to a point BEFORE the
// read's invocation, and a leader deposed in between could then serve a
// stale value. MarkSent closes the open batch; later reads open a new ctx.
//
// The witness rule: a read forwarded by a follower (MsgReadForward)
// arrives stamped with the forwarder's term (its highest seen ballot in
// MultiPaxos — the paper's term ≙ ballot mapping). When the stamp equals
// the leader's own term the forwarder is itself a quorum member that
// recognized this term after the read was invoked, which is all an echo
// proves — so the batch opens with the forwarder pre-counted. With three
// replicas leader + witness is a quorum and the ReadState is released on
// the spot, no broadcast; with five it needs one echo instead of two.
// Safety: any later leader needs a vote/promise from a member of {leader,
// witness, echoers}; the witness gave none above Term before it sent the
// forward (which was after the read's invocation) and the leader none
// before it received it, so every write a later leader completes,
// completes after the read was invoked — and the read index (commit
// clamped up to the election barrier) covers everything earlier. The
// witness vouches only for the reads it forwarded: a witnessed batch never
// joins another batch and is never joined.
type ReadTracker struct {
	// quorum is the confirmation threshold, counting the leader itself.
	quorum int
	// unsafeNoQuorum releases reads immediately, without the confirmation
	// round. Testing only: it exists so the linearizability checker's
	// sabotage regression can demonstrate the checker catches the stale
	// reads a deposed leader then serves.
	unsafeNoQuorum bool

	nextCtx uint64
	batches []readBatch
	// pending counts the commands parked in batches (bounded by
	// MaxParked).
	pending int
}

type readBatch struct {
	ctx   uint64
	index int64
	cmds  []Command
	// acks are the distinct replicas vouching for the batch besides the
	// leader: the witness first (when there is one), then echoers.
	acks []NodeID
	// sent: a message carrying ctx has left the replica. witnessed: the
	// batch was opened by a forward. Either closes the batch to joiners.
	sent, witnessed bool
}

// Reset arms the tracker for a new leadership: quorum is the confirmation
// threshold including the leader itself; unsafeNoQuorum skips the
// confirmation round entirely (testing only). Any stale batches are
// dropped silently — callers fail pending reads on the way OUT of
// leadership (FailAll), so a fresh leader starts empty.
func (t *ReadTracker) Reset(quorum int, unsafeNoQuorum bool) {
	t.quorum = quorum
	t.unsafeNoQuorum = unsafeNoQuorum
	t.batches = nil
	t.pending = 0
}

// Add opens (or joins) a confirmation batch for cmds at read index.
// witness is the replica that forwarded cmds stamped with the leader's own
// term — another member, pre-counted toward the quorum — or None for reads
// submitted at the leader. When nothing more is needed (leader + witness is
// already a quorum, a single-replica cluster, the sabotaged test mode) the
// ReadState is released into out immediately. At most MaxParked commands
// park: there is no check-quorum, so a partitioned leader that has not yet
// heard a higher term would otherwise hold every read sent to it; overflow
// is rejected with ErrNotLeader like the Front's leaderless buffers.
func (t *ReadTracker) Add(cmds []Command, index int64, witness NodeID, out *Output) {
	if len(cmds) == 0 {
		return
	}
	cmds = append([]Command(nil), cmds...)
	vouched := 1 // the leader itself
	if witness != None {
		vouched++
	}
	if t.unsafeNoQuorum || vouched >= t.quorum {
		out.ReadStates = append(out.ReadStates, ReadState{Index: index, Cmds: cmds})
		return
	}
	if room := MaxParked - t.pending; len(cmds) > room {
		for _, cmd := range cmds[room:] {
			reject(cmd, out)
		}
		cmds = cmds[:room]
	}
	if len(cmds) == 0 {
		return
	}
	t.pending += len(cmds)
	if n := len(t.batches); witness == None && n > 0 && !t.batches[n-1].sent && !t.batches[n-1].witnessed {
		// The open batch's ctx has not been broadcast yet, so its eventual
		// echoes postdate this read too; raising the index to the current
		// commit only makes the earlier reads in the batch fresher.
		open := &t.batches[n-1]
		open.index = max(open.index, index)
		open.cmds = append(open.cmds, cmds...)
		return
	}
	t.nextCtx++
	b := readBatch{ctx: t.nextCtx, index: index, cmds: cmds, witnessed: witness != None}
	if b.witnessed {
		b.acks = []NodeID{witness}
	}
	t.batches = append(t.batches, b)
}

// Pending reports how many unconfirmed read commands the tracker holds.
func (t *ReadTracker) Pending() int { return t.pending }

// Unsent reports whether a batch is waiting for its ctx to be broadcast:
// the engine's cue to start a confirmation round now instead of waiting
// out the heartbeat interval.
func (t *ReadTracker) Unsent() bool {
	n := len(t.batches)
	return n > 0 && !t.batches[n-1].sent
}

// MaxCtx returns the context to piggyback on outgoing appends/accepts (0
// when no batch awaits confirmation). Followers echo the value; an echo
// confirms every batch at or below it.
func (t *ReadTracker) MaxCtx() uint64 {
	if len(t.batches) == 0 {
		return 0
	}
	return t.batches[len(t.batches)-1].ctx
}

// MarkSent records that a message carrying MaxCtx left the replica: every
// open batch is now closed to joiners (see the type comment for why).
// Unsent batches are a suffix, so the walk stops at the first sent one.
func (t *ReadTracker) MarkSent() {
	for i := len(t.batches) - 1; i >= 0 && !t.batches[i].sent; i-- {
		t.batches[i].sent = true
	}
}

// Ack records a follower's echo of ctx, confirming every batch at or
// below it; batches reaching quorum (the leader's implicit
// self-acknowledgement and a witness included) release their ReadState
// into out.
func (t *ReadTracker) Ack(from NodeID, ctx uint64, out *Output) {
	kept := t.batches[:0]
	for _, b := range t.batches {
		if b.ctx <= ctx && !slices.Contains(b.acks, from) {
			b.acks = append(b.acks, from)
		}
		if len(b.acks)+1 >= t.quorum {
			out.ReadStates = append(out.ReadStates, ReadState{Index: b.index, Cmds: b.cmds})
			t.pending -= len(b.cmds)
			continue
		}
		kept = append(kept, b)
	}
	t.batches = kept
}

// FailAll rejects every pending read with ErrNotLeader — called when the
// replica loses (or abdicates) leadership, so parked reads fail fast and
// clients retry against the new leader instead of hanging.
func (t *ReadTracker) FailAll(out *Output) {
	for _, b := range t.batches {
		for _, cmd := range b.cmds {
			reject(cmd, out)
		}
	}
	t.batches = nil
	t.pending = 0
}
