// Package mencius implements Mencius (Mao et al.) — coordinated
// multi-leader log replication — as Coordinated Paxos per Appendix A.3 /
// B.5 of the paper. The instance space is partitioned round-robin: slot s
// is owned by replica (s-1) mod n, every replica commits client requests
// in its own slots at its own site, and skip messages (no-ops proposed by
// the default leader, learnable without phase 2) keep the global execution
// order advancing.
//
// The same coordination core backs internal/coorraft (Raft*-Mencius): the
// paper's refinement mapping makes the ported protocol's message-level
// behaviour identical to Mencius's by construction, so the two packages
// share this engine and differ in their spec-level derivations
// (internal/specs) and public configuration.
//
// Channel assumption: a replica treats an unproposed slot below its
// owner's announced barrier as a skip, which is only sound if every
// earlier proposal of that owner has arrived. Pairwise FIFO delivery is
// not enough for that: the channel must also have no gaps. The
// discrete-event simulator's network has none, but testcluster's
// DeliverShuffled and the TCP transport (which sheds frames when a peer's
// queue is full, and loses what a broken connection had in flight) both
// drop single messages while later ones arrive. A dropped proposal is then
// executed as a skip and replicas disagree: ROADMAP item 1.
package mencius

import "raftpaxos/internal/protocol"

// Owner returns the default leader of slot s among n replicas (1-based
// slots, round-robin: slot 1 → replica 0).
func Owner(s int64, n int) protocol.NodeID {
	return protocol.NodeID((s - 1) % int64(n))
}

// NextOwned returns the smallest slot strictly greater than s owned by o.
func NextOwned(s int64, o protocol.NodeID, n int) int64 {
	base := s + 1
	rem := (base - 1) % int64(n)
	diff := (int64(o) - rem + int64(n)) % int64(n)
	return base + diff
}

// Board tracks the coordinated log at one replica: proposals, per-owner
// skip barriers, per-owner committed-or-skipped frontiers, and the two
// prefixes that drive client replies (filled) and state-machine execution
// (exec).
type Board struct {
	n    int
	self protocol.NodeID

	// log holds the slots above the last truncation as MultiPaxos holds its
	// instances: a slot with a known proposal is an entry whose Term and Bal
	// are the ballot it was accepted at, any other slot is a filler — the
	// form both take in the durable log. A slot at or below the executed
	// prefix is never written again.
	log protocol.Log
	// committed marks the slots above the executed prefix known committed
	// here: slots are committed out of order and executed in order.
	committed map[int64]bool
	// barrier[o] is owner o's next proposal slot, learned only from o's own
	// messages: all unproposed o-slots below it are skips, which assumes a
	// channel with no gaps (see the package comment). barrier[self] is
	// authoritative.
	barrier []int64
	// frontier[o] is the largest o-owned slot such that every o-owned slot
	// up to it is committed or skipped. Learned by max-merge from anyone
	// (commits are stable facts). frontier[self] is computed locally.
	frontier []int64

	// filledPrefix: every slot ≤ it has a known proposal or is skipped.
	filledPrefix int64
	// execPrefix: every slot ≤ it is executable (committed+known or
	// skipped); entries up to it have been emitted for execution.
	execPrefix int64
	// maxSlot is the highest slot this replica has seen mentioned.
	maxSlot int64
}

// NewBoard builds a board for replica self among n replicas.
func NewBoard(self protocol.NodeID, n int) *Board {
	b := &Board{
		n:         n,
		self:      self,
		committed: make(map[int64]bool),
		barrier:   make([]int64, n),
		frontier:  make([]int64, n),
	}
	for o := range b.barrier {
		b.barrier[o] = NextOwned(0, protocol.NodeID(o), n)
	}
	return b
}

// Barrier returns this replica's own barrier (its next proposal slot).
func (b *Board) Barrier() int64 { return b.barrier[b.self] }

// BarrierOf returns the last known barrier of owner o.
func (b *Board) BarrierOf(o protocol.NodeID) int64 { return b.barrier[o] }

// Frontier returns a copy of the per-owner frontier vector.
func (b *Board) Frontier() []int64 { return append([]int64(nil), b.frontier...) }

// FilledPrefix returns the filled prefix.
func (b *Board) FilledPrefix() int64 { return b.filledPrefix }

// ExecPrefix returns the executable prefix.
func (b *Board) ExecPrefix() int64 { return b.execPrefix }

// MaxSlot returns the highest slot seen.
func (b *Board) MaxSlot() int64 { return b.maxSlot }

// skipped reports whether slot s is a skip: unproposed and below its
// owner's barrier.
func (b *Board) skipped(s int64) bool {
	_, ok := b.proposal(s)
	return !ok && b.barrier[Owner(s, b.n)] > s
}

// proposal returns the proposal held for s: false when none is known, or
// when s was truncated away.
func (b *Board) proposal(s int64) (protocol.Entry, bool) {
	ent, ok := b.log.At(s)
	return ent, ok && !ent.IsFiller()
}

// Proposed reports whether a proposal for s is known, and its command.
func (b *Board) Proposed(s int64) (protocol.Command, bool) {
	ent, ok := b.proposal(s)
	return ent.Cmd, ok
}

// Committed reports whether s is known committed locally: executed, or
// committed above the executed prefix.
func (b *Board) Committed(s int64) bool { return s <= b.execPrefix || b.committed[s] }

// ObserveProposal records a proposal for slot s at ballot bal, returning
// false if a higher-ballot proposal is already known. A slot at or below
// the executed prefix keeps what it holds: its value is settled.
func (b *Board) ObserveProposal(s int64, cmd protocol.Command, bal uint64) bool {
	b.maxSlot = max(b.maxSlot, s)
	if held, ok := b.proposal(s); ok && held.Bal > bal {
		return false
	}
	if s > b.execPrefix {
		b.log.Put(protocol.Entry{Index: s, Term: bal, Bal: bal, Cmd: cmd})
	}
	return true
}

// MarkCommitted records that slot s is committed.
func (b *Board) MarkCommitted(s int64) {
	b.maxSlot = max(b.maxSlot, s)
	if s > b.execPrefix {
		b.committed[s] = true
	}
}

// AdvanceBarrier raises owner o's barrier to at least v. For o == self the
// caller must guarantee it never proposes below v afterwards.
func (b *Board) AdvanceBarrier(o protocol.NodeID, v int64) {
	if v > b.barrier[o] {
		b.barrier[o] = v
		if v-1 > b.maxSlot {
			b.maxSlot = v - 1
		}
	}
}

// MergeFrontier max-merges a frontier vector learned from a peer.
func (b *Board) MergeFrontier(vec []int64) {
	for o, v := range vec {
		if o < len(b.frontier) && v > b.frontier[o] {
			b.frontier[o] = v
			if v > b.maxSlot {
				b.maxSlot = v
			}
		}
	}
}

// RecomputeOwnFrontier advances frontier[o] over o-owned slots that are
// committed or skipped. Any replica may compute any owner's frontier from
// stable local facts; owners converge fastest for their own slots.
func (b *Board) RecomputeOwnFrontier(o protocol.NodeID) {
	f := b.frontier[o]
	for {
		next := NextOwned(f, o, b.n)
		if _, ok := b.proposal(next); ok && b.committed[next] {
			f = next
			continue
		}
		if b.skipped(next) {
			f = next
			continue
		}
		break
	}
	b.frontier[o] = f
}

// AdvanceFilled extends the filled prefix: slots with a known proposal or
// a skip.
func (b *Board) AdvanceFilled() {
	for {
		s := b.filledPrefix + 1
		if _, ok := b.proposal(s); ok {
			b.filledPrefix = s
			continue
		}
		if b.skipped(s) {
			b.filledPrefix = s
			continue
		}
		break
	}
}

// Restore primes the board after a restart from the durable log, which
// ends at end and holds ents: every slot at or below commit is treated as
// executed without materializing per-slot state, barriers move past it so
// new proposals land in fresh slots, and frontiers cover each owner's slots
// in the prefix. The proposals above the executed prefix come back, and the
// log ends where the durable one does, so the next emission continues the
// durable log, padding with fillers up to the slot it writes — also when
// commit lies past end.
func (b *Board) Restore(commit, end int64, ents []protocol.Entry) {
	if commit > b.execPrefix {
		b.execPrefix = commit
		b.filledPrefix = max(b.filledPrefix, commit)
		b.maxSlot = max(b.maxSlot, commit)
		for o := range b.barrier {
			b.AdvanceBarrier(protocol.NodeID(o), NextOwned(commit, protocol.NodeID(o), b.n))
		}
		for o := range b.frontier {
			b.frontier[o] = max(b.frontier[o], lastOwned(commit, protocol.NodeID(o), b.n))
		}
	}
	b.log.Restore(min(b.execPrefix, end), 0, nil)
	for _, ent := range ents {
		if ent.Index > b.execPrefix && !ent.IsFiller() {
			b.ObserveProposal(ent.Index, ent.Cmd, ent.Bal)
		}
	}
	if end > b.log.LastIndex() {
		b.log.Put(protocol.Entry{Index: end}) // the durable log's trailing fillers
	}
	b.log.Synced()
}

// lastOwned returns the largest slot <= s owned by o (0 when none).
func lastOwned(s int64, o protocol.NodeID, n int) int64 {
	if s < int64(o)+1 {
		return 0
	}
	return s - ((s-1-int64(o))%int64(n)+int64(n))%int64(n)
}

// TruncatePrefix drops the log at or below through (clamped to the
// executed prefix: unexecuted slots are still live protocol state). The
// prefixes and barriers already summarize what was dropped, so memory
// tracks the unexecuted tail instead of all history.
func (b *Board) TruncatePrefix(through int64) {
	b.log.TruncatePrefix(min(through, b.execPrefix))
}

// AdvanceExec extends the executable prefix and returns the newly
// executable entries in global order (skips surface as no-op entries).
// A proposed slot is executable once its owner's frontier covers it (it is
// then known committed) and its value is locally known; a skipped slot is
// executable immediately (the paper: a default-leader no-op is learnable
// without phase 2).
func (b *Board) AdvanceExec() []protocol.Entry {
	var out []protocol.Entry
	for {
		s := b.execPrefix + 1
		ent, ok := b.proposal(s)
		switch {
		case ok && (b.committed[s] || b.frontier[Owner(s, b.n)] >= s):
			delete(b.committed, s)
			out = append(out, ent)
		case b.skipped(s):
			out = append(out, protocol.Entry{Index: s, Cmd: protocol.Command{Op: protocol.OpNop}})
		default:
			return out
		}
		b.execPrefix = s
	}
}
