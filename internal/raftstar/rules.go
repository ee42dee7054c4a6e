package raftstar

import "raftpaxos/internal/protocol"

// Rules are the three points at which Figure 2's blue text (Raft*) departs
// from its black text (standard Raft); everything else in Engine is common
// to both. A rule decides and never mutates: it reads the engine through
// its exported accessors (EntryAt reports a speculative entry with Bal 0)
// and the engine applies the decision, so a rule set cannot break the
// shared machinery's bookkeeping. This file holds Raft*'s set, package raft
// holds Raft's.
type Rules interface {
	// Election recovery (Figure 2a). ShipFrom is the voter's half (lines
	// 14-15): the first index a granting voter ships to a candidate whose
	// log ends at candLast, 0 to ship nothing. Recover is the winner's half
	// (lines 22-27): the commands the new leader appends at its own term
	// before it announces itself, and the index its first appends start at.
	ShipFrom(candLast int64) int64
	Recover(e *Engine) (adopt []protocol.Command, next int64)

	// Accept (Figure 2b). Accept judges an append whose predecessor entry
	// matched. Ballot is the ballot a classic entry carries once the last
	// append accepted over the log had term accepted (lines 6-7: Raft*
	// re-stamps every covered entry, Raft never rewrites one).
	Accept(e *Engine, m *MsgAppendReq) Verdict
	Ballot(ent protocol.Entry, accepted uint64) uint64

	// Commit clamps the quorum-replicated watermark to what the leader may
	// commit by counting replicas.
	Commit(e *Engine, quorum int64) int64

	// Rename gives a message the engine built — a vote request or response,
	// an append request or response, a forward — the variant's wire
	// identity, the one point it is stamped.
	Rename(m protocol.Message) protocol.Message
}

// Verdict is an accept rule's decision on one append.
type Verdict struct {
	// Reject refuses the append; Hint is the retry hint sent back.
	Reject bool
	Hint   int64
	// From is the first index written; entries of the append below it are
	// held already and left alone. It is above the append's PrevIndex.
	From int64
	// Erase drops the held suffix from From on before writing.
	Erase bool
}

// star is Raft*'s rule set.
type star struct{}

// ShipFrom: a granting voter ships everything beyond the candidate's log so
// the leader can adopt safe values.
func (star) ShipFrom(candLast int64) int64 { return candLast + 1 }

// Recover adopts the safe value — the one accepted at the highest ballot —
// for every index beyond our log, then re-proposes the entire log at the
// new ballot: replication restarts at index 1, the Paxos phase 2 for every
// instance. No barrier entry is needed.
func (star) Recover(e *Engine) ([]protocol.Command, int64) {
	var adopt []protocol.Command
	for i := e.LastIndex() + 1; i <= e.extraMax; i++ {
		ent, ok := e.extras[i]
		if !ok {
			// No voter had this index (a gap below another voter's tail is
			// impossible with contiguous logs, but guard anyway).
			ent.Cmd = protocol.Command{Op: protocol.OpNop}
		}
		adopt = append(adopt, ent.Cmd)
	}
	return adopt, 1
}

// Accept rejects an append that does not cover our whole log (line 16):
// MultiPaxos never deletes accepted values, so neither may we — the leader
// will extend its proposal. With the fast path on, that applies to the
// classic prefix only: a speculative tail was never classically accepted
// at any ballot, so an append that covers the prefix but not the tail is
// fine — covered speculative slots are ratified or overwritten, the rest
// stay speculative. An admitted append overwrites everything it covers.
func (star) Accept(e *Engine, m *MsgAppendReq) Verdict {
	classicEnd := e.LastIndex()
	if e.specFrom > 0 {
		classicEnd = e.specFrom - 1
	}
	if m.PrevIndex+int64(len(m.Entries)) < classicEnd {
		return Verdict{Reject: true, Hint: classicEnd}
	}
	return Verdict{From: m.PrevIndex + 1}
}

// Ballot: accepting re-stamps every covered entry with the leader's term
// (logBallot[i] = term for all i), exactly like a MultiPaxos re-proposal.
func (star) Ballot(_ protocol.Entry, accepted uint64) uint64 { return accepted }

// Commit needs no §5.4.2 current-term check: every acknowledged entry was
// re-stamped to the current ballot.
func (star) Commit(_ *Engine, quorum int64) int64 { return quorum }

// Rename: Raft*'s messages are the engine's own.
func (star) Rename(m protocol.Message) protocol.Message { return m }
