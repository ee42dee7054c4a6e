package raftstar

import "raftpaxos/internal/protocol"

// entriesWireSize sums the simulated wire size of a batch of entries.
func entriesWireSize(ents []protocol.Entry) int {
	n := 0
	for i := range ents {
		n += 24 + ents[i].Cmd.WireSize()
	}
	return n
}

// cmdsWireSize sums the simulated wire size of a batch of commands.
func cmdsWireSize(cmds []protocol.Command) int {
	n := 0
	for i := range cmds {
		n += cmds[i].WireSize()
	}
	return n
}

// Wire stability: the message types below travel the live wire through internal/wire;
// exported field ORDER is the encoded layout and is frozen. Append new
// fields at the end and bump the transport's wireVersion.
//
// MsgVoteReq is Raft*'s requestVote (maps to Paxos prepare / msg1a).
type MsgVoteReq struct {
	Term      uint64
	LastIndex int64
	LastTerm  uint64
	// Commit is the candidate's commit index: with the fast write path on,
	// a granting voter reports its log above it (not just above LastIndex)
	// so the new leader can run the fast-suffix recovery rule
	// (protocol.ChooseFast) over speculative entries the up-to-date check
	// never sees.
	Commit int64
}

// WireSize implements protocol.Message.
func (m *MsgVoteReq) WireSize() int { return 32 }

// MsgVoteResp is Raft*'s requestVoteOK (maps to Paxos prepareOK / msg1b).
// Unlike Raft, a granting voter ships the entries beyond the candidate's
// last index so the new leader can extend its log with safe values instead
// of erasing follower suffixes.
type MsgVoteResp struct {
	Term    uint64
	Granted bool
	// Extra are the voter's entries with Index > candidate's LastIndex.
	Extra []protocol.Entry
	// LastIndex is the voter's last log index (leader uses it to seed
	// replication state).
	LastIndex int64
}

// WireSize implements protocol.Message.
func (m *MsgVoteResp) WireSize() int { return 16 + entriesWireSize(m.Extra) }

// RequiresBarrier implements protocol.BarrierMessage: a vote grant
// promises the recorded term, vote, and shipped extras are durable.
func (m *MsgVoteResp) RequiresBarrier() {}

// CmdCount implements simnet.CmdCounter.
func (m *MsgVoteResp) CmdCount() int { return len(m.Extra) }

// MsgAppendReq is Raft*'s append (maps to Paxos accept / msg2a). On arrival
// the acceptor re-stamps the ballot of every entry up to the append's end
// with the sender's term — the Raft* change that restores the Paxos
// invariant that accepting overwrites the instance ballot.
type MsgAppendReq struct {
	Term      uint64
	PrevIndex int64
	PrevTerm  uint64
	Entries   []protocol.Entry
	Commit    int64
	// ReadCtx is the highest open ReadIndex confirmation context at the
	// leader (0 = none); the follower echoes it in its response (see
	// protocol.ReadTracker).
	ReadCtx uint64
	// PrevID is the command ID of the sender's entry at PrevIndex (0 =
	// unknown/none). Only consulted when the receiver's entry at PrevIndex
	// is speculative (fast-accepted, Bal 0): two speculative entries can
	// share (index, term) while holding different commands, which the
	// PrevTerm check alone cannot see.
	PrevID uint64
}

// WireSize implements protocol.Message.
func (m *MsgAppendReq) WireSize() int { return 48 + entriesWireSize(m.Entries) }

// CmdCount implements simnet.CmdCounter.
func (m *MsgAppendReq) CmdCount() int { return len(m.Entries) }

// MsgAppendResp is Raft*'s appendOK (maps to Paxos acceptOK / msg2b).
type MsgAppendResp struct {
	Term uint64
	Ok   bool
	// LastIndex is the responder's last log index after the append (on Ok)
	// or its current last index (on reject, as a retry hint).
	LastIndex int64
	// Holders lists replicas currently holding a valid lease granted by the
	// responder. Only used by the Raft*-PQL extension; empty otherwise.
	Holders []protocol.NodeID
	// ReadCtx echoes the request's ReadIndex confirmation context. A
	// reject still echoes: even a log mismatch acknowledges the sender's
	// leadership at this term, which is all the read path needs.
	ReadCtx uint64
}

// WireSize implements protocol.Message.
func (m *MsgAppendResp) WireSize() int { return 32 + 4*len(m.Holders) }

// RequiresBarrier implements protocol.BarrierMessage: an append ack
// promises the accepted (re-stamped) entries are durable.
func (m *MsgAppendResp) RequiresBarrier() {}

// CoverDurable raises a self-ack's claim to last, the newest index the
// driver's store holds durably when it releases the ack (a follower's ack
// is never raised).
func (m *MsgAppendResp) CoverDurable(last int64) { m.LastIndex = max(m.LastIndex, last) }

// MsgForward carries client commands from a follower to the leader,
// batched as in etcd.
type MsgForward struct {
	Cmds []protocol.Command
}

// WireSize implements protocol.Message.
func (m *MsgForward) WireSize() int { return 8 + cmdsWireSize(m.Cmds) }

// CmdCount implements simnet.CmdCounter.
func (m *MsgForward) CmdCount() int { return len(m.Cmds) }
