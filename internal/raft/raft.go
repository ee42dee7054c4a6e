// Package raft is standard Raft per Figure 2 of the paper (black text
// only), following Ongaro & Ousterhout: the evaluation baseline and the
// protocol that provably does NOT refine MultiPaxos. It is the shared
// log-replication engine of package raftstar run under the three rules
// below — a follower erases extraneous log entries to match the leader (a
// state transition MultiPaxos forbids), entry terms are never overwritten,
// and that forces the §5.4.2 restriction that a leader only commits
// entries of its own term by counting replicas — plus Raft's own wire
// identity.
package raft

import (
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
)

// Wire identity: the five message types are the engine's structs under
// Raft's own names, bound to their own wire tags (internal/wire), so a Raft
// and a Raft* replica misconfigured into one group cannot talk to each
// other. The layouts are frozen: the vote request, append request and
// forward encode like Raft*'s; the two responses keep Raft's shorter
// encodings, which do not carry MsgVoteResp.LastIndex or
// MsgAppendResp.Holders.
type (
	// MsgVoteReq is Raft's RequestVote RPC.
	MsgVoteReq raftstar.MsgVoteReq
	// MsgVoteResp is Raft's RequestVote response. Unlike Raft*'s it ships
	// no log entries — except with the fast write path on, where Extra
	// reports the voter's entries above the candidate's commit index.
	MsgVoteResp raftstar.MsgVoteResp
	// MsgAppendReq is Raft's AppendEntries RPC.
	MsgAppendReq raftstar.MsgAppendReq
	// MsgAppendResp is Raft's AppendEntries response.
	MsgAppendResp raftstar.MsgAppendResp
	// MsgForward carries client commands from a follower to the leader.
	MsgForward raftstar.MsgForward
)

// WireSize implements protocol.Message.
func (m *MsgVoteReq) WireSize() int { return (*raftstar.MsgVoteReq)(m).WireSize() }

// WireSize implements protocol.Message: Raft*'s 16 simulated header bytes
// shrink to Raft's 9 (term + granted, no LastIndex).
func (m *MsgVoteResp) WireSize() int { return (*raftstar.MsgVoteResp)(m).WireSize() - 7 }

// CmdCount implements simnet.CmdCounter.
func (m *MsgVoteResp) CmdCount() int { return (*raftstar.MsgVoteResp)(m).CmdCount() }

// RequiresBarrier implements protocol.BarrierMessage: a vote grant
// promises the recorded term and vote are durable.
func (m *MsgVoteResp) RequiresBarrier() {}

// WireSize implements protocol.Message.
func (m *MsgAppendReq) WireSize() int { return (*raftstar.MsgAppendReq)(m).WireSize() }

// CmdCount implements simnet.CmdCounter.
func (m *MsgAppendReq) CmdCount() int { return (*raftstar.MsgAppendReq)(m).CmdCount() }

// WireSize implements protocol.Message.
func (m *MsgAppendResp) WireSize() int { return (*raftstar.MsgAppendResp)(m).WireSize() }

// RequiresBarrier implements protocol.BarrierMessage: an append ack
// promises the accepted entries are durable.
func (m *MsgAppendResp) RequiresBarrier() {}

// CoverDurable is raftstar.MsgAppendResp.CoverDurable.
func (m *MsgAppendResp) CoverDurable(last int64) { (*raftstar.MsgAppendResp)(m).CoverDurable(last) }

// WireSize implements protocol.Message.
func (m *MsgForward) WireSize() int { return (*raftstar.MsgForward)(m).WireSize() }

// CmdCount implements simnet.CmdCounter.
func (m *MsgForward) CmdCount() int { return (*raftstar.MsgForward)(m).CmdCount() }

// rules is standard Raft's rule set (see raftstar.Rules).
type rules struct{}

// ShipFrom: Raft's RequestVote response carries no log entries.
func (rules) ShipFrom(int64) int64 { return 0 }

// Recover appends a no-op barrier entry, which lets the new leader commit
// its predecessors' entries despite the §5.4.2 restriction; replication
// probes from the old log end instead of re-proposing anything.
func (rules) Recover(e *raftstar.Engine) ([]protocol.Command, int64) {
	return []protocol.Command{{Op: protocol.OpNop}}, e.LastIndex() + 1
}

// Accept never refuses: it finds the first entry that conflicts with what
// we hold — another term, or a speculative entry naming another command
// (those collide at equal terms; the leader's copy arbitrates) — and has
// everything from there on ERASED before the leader's entries are
// appended. The follower's log is forced to match the leader's, even if
// that shortens it: the transition with no MultiPaxos counterpart (Section
// 3). Entries we already hold are left alone.
func (rules) Accept(e *raftstar.Engine, m *raftstar.MsgAppendReq) raftstar.Verdict {
	for _, ent := range m.Entries {
		if ent.Index < e.FirstIndex() {
			continue // compacted, hence committed: cannot conflict
		}
		cur, held := e.EntryAt(ent.Index)
		if !held {
			return raftstar.Verdict{From: ent.Index}
		}
		if cur.Term != ent.Term || (cur.Bal == 0 && cur.Cmd.ID != ent.Cmd.ID) {
			return raftstar.Verdict{From: ent.Index, Erase: true}
		}
	}
	return raftstar.Verdict{From: m.PrevIndex + int64(len(m.Entries)) + 1}
}

// Ballot: the per-entry ballot simply mirrors the creation term and is
// never rewritten.
func (rules) Ballot(ent protocol.Entry, _ uint64) uint64 { return ent.Term }

// Commit applies §5.4.2: walk back to the highest quorum-matched index
// whose entry is from the current term; older entries commit only beneath
// one.
func (rules) Commit(e *raftstar.Engine, quorum int64) int64 {
	for quorum > e.CommitIndex() {
		if ent, _ := e.EntryAt(quorum); ent.Term == e.Term() {
			break
		}
		quorum--
	}
	return quorum
}

// Engine is a single Raft replica: the shared engine under Raft's rules,
// speaking Raft's message types.
type Engine struct {
	*raftstar.Engine
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a Raft replica. Hooks are dropped: they are the extension
// points Paxos optimizations port through, which needs the refinement Raft
// lacks (and Raft's append response has no room for lease holders).
func New(cfg raftstar.Config) *Engine {
	cfg.Hooks = protocol.Hooks{}
	return &Engine{raftstar.NewWithRules(cfg, rules{})}
}

// Step implements protocol.Engine. Only Raft's own types and the
// variant-neutral protocol messages reach the engine; anything else —
// another variant's traffic above all — is ignored.
func (e *Engine) Step(from protocol.NodeID, msg protocol.Message) protocol.Output {
	switch m := msg.(type) {
	case *MsgVoteReq:
		msg = (*raftstar.MsgVoteReq)(m)
	case *MsgVoteResp:
		msg = (*raftstar.MsgVoteResp)(m)
	case *MsgAppendReq:
		msg = (*raftstar.MsgAppendReq)(m)
	case *MsgAppendResp:
		msg = (*raftstar.MsgAppendResp)(m)
	case *MsgForward:
		msg = (*raftstar.MsgForward)(m)
	case *protocol.MsgInstallSnapshot, *protocol.MsgInstallSnapshotResp,
		*protocol.MsgReadForward, *protocol.MsgFastAccept, *protocol.MsgFastAck:
	default:
		return protocol.Output{}
	}
	return outbound(e.Engine.Step(from, msg))
}

// outbound renames the engine's messages to Raft's types on their way out
// (a pointer conversion: the structs are the same).
func outbound(out protocol.Output) protocol.Output {
	for i := range out.Msgs {
		switch m := out.Msgs[i].Msg.(type) {
		case *raftstar.MsgVoteReq:
			out.Msgs[i].Msg = (*MsgVoteReq)(m)
		case *raftstar.MsgVoteResp:
			out.Msgs[i].Msg = (*MsgVoteResp)(m)
		case *raftstar.MsgAppendReq:
			out.Msgs[i].Msg = (*MsgAppendReq)(m)
		case *raftstar.MsgAppendResp:
			out.Msgs[i].Msg = (*MsgAppendResp)(m)
		case *raftstar.MsgForward:
			out.Msgs[i].Msg = (*MsgForward)(m)
		}
	}
	return out
}

// Tick implements protocol.Engine.
func (e *Engine) Tick() protocol.Output { return outbound(e.Engine.Tick()) }

// Campaign forces an immediate election.
func (e *Engine) Campaign() protocol.Output { return outbound(e.Engine.Campaign()) }

// Submit implements protocol.Engine.
func (e *Engine) Submit(cmd protocol.Command) protocol.Output {
	return outbound(e.Engine.Submit(cmd))
}

// SubmitBatch implements protocol.BatchSubmitter.
func (e *Engine) SubmitBatch(cmds []protocol.Command) protocol.Output {
	return outbound(e.Engine.SubmitBatch(cmds))
}

// SubmitRead implements protocol.Engine.
func (e *Engine) SubmitRead(cmd protocol.Command) protocol.Output {
	return outbound(e.Engine.SubmitRead(cmd))
}

// SubmitReadBatch implements protocol.ReadBatchSubmitter.
func (e *Engine) SubmitReadBatch(cmds []protocol.Command) protocol.Output {
	return outbound(e.Engine.SubmitReadBatch(cmds))
}
