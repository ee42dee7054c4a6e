// Package coorraft implements Coordinated Raft* — Raft*-Mencius, the
// Mencius optimization ported from Paxos onto Raft* by the paper's method
// (Appendix A.4, Figure 15).
//
// The porting derivation lives at the specification level in
// internal/specs (CoorRaft is generated from the Mencius optimization and
// the Raft*⇒Paxos refinement mapping). At the runtime level, the derived
// protocol's message behaviour is identical to Coordinated Paxos's by
// construction of the refinement, so this engine shares the coordination
// core in internal/mencius. The two paper-specific details that a
// handworked port would miss are handled there once for both flavours:
// skip tags must be collected during leader change (BecomeLeader) and skip
// marking must happen in *both* append paths (AppendEntries on the default
// leader itself and ReceiveAppend on acceptors), because Paxos's single
// Phase2b action corresponds to multiple Raft* actions.
package coorraft

import (
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/protocol"
)

// ReplyPolicy re-exports the coordination core's reply policies.
type ReplyPolicy = mencius.ReplyPolicy

// Policies.
const (
	// ReplyAtCommit is the commutative-operation (0%-conflict) mode.
	ReplyAtCommit = mencius.ReplyAtCommit
	// ReplyAtExecute is the conflicting-operation (100%-conflict) mode.
	ReplyAtExecute = mencius.ReplyAtExecute
)

// Config configures a Raft*-Mencius replica: the coordination core's own.
type Config = mencius.Config

// Engine is a Raft*-Mencius replica: the coordination core, every method
// of which — protocol.Engine, the board, the live driver's restore and
// truncation views — it exposes unchanged.
type Engine struct {
	*mencius.Engine
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a Raft*-Mencius replica.
func New(cfg Config) *Engine { return &Engine{mencius.New(cfg)} }
