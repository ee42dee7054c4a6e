package protocol

// Hooks are the four points at which a non-mutating optimization touches a
// log-replication engine — the engine-level form of the paper's porting
// framework: every hook reads engine state and maintains only new state of
// its own, and because Raft* and MultiPaxos take the same struct, an
// optimization written against it (Paxos Quorum Leases: package lease) is
// ported by installing it, not by rewriting it. All four are optional.
type Hooks struct {
	// Holders is attached to every positive append/accept acknowledgement
	// (PQL's modified Phase2b, Figure 11 line 16: the leases this replica
	// granted).
	Holders func() []NodeID
	// OnAck observes, at the leader, the holders an acknowledgement from
	// peer from carried (PQL's Learn, Figure 11 line 21).
	OnAck func(from NodeID, holders []NodeID)
	// MustAck names, for an acknowledgement from replica from (the leader's
	// own included), the replicas that must have acknowledged the same
	// entry for that acknowledgement to count; an entry commits once a
	// quorum of its acknowledgements count (Figure 11 line 23; for Raft*
	// the ported LeaderLearn, Figure 13). The hook says who; Votes applies
	// it, once for every engine, to the voters that hold the entry durably
	// — for Raft* a match index at or past it, for MultiPaxos a vote for the
	// instance itself. The rule is per acknowledgement, and has no clock in it, on purpose:
	// what a replica said it granted binds for as long as its vote is used
	// (it may be renewing those grants where the leader cannot hear), and
	// binds nothing it did not vote for (a crashed grantor blocks nothing).
	MustAck func(from NodeID) []NodeID
	// OnAccept observes every entry accepted into the local log, on the
	// leader when it appends or re-proposes and on followers when they
	// accept (lease conflict tracking needs both sides — the paper's
	// example of a multi-action Phase2b correspondence).
	OnAccept func(index int64, cmd Command)
}
