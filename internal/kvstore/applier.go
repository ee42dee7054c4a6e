package kvstore

import "raftpaxos/internal/protocol"

// Source names the part of a protocol.Output a client answer came from.
type Source uint8

// Answer sources, in the order Apply emits them.
const (
	FromCommit    Source = iota + 1 // a Reply-flagged commit
	FromEngine                      // an engine reply (a ReplyRead without Err is a lease read)
	FromReadState                   // a confirmed ReadIndex read
)

// Applier is the driver half of protocol.Output, written once: the state
// machine plus the confirmed reads still waiting on it. The live
// cluster.Node, the testcluster harness and the simulator hand it each
// output's Commits, Replies and ReadStates, and get every client answer
// back through one callback, in this order:
//
//  1. Commits apply in log order. Each Reply-flagged commit is answered
//     straight after it applies, so a logged Get reads the state at its
//     own index, not the end of the batch.
//  2. Then each engine reply is answered as the engine gave it, except
//     that a ReplyRead without Err gets its value from the store: it is a
//     lease read the engine confirmed but only the driver can serve.
//  3. Then each ReadState is parked until the store has applied through
//     its Index, and served from the store once it has. The confirmation
//     round postdates each read's invocation, so the current state is a
//     linearizable answer, and parking keeps a read from observing a
//     quorum-acked suffix the store has not applied yet. Parked states are
//     checked again after every later batch, oldest first.
//
// Each answer goes to the callback as a protocol.ClientReply with its
// Source. Apply allocates nothing per answer. An Applier is not safe for
// concurrent use; its Store is.
type Applier struct {
	store  *Store
	parked []protocol.ReadState
}

// NewApplier returns an applier over s.
func NewApplier(s *Store) *Applier { return &Applier{store: s} }

// Apply applies and answers one output's parts, as Applier describes.
func (a *Applier) Apply(commits []protocol.CommitInfo, replies []protocol.ClientReply,
	reads []protocol.ReadState, answer func(protocol.ClientReply, Source)) {
	for _, ci := range commits {
		a.store.Apply(ci.Entry)
		if ci.Reply {
			cmd := ci.Entry.Cmd
			rep := protocol.ClientReply{Kind: protocol.ReplyWrite, CmdID: cmd.ID, Client: cmd.Client, Key: cmd.Key}
			if cmd.Op == protocol.OpGet {
				rep.Kind = protocol.ReplyRead
				rep.Value, _ = a.store.Get(cmd.Key)
			}
			answer(rep, FromCommit)
		}
	}
	for _, rep := range replies {
		if rep.Kind == protocol.ReplyRead && rep.Err == nil {
			rep.Value, _ = a.store.Get(rep.Key)
		}
		answer(rep, FromEngine)
	}
	if a.parked = append(a.parked, reads...); len(a.parked) == 0 {
		return
	}
	applied, keep := a.store.AppliedIndex(), a.parked[:0]
	for _, rs := range a.parked {
		if rs.Index > applied {
			keep = append(keep, rs)
			continue
		}
		for _, cmd := range rs.Cmds {
			v, _ := a.store.Get(cmd.Key)
			answer(protocol.ClientReply{Kind: protocol.ReplyRead, CmdID: cmd.ID, Client: cmd.Client, Key: cmd.Key, Value: v}, FromReadState)
		}
	}
	clear(a.parked[len(keep):])
	a.parked = keep
}
