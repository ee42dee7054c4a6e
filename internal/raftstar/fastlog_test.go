package raftstar_test

import (
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
)

// storeCopy is the store a live driver keeps for one replica: every output's
// AppendedEntries go to it under the store's overwrite-and-truncate append
// (the protocol.Output contract). After each step it must hold exactly the
// replica's log.
type storeCopy struct {
	t   *testing.T
	r   replica
	log *storage.Mem
}

func (s *storeCopy) take(step string, out protocol.Output) {
	s.t.Helper()
	if err := s.log.Append(out.AppendedEntries); err != nil {
		s.t.Fatalf("%s: the store refused the emission: %v", step, err)
	}
	last, _ := s.log.LastIndex()
	if last != s.r.LastIndex() {
		s.t.Fatalf("%s: the store holds the log through %d, the replica through %d", step, last, s.r.LastIndex())
	}
	for i := s.r.FirstIndex(); i <= last; i++ {
		held, _ := s.r.EntryAt(i)
		stored, _ := s.log.Entries(i, i)
		if stored[0].Cmd.ID != held.Cmd.ID {
			s.t.Fatalf("%s: the store holds command %d at %d, the replica %d", step, stored[0].Cmd.ID, i, held.Cmd.ID)
		}
	}
}

func cmd(id uint64) protocol.Command {
	return protocol.Command{ID: id, Client: 900, Op: protocol.OpPut, Key: "k"}
}

// TestAppendRestatesHeldSpeculativeTail: a follower fast-accepts two
// commands at slots 2 and 3, then the leader's append covers slot 2 only.
// Raft* overwrites slot 2 in place and keeps slot 3 speculative, which it
// has already fast-acked. The emission must restate slot 3: an emission
// that stops at 2 makes the store erase 3, and the next fast accept lands
// at 4, past the store's end.
func TestAppendRestatesHeldSpeculativeTail(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	eachVariant(t, func(t *testing.T, v variant) {
		cfg := config(1, peers, 1, false)
		cfg.FastPath = true
		f := v.new(cfg)
		s := &storeCopy{t: t, r: f, log: storage.NewMem()}
		e1 := protocol.Entry{Index: 1, Term: 1, Cmd: cmd(1)}
		s.take("first append", f.Step(0, v.req(raftstar.MsgAppendReq{Term: 1, Entries: []protocol.Entry{e1}})))
		s.take("fast accept 2..3", f.Step(2, &protocol.MsgFastAccept{Cmds: []protocol.Command{cmd(2), cmd(3)}}))
		s.take("append of 2", f.Step(0, v.req(raftstar.MsgAppendReq{
			Term: 1, PrevIndex: 1, PrevTerm: 1, PrevID: 1,
			Entries: []protocol.Entry{{Index: 2, Term: 1, Cmd: cmd(2)}},
		})))
		if f.LastIndex() != 3 {
			t.Fatalf("replica holds the log through %d, want the speculative slot 3 kept", f.LastIndex())
		}
		s.take("fast accept 4", f.Step(2, &protocol.MsgFastAccept{Cmds: []protocol.Command{cmd(4)}}))
	})
}

// TestFastRecoveryRestatesOwnTail: a candidate fast-accepts two commands
// after its campaign began, beyond every log the vote quorum reported.
// Recovery rewrites from slot 1 — a speculative copy becomes classic at the
// new term — so it must rewrite its own tail at slot 2 too. Stopping at the
// highest reported slot leaves slot 2 off the emission: the store erases
// it, and Raft's no-op barrier at 3 lands past the store's end.
func TestFastRecoveryRestatesOwnTail(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	eachVariant(t, func(t *testing.T, v variant) {
		cfg := config(0, peers, 1, false)
		cfg.FastPath = true
		x := v.new(cfg)
		s := &storeCopy{t: t, r: x, log: storage.NewMem()}
		s.take("heartbeat", x.Step(2, v.req(raftstar.MsgAppendReq{Term: 1})))
		s.take("campaign", x.Campaign())
		s.take("fast accept 1..2", x.Step(2, &protocol.MsgFastAccept{Cmds: []protocol.Command{cmd(1), cmd(2)}}))
		resp := raftstar.MsgVoteResp{Term: x.Term(), Granted: true,
			Extra: []protocol.Entry{{Index: 1, Term: 1, Bal: 0, Cmd: cmd(7)}}}
		var grant protocol.Message = &resp
		if v.name == "raft" {
			grant = (*raft.MsgVoteResp)(&resp)
		}
		s.take("vote", x.Step(1, grant))
		if !x.IsLeader() {
			t.Fatal("candidate not elected by two of three")
		}
	})
}

// TestAppendOverSpeculativePrevVouchesForNothing: a follower led at term 1
// holds entries 2..3 that the term-2 leader never wrote, then speculates a
// client command at slot 4 in term 2 — the command the leader also placed
// at slot 4. Speculative entries are not unique per (index, term), so an
// append whose PrevIndex is that slot proves nothing about the log below
// it: the follower must answer it as a mismatch hinting the slot before its
// speculative tail, not accept it and commit its stale entries 2..3.
func TestAppendOverSpeculativePrevVouchesForNothing(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	eachVariant(t, func(t *testing.T, v variant) {
		cfg := config(1, peers, 1, false)
		cfg.FastPath = true
		f := v.new(cfg)
		s := &storeCopy{t: t, r: f, log: storage.NewMem()}
		s.take("term-1 append", f.Step(0, v.req(raftstar.MsgAppendReq{Term: 1, Commit: 1, Entries: []protocol.Entry{
			{Index: 1, Term: 1, Cmd: cmd(1)}, {Index: 2, Term: 1, Cmd: cmd(2)}, {Index: 3, Term: 1, Cmd: cmd(3)},
		}})))
		s.take("term-2 heartbeat", f.Step(2, v.req(raftstar.MsgAppendReq{Term: 2, PrevIndex: 1, PrevTerm: 1, PrevID: 1, Commit: 1})))
		s.take("fast accept 4", f.Step(2, &protocol.MsgFastAccept{Cmds: []protocol.Command{cmd(40)}}))
		if f.LastIndex() != 4 {
			t.Fatalf("replica holds the log through %d, want the speculative slot 4", f.LastIndex())
		}
		out := f.Step(2, v.req(raftstar.MsgAppendReq{
			Term: 2, PrevIndex: 4, PrevTerm: 2, PrevID: 40, Commit: 5,
			Entries: []protocol.Entry{{Index: 5, Term: 2, Cmd: cmd(50)}},
		}))
		s.take("append over slot 4", out)
		if c := f.CommitIndex(); c != 1 {
			t.Fatalf("commit index %d after an append that verified nothing above 1", c)
		}
		for _, env := range out.Msgs {
			if r, ok := v.asResp(env.Msg); ok {
				if r.Ok || r.LastIndex != 3 {
					t.Fatalf("answered ok=%v hint %d, want a mismatch hinting 3", r.Ok, r.LastIndex)
				}
				return
			}
		}
		t.Fatal("the append got no answer")
	})
}
