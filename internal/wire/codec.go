package wire

import (
	"raftpaxos/internal/lease"
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
)

// The type-tag table. Tags are wire format: never renumber or reuse one
// (retire it and allocate the next free value instead). The payload of
// each type is its exported fields in declaration order, encoded with the
// package's primitives — the engines' message definitions carry matching
// "wire format" stability comments, and the golden vectors in
// spec_test.go pin every layout byte for byte.
const (
	tagInvalid Tag = 0

	TagRaftVoteReq    Tag = 1
	TagRaftVoteResp   Tag = 2
	TagRaftAppendReq  Tag = 3
	TagRaftAppendResp Tag = 4
	TagRaftForward    Tag = 5

	TagRaftstarVoteReq    Tag = 6
	TagRaftstarVoteResp   Tag = 7
	TagRaftstarAppendReq  Tag = 8
	TagRaftstarAppendResp Tag = 9
	TagRaftstarForward    Tag = 10

	TagPaxosPrepare   Tag = 11
	TagPaxosPrepareOK Tag = 12
	TagPaxosAccept    Tag = 13
	TagPaxosAcceptOK  Tag = 14
	TagPaxosForward   Tag = 15

	TagMenciusPropose       Tag = 16
	TagMenciusProposeOK     Tag = 17
	TagMenciusCoordHB       Tag = 18
	TagMenciusRevokePrep    Tag = 19
	TagMenciusRevokePromise Tag = 20

	TagLeaseGrant    Tag = 21
	TagLeaseGrantAck Tag = 22

	// TagLeaseReadReq was rql's read forward before the two lease wrappers
	// became lease.Engine; 24 was pql's copy, which no code ever sent —
	// retired, never to be reused.
	TagLeaseReadReq Tag = 23

	TagInstallSnapshot     Tag = 25
	TagInstallSnapshotResp Tag = 26
	TagReadForward         Tag = 27
	TagFastAccept          Tag = 28
	TagFastAck             Tag = 29

	// TagClusterReply is reserved for package cluster's MsgReply, which
	// cannot register here (cluster sits above the transport that imports
	// this package); cluster.RegisterMessages binds it.
	TagClusterReply Tag = 32
)

// Shared sub-codecs. Command and Entry are the vocabulary every engine's
// batches are built from; the WAL's entry frames reuse exactly this
// entry layout (storage adds its own length+CRC framing around it).

// AppendCommand appends cmd: ID, Client, Op, Key, Value, Size.
func AppendCommand(b []byte, cmd *protocol.Command) []byte {
	b = AppendUvarint(b, cmd.ID)
	b = AppendVarint(b, int64(cmd.Client))
	b = append(b, byte(cmd.Op))
	b = AppendString(b, cmd.Key)
	b = AppendBytes(b, cmd.Value)
	return AppendVarint(b, int64(cmd.Size))
}

// ReadCommand consumes one command (errors surface via r).
func ReadCommand(r *Reader) protocol.Command {
	var c protocol.Command
	c.ID = r.Uvarint()
	c.Client = protocol.NodeID(r.Varint())
	c.Op = protocol.Op(r.Byte())
	c.Key = r.String()
	c.Value = r.Bytes()
	c.Size = int(r.Varint())
	return c
}

// AppendEntry appends e: Index, Term, Bal, Cmd. This is the one entry
// layout in the system — the transport's append/accept batches and the
// WAL's frame bodies are byte-identical.
func AppendEntry(b []byte, e *protocol.Entry) []byte {
	b = AppendVarint(b, e.Index)
	b = AppendUvarint(b, e.Term)
	b = AppendUvarint(b, e.Bal)
	return AppendCommand(b, &e.Cmd)
}

// ReadEntry consumes one entry (errors surface via r).
func ReadEntry(r *Reader) protocol.Entry {
	var e protocol.Entry
	e.Index = r.Varint()
	e.Term = r.Uvarint()
	e.Bal = r.Uvarint()
	e.Cmd = ReadCommand(r)
	return e
}

// AppendEntries appends a counted entry batch.
func AppendEntries(b []byte, ents []protocol.Entry) []byte {
	b = AppendUvarint(b, uint64(len(ents)))
	for i := range ents {
		b = AppendEntry(b, &ents[i])
	}
	return b
}

// ReadEntries consumes a counted entry batch (nil when empty).
func ReadEntries(r *Reader) []protocol.Entry {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]protocol.Entry, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, ReadEntry(r))
	}
	return out
}

func appendCommands(b []byte, cmds []protocol.Command) []byte {
	b = AppendUvarint(b, uint64(len(cmds)))
	for i := range cmds {
		b = AppendCommand(b, &cmds[i])
	}
	return b
}

func readCommands(r *Reader) []protocol.Command {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]protocol.Command, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, ReadCommand(r))
	}
	return out
}

func appendInt64s(b []byte, vs []int64) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendVarint(b, v)
	}
	return b
}

func readInt64s(r *Reader) []int64 {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]int64, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.Varint())
	}
	return out
}

func appendNodeIDs(b []byte, vs []protocol.NodeID) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = AppendVarint(b, int64(v))
	}
	return b
}

func readNodeIDs(r *Reader) []protocol.NodeID {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]protocol.NodeID, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, protocol.NodeID(r.Varint()))
	}
	return out
}

// The vote-request and append-request layouts raft and raftstar share
// (their forwards share appendCommands/readCommands with everyone).

func appendVoteReq(b []byte, m *raftstar.MsgVoteReq) []byte {
	b = AppendUvarint(b, m.Term)
	b = AppendVarint(b, m.LastIndex)
	b = AppendUvarint(b, m.LastTerm)
	return AppendVarint(b, m.Commit)
}

func readVoteReq(r *Reader, m *raftstar.MsgVoteReq) {
	m.Term = r.Uvarint()
	m.LastIndex = r.Varint()
	m.LastTerm = r.Uvarint()
	m.Commit = r.Varint()
}

func appendAppendReq(b []byte, m *raftstar.MsgAppendReq) []byte {
	b = AppendUvarint(b, m.Term)
	b = AppendVarint(b, m.PrevIndex)
	b = AppendUvarint(b, m.PrevTerm)
	b = AppendEntries(b, m.Entries)
	b = AppendVarint(b, m.Commit)
	b = AppendUvarint(b, m.ReadCtx)
	return AppendUvarint(b, m.PrevID)
}

func readAppendReq(r *Reader, m *raftstar.MsgAppendReq) {
	m.Term = r.Uvarint()
	m.PrevIndex = r.Varint()
	m.PrevTerm = r.Uvarint()
	m.Entries = ReadEntries(r)
	m.Commit = r.Varint()
	m.ReadCtx = r.Uvarint()
	m.PrevID = r.Uvarint()
}

// registerBuiltin binds every engine message type this package can see.
// cluster.MsgReply registers from package cluster (see TagClusterReply).
func registerBuiltin() {
	// raft: vote request/response, append request/response, forward — the
	// engine's five structs (package raftstar) under Raft's own types and
	// tags; the disjoint tags keep the two variants from talking to each
	// other. Requests and forward share raftstar's layouts; the responses
	// keep Raft's shorter ones, without the Raft*-only MsgVoteResp.LastIndex
	// and MsgAppendResp.Holders.
	Register(TagRaftVoteReq, &raft.MsgVoteReq{}, Codec{
		New: func() protocol.Message { return &raft.MsgVoteReq{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendVoteReq(b, (*raftstar.MsgVoteReq)(msg.(*raft.MsgVoteReq)))
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raft.MsgVoteReq{}
			readVoteReq(r, (*raftstar.MsgVoteReq)(m))
			return m, r.Err()
		},
	})
	Register(TagRaftVoteResp, &raft.MsgVoteResp{}, Codec{
		New: func() protocol.Message { return &raft.MsgVoteResp{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*raft.MsgVoteResp)
			b = AppendUvarint(b, m.Term)
			b = AppendBool(b, m.Granted)
			return AppendEntries(b, m.Extra)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raft.MsgVoteResp{}
			m.Term = r.Uvarint()
			m.Granted = r.Bool()
			m.Extra = ReadEntries(r)
			return m, r.Err()
		},
	})
	Register(TagRaftAppendReq, &raft.MsgAppendReq{}, Codec{
		New: func() protocol.Message { return &raft.MsgAppendReq{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendAppendReq(b, (*raftstar.MsgAppendReq)(msg.(*raft.MsgAppendReq)))
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raft.MsgAppendReq{}
			readAppendReq(r, (*raftstar.MsgAppendReq)(m))
			return m, r.Err()
		},
	})
	Register(TagRaftAppendResp, &raft.MsgAppendResp{}, Codec{
		New: func() protocol.Message { return &raft.MsgAppendResp{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*raft.MsgAppendResp)
			b = AppendUvarint(b, m.Term)
			b = AppendBool(b, m.Ok)
			b = AppendVarint(b, m.LastIndex)
			return AppendUvarint(b, m.ReadCtx)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raft.MsgAppendResp{}
			m.Term = r.Uvarint()
			m.Ok = r.Bool()
			m.LastIndex = r.Varint()
			m.ReadCtx = r.Uvarint()
			return m, r.Err()
		},
	})
	Register(TagRaftForward, &raft.MsgForward{}, Codec{
		New: func() protocol.Message { return &raft.MsgForward{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendCommands(b, msg.(*raft.MsgForward).Cmds)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raft.MsgForward{Cmds: readCommands(r)}
			return m, r.Err()
		},
	})

	// raftstar: the same five shapes, plus the voter's last index on vote
	// responses and lease holders on append responses.
	Register(TagRaftstarVoteReq, &raftstar.MsgVoteReq{}, Codec{
		New: func() protocol.Message { return &raftstar.MsgVoteReq{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendVoteReq(b, msg.(*raftstar.MsgVoteReq))
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raftstar.MsgVoteReq{}
			readVoteReq(r, m)
			return m, r.Err()
		},
	})
	Register(TagRaftstarVoteResp, &raftstar.MsgVoteResp{}, Codec{
		New: func() protocol.Message { return &raftstar.MsgVoteResp{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*raftstar.MsgVoteResp)
			b = AppendUvarint(b, m.Term)
			b = AppendBool(b, m.Granted)
			b = AppendEntries(b, m.Extra)
			return AppendVarint(b, m.LastIndex)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raftstar.MsgVoteResp{}
			m.Term = r.Uvarint()
			m.Granted = r.Bool()
			m.Extra = ReadEntries(r)
			m.LastIndex = r.Varint()
			return m, r.Err()
		},
	})
	Register(TagRaftstarAppendReq, &raftstar.MsgAppendReq{}, Codec{
		New: func() protocol.Message { return &raftstar.MsgAppendReq{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendAppendReq(b, msg.(*raftstar.MsgAppendReq))
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raftstar.MsgAppendReq{}
			readAppendReq(r, m)
			return m, r.Err()
		},
	})
	Register(TagRaftstarAppendResp, &raftstar.MsgAppendResp{}, Codec{
		New: func() protocol.Message { return &raftstar.MsgAppendResp{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*raftstar.MsgAppendResp)
			b = AppendUvarint(b, m.Term)
			b = AppendBool(b, m.Ok)
			b = AppendVarint(b, m.LastIndex)
			b = appendNodeIDs(b, m.Holders)
			return AppendUvarint(b, m.ReadCtx)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raftstar.MsgAppendResp{}
			m.Term = r.Uvarint()
			m.Ok = r.Bool()
			m.LastIndex = r.Varint()
			m.Holders = readNodeIDs(r)
			m.ReadCtx = r.Uvarint()
			return m, r.Err()
		},
	})
	Register(TagRaftstarForward, &raftstar.MsgForward{}, Codec{
		New: func() protocol.Message { return &raftstar.MsgForward{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendCommands(b, msg.(*raftstar.MsgForward).Cmds)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &raftstar.MsgForward{Cmds: readCommands(r)}
			return m, r.Err()
		},
	})

	// multipaxos: prepare/prepareOK, accept/acceptOK, forward. The
	// InstanceInfo sub-codec (Idx, Bal, Cmd, Chosen) appears in both
	// phase-1b and phase-2a batches.
	appendInsts := func(b []byte, insts []multipaxos.InstanceInfo) []byte {
		b = AppendUvarint(b, uint64(len(insts)))
		for i := range insts {
			b = AppendVarint(b, insts[i].Idx)
			b = AppendUvarint(b, insts[i].Bal)
			b = AppendCommand(b, &insts[i].Cmd)
			b = AppendBool(b, insts[i].Chosen)
		}
		return b
	}
	readInsts := func(r *Reader) []multipaxos.InstanceInfo {
		n := r.count()
		if n == 0 {
			return nil
		}
		out := make([]multipaxos.InstanceInfo, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			var inst multipaxos.InstanceInfo
			inst.Idx = r.Varint()
			inst.Bal = r.Uvarint()
			inst.Cmd = ReadCommand(r)
			inst.Chosen = r.Bool()
			out = append(out, inst)
		}
		return out
	}
	Register(TagPaxosPrepare, &multipaxos.MsgPrepare{}, Codec{
		New: func() protocol.Message { return &multipaxos.MsgPrepare{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*multipaxos.MsgPrepare)
			b = AppendUvarint(b, m.Bal)
			return AppendVarint(b, m.Unchosen)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &multipaxos.MsgPrepare{}
			m.Bal = r.Uvarint()
			m.Unchosen = r.Varint()
			return m, r.Err()
		},
	})
	Register(TagPaxosPrepareOK, &multipaxos.MsgPrepareOK{}, Codec{
		New: func() protocol.Message { return &multipaxos.MsgPrepareOK{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*multipaxos.MsgPrepareOK)
			b = AppendUvarint(b, m.Bal)
			b = appendInsts(b, m.Insts)
			return AppendVarint(b, m.Base)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &multipaxos.MsgPrepareOK{}
			m.Bal = r.Uvarint()
			m.Insts = readInsts(r)
			m.Base = r.Varint()
			return m, r.Err()
		},
	})
	Register(TagPaxosAccept, &multipaxos.MsgAccept{}, Codec{
		New: func() protocol.Message { return &multipaxos.MsgAccept{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*multipaxos.MsgAccept)
			b = AppendUvarint(b, m.Bal)
			b = appendInsts(b, m.Insts)
			b = AppendVarint(b, m.ChosenPrefix)
			return AppendUvarint(b, m.ReadCtx)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &multipaxos.MsgAccept{}
			m.Bal = r.Uvarint()
			m.Insts = readInsts(r)
			m.ChosenPrefix = r.Varint()
			m.ReadCtx = r.Uvarint()
			return m, r.Err()
		},
	})
	Register(TagPaxosAcceptOK, &multipaxos.MsgAcceptOK{}, Codec{
		New: func() protocol.Message { return &multipaxos.MsgAcceptOK{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*multipaxos.MsgAcceptOK)
			b = AppendUvarint(b, m.Bal)
			b = appendInt64s(b, m.Idxs)
			b = appendNodeIDs(b, m.Holders)
			b = AppendVarint(b, m.NeedFrom)
			return AppendUvarint(b, m.ReadCtx)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &multipaxos.MsgAcceptOK{}
			m.Bal = r.Uvarint()
			m.Idxs = readInt64s(r)
			m.Holders = readNodeIDs(r)
			m.NeedFrom = r.Varint()
			m.ReadCtx = r.Uvarint()
			return m, r.Err()
		},
	})
	Register(TagPaxosForward, &multipaxos.MsgForward{}, Codec{
		New: func() protocol.Message { return &multipaxos.MsgForward{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendCommands(b, msg.(*multipaxos.MsgForward).Cmds)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &multipaxos.MsgForward{Cmds: readCommands(r)}
			return m, r.Err()
		},
	})

	// mencius: coordinated propose/ack, the barrier/frontier heartbeat,
	// and the revocation pair.
	Register(TagMenciusPropose, &mencius.MsgPropose{}, Codec{
		New: func() protocol.Message { return &mencius.MsgPropose{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*mencius.MsgPropose)
			b = AppendVarint(b, int64(m.Owner))
			b = AppendVarint(b, int64(m.Proposer))
			b = AppendUvarint(b, m.Bal)
			b = AppendUvarint(b, uint64(len(m.Slots)))
			for i := range m.Slots {
				b = AppendVarint(b, m.Slots[i].Slot)
				b = AppendCommand(b, &m.Slots[i].Cmd)
			}
			b = AppendVarint(b, m.Barrier)
			return appendInt64s(b, m.Frontier)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &mencius.MsgPropose{}
			m.Owner = protocol.NodeID(r.Varint())
			m.Proposer = protocol.NodeID(r.Varint())
			m.Bal = r.Uvarint()
			if n := r.count(); n > 0 {
				m.Slots = make([]mencius.SlotCmd, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					var sc mencius.SlotCmd
					sc.Slot = r.Varint()
					sc.Cmd = ReadCommand(r)
					m.Slots = append(m.Slots, sc)
				}
			}
			m.Barrier = r.Varint()
			m.Frontier = readInt64s(r)
			return m, r.Err()
		},
	})
	Register(TagMenciusProposeOK, &mencius.MsgProposeOK{}, Codec{
		New: func() protocol.Message { return &mencius.MsgProposeOK{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*mencius.MsgProposeOK)
			b = AppendUvarint(b, m.Bal)
			b = appendInt64s(b, m.Slots)
			b = AppendVarint(b, m.Barrier)
			return appendInt64s(b, m.Frontier)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &mencius.MsgProposeOK{}
			m.Bal = r.Uvarint()
			m.Slots = readInt64s(r)
			m.Barrier = r.Varint()
			m.Frontier = readInt64s(r)
			return m, r.Err()
		},
	})
	Register(TagMenciusCoordHB, &mencius.MsgCoordHB{}, Codec{
		New: func() protocol.Message { return &mencius.MsgCoordHB{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*mencius.MsgCoordHB)
			b = AppendVarint(b, m.Barrier)
			return appendInt64s(b, m.Frontier)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &mencius.MsgCoordHB{}
			m.Barrier = r.Varint()
			m.Frontier = readInt64s(r)
			return m, r.Err()
		},
	})
	Register(TagMenciusRevokePrep, &mencius.MsgRevokePrep{}, Codec{
		New: func() protocol.Message { return &mencius.MsgRevokePrep{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*mencius.MsgRevokePrep)
			b = AppendVarint(b, int64(m.Owner))
			b = AppendUvarint(b, m.Bal)
			return AppendVarint(b, m.From)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &mencius.MsgRevokePrep{}
			m.Owner = protocol.NodeID(r.Varint())
			m.Bal = r.Uvarint()
			m.From = r.Varint()
			return m, r.Err()
		},
	})
	Register(TagMenciusRevokePromise, &mencius.MsgRevokePromise{}, Codec{
		New: func() protocol.Message { return &mencius.MsgRevokePromise{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*mencius.MsgRevokePromise)
			b = AppendVarint(b, int64(m.Owner))
			b = AppendUvarint(b, m.Bal)
			b = AppendUvarint(b, uint64(len(m.Props)))
			for i := range m.Props {
				b = AppendVarint(b, m.Props[i].Slot)
				b = AppendUvarint(b, m.Props[i].Bal)
				b = AppendCommand(b, &m.Props[i].Cmd)
			}
			return AppendVarint(b, m.MaxSlot)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &mencius.MsgRevokePromise{}
			m.Owner = protocol.NodeID(r.Varint())
			m.Bal = r.Uvarint()
			if n := r.count(); n > 0 {
				m.Props = make([]mencius.SlotProp, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					var sp mencius.SlotProp
					sp.Slot = r.Varint()
					sp.Bal = r.Uvarint()
					sp.Cmd = ReadCommand(r)
					m.Props = append(m.Props, sp)
				}
			}
			m.MaxSlot = r.Varint()
			return m, r.Err()
		},
	})

	// lease: grant and acknowledgement.
	Register(TagLeaseGrant, &lease.MsgGrant{}, Codec{
		New: func() protocol.Message { return &lease.MsgGrant{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*lease.MsgGrant)
			b = AppendVarint(b, int64(m.Duration))
			b = AppendUvarint(b, m.Seq)
			return AppendVarint(b, m.Accepted)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &lease.MsgGrant{}
			m.Duration = int(r.Varint())
			m.Seq = r.Uvarint()
			m.Accepted = r.Varint()
			return m, r.Err()
		},
	})
	Register(TagLeaseGrantAck, &lease.MsgGrantAck{}, Codec{
		New: func() protocol.Message { return &lease.MsgGrantAck{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return AppendUvarint(b, msg.(*lease.MsgGrantAck).Seq)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &lease.MsgGrantAck{Seq: r.Uvarint()}
			return m, r.Err()
		},
	})

	// lease.Engine: read forwarding of a single command.
	Register(TagLeaseReadReq, &lease.MsgReadReq{}, Codec{
		New: func() protocol.Message { return &lease.MsgReadReq{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*lease.MsgReadReq)
			return AppendCommand(b, &m.Cmd)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &lease.MsgReadReq{Cmd: ReadCommand(r)}
			return m, r.Err()
		},
	})

	// protocol layer: snapshot transfer and read forwarding, shared by
	// every engine.
	Register(TagInstallSnapshot, &protocol.MsgInstallSnapshot{}, Codec{
		New: func() protocol.Message { return &protocol.MsgInstallSnapshot{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*protocol.MsgInstallSnapshot)
			b = AppendUvarint(b, m.Term)
			b = AppendVarint(b, m.Index)
			b = AppendUvarint(b, m.SnapTerm)
			b = AppendVarint(b, m.Offset)
			b = AppendBytes(b, m.Data)
			return AppendBool(b, m.Done)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &protocol.MsgInstallSnapshot{}
			m.Term = r.Uvarint()
			m.Index = r.Varint()
			m.SnapTerm = r.Uvarint()
			m.Offset = r.Varint()
			m.Data = r.Bytes()
			m.Done = r.Bool()
			return m, r.Err()
		},
	})
	Register(TagInstallSnapshotResp, &protocol.MsgInstallSnapshotResp{}, Codec{
		New: func() protocol.Message { return &protocol.MsgInstallSnapshotResp{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*protocol.MsgInstallSnapshotResp)
			b = AppendUvarint(b, m.Term)
			b = AppendVarint(b, m.Index)
			b = AppendVarint(b, m.NextOffset)
			return AppendBool(b, m.Installed)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &protocol.MsgInstallSnapshotResp{}
			m.Term = r.Uvarint()
			m.Index = r.Varint()
			m.NextOffset = r.Varint()
			m.Installed = r.Bool()
			return m, r.Err()
		},
	})
	Register(TagReadForward, &protocol.MsgReadForward{}, Codec{
		New: func() protocol.Message { return &protocol.MsgReadForward{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*protocol.MsgReadForward)
			b = appendCommands(b, m.Cmds)
			return AppendUvarint(b, m.Term)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &protocol.MsgReadForward{Cmds: readCommands(r)}
			m.Term = r.Uvarint()
			return m, r.Err()
		},
	})
	Register(TagFastAccept, &protocol.MsgFastAccept{}, Codec{
		New: func() protocol.Message { return &protocol.MsgFastAccept{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			return appendCommands(b, msg.(*protocol.MsgFastAccept).Cmds)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &protocol.MsgFastAccept{Cmds: readCommands(r)}
			return m, r.Err()
		},
	})
	Register(TagFastAck, &protocol.MsgFastAck{}, Codec{
		New: func() protocol.Message { return &protocol.MsgFastAck{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*protocol.MsgFastAck)
			b = AppendUvarint(b, m.Term)
			b = AppendVarint(b, m.Base)
			b = AppendUvarint(b, uint64(len(m.IDs)))
			for _, id := range m.IDs {
				b = AppendUvarint(b, id)
			}
			return AppendBool(b, m.Leader)
		},
		Decode: func(r *Reader) (protocol.Message, error) {
			m := &protocol.MsgFastAck{}
			m.Term = r.Uvarint()
			m.Base = r.Varint()
			if n := r.count(); n > 0 {
				m.IDs = make([]uint64, 0, n)
				for i := 0; i < n && r.err == nil; i++ {
					m.IDs = append(m.IDs, r.Uvarint())
				}
			}
			m.Leader = r.Bool()
			return m, r.Err()
		},
	})
}
