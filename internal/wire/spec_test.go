package wire

import (
	"encoding/hex"
	"flag"
	"fmt"
	"testing"

	"raftpaxos/internal/lease"
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
)

// specVectors pins the exact bytes AppendMessage produces for one fixed
// instance of every registered type. These are golden: a mismatch means
// the wire format changed, which breaks mixed-version clusters — bump
// wireVersion in the transport handshake and update the vector, never
// silently reshape a payload.
//
// Record layout: varint(from) | tag byte | payload (fields in declaration
// order; see codec.go for the per-type field list).
var genSpec = flag.Bool("gen-spec", false, "print the spec-vector golden column instead of checking it")

var specCmd = protocol.Command{ID: 7, Client: 2, Op: protocol.OpPut, Key: "k1", Value: []byte("v1"), Size: 11}

var specEntry = protocol.Entry{Index: 9, Term: 4, Bal: 4, Cmd: specCmd}

var specVectors = []struct {
	msg protocol.Message
	hex string
}{
	{&raft.MsgVoteReq{Term: 5, LastIndex: 10, LastTerm: 4, Commit: 8}, "060105140410"},
	{&raft.MsgVoteResp{Term: 5, Granted: true, Extra: []protocol.Entry{specEntry}}, "0602050101120404070401026b3102763116"},
	{&raft.MsgAppendReq{Term: 4, PrevIndex: 8, PrevTerm: 4, Entries: []protocol.Entry{specEntry}, Commit: 8, ReadCtx: 3, PrevID: 7}, "060304100401120404070401026b3102763116100307"},
	{&raft.MsgAppendResp{Term: 4, Ok: true, LastIndex: 9, ReadCtx: 3}, "060404011203"},
	{&raft.MsgForward{Cmds: []protocol.Command{specCmd}}, "060501070401026b3102763116"},
	{&raftstar.MsgVoteReq{Term: 5, LastIndex: 10, LastTerm: 4, Commit: 8}, "060605140410"},
	{&raftstar.MsgVoteResp{Term: 5, Granted: true, Extra: []protocol.Entry{specEntry}, LastIndex: 9}, "0607050101120404070401026b310276311612"},
	{&raftstar.MsgAppendReq{Term: 4, PrevIndex: 8, PrevTerm: 4, Entries: []protocol.Entry{specEntry}, Commit: 8, ReadCtx: 3, PrevID: 7}, "060804100401120404070401026b3102763116100307"},
	{&raftstar.MsgAppendResp{Term: 4, Ok: true, LastIndex: 9, Holders: []protocol.NodeID{0, 2}, ReadCtx: 3}, "060904011202000403"},
	{&raftstar.MsgForward{Cmds: []protocol.Command{specCmd}}, "060a01070401026b3102763116"},
	{&multipaxos.MsgPrepare{Bal: 6, Unchosen: 3}, "060b0606"},
	{&multipaxos.MsgPrepareOK{Bal: 6, Insts: []multipaxos.InstanceInfo{{Idx: 3, Bal: 5, Cmd: specCmd, Chosen: true}}, Base: 2}, "060c06010605070401026b31027631160104"},
	{&multipaxos.MsgAccept{Bal: 6, Insts: []multipaxos.InstanceInfo{{Idx: 4, Bal: 6, Cmd: specCmd}}, ChosenPrefix: 3, ReadCtx: 3}, "060d06010806070401026b3102763116000603"},
	{&multipaxos.MsgAcceptOK{Bal: 6, Idxs: []int64{4}, Holders: []protocol.NodeID{1}, NeedFrom: 0, ReadCtx: 3}, "060e06010801020003"},
	{&multipaxos.MsgForward{Cmds: []protocol.Command{specCmd}}, "060f01070401026b3102763116"},
	{&mencius.MsgPropose{Owner: 1, Proposer: 1, Bal: 0, Slots: []mencius.SlotCmd{{Slot: 4, Cmd: specCmd}}, Barrier: 2, Frontier: []int64{3, 1, 4}}, "06100202000108070401026b31027631160403060208"},
	{&mencius.MsgProposeOK{Bal: 0, Slots: []int64{4}, Barrier: 2, Frontier: []int64{3, 1, 4}}, "06110001080403060208"},
	{&mencius.MsgCoordHB{Barrier: 2, Frontier: []int64{3, 1, 4}}, "06120403060208"},
	{&mencius.MsgRevokePrep{Owner: 2, Bal: 7, From: 5}, "061304070a"},
	{&mencius.MsgRevokePromise{Owner: 2, Bal: 7, Props: []mencius.SlotProp{{Slot: 5, Bal: 6, Cmd: specCmd}}, MaxSlot: 8}, "06140407010a06070401026b310276311610"},
	{&lease.MsgGrant{Duration: 40, Seq: 12, Accepted: 9}, "0615500c12"},
	{&lease.MsgGrantAck{Seq: 12}, "06160c"},
	{&lease.MsgReadReq{Cmd: specCmd}, "0617070401026b3102763116"},
	{&protocol.MsgInstallSnapshot{Term: 4, Index: 9, SnapTerm: 4, Offset: 512, Data: []byte{0xAA, 0xBB}, Done: true}, "0619041204800802aabb01"},
	{&protocol.MsgInstallSnapshotResp{Term: 4, Index: 9, NextOffset: 514, Installed: false}, "061a0412840800"},
	{&protocol.MsgReadForward{Cmds: []protocol.Command{specCmd}, Term: 4}, "061b01070401026b310276311604"},
	{&protocol.MsgFastAccept{Cmds: []protocol.Command{specCmd}}, "061c01070401026b3102763116"},
	{&protocol.MsgFastAck{Term: 4, Base: 9, IDs: []uint64{7}, Leader: true}, "061d0412010701"},
}

func TestSpecVectors(t *testing.T) {
	if len(specVectors) != builtinTypeCount {
		t.Fatalf("spec table has %d vectors, registry has %d types", len(specVectors), builtinTypeCount)
	}
	for _, tc := range specVectors {
		buf, err := AppendMessage(nil, 3, tc.msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", tc.msg, err)
		}
		if got := hex.EncodeToString(buf); got != tc.hex {
			t.Errorf("%T: wire bytes changed\n got  %q\n want %q\n(format change: bump transport wireVersion and update this vector)", tc.msg, got, tc.hex)
		}
	}
}

// TestGenSpecVectors regenerates the golden column; run with
//
//	go test ./internal/wire -run GenSpec -v -gen-spec
//
// and paste the output when a deliberate format change bumps wireVersion.
func TestGenSpecVectors(t *testing.T) {
	if !*genSpec {
		t.Skip("pass -gen-spec to print the golden vector column")
	}
	for _, tc := range specVectors {
		buf, err := AppendMessage(nil, 3, tc.msg)
		if err != nil {
			t.Fatalf("%T: %v", tc.msg, err)
		}
		fmt.Printf("%T: %q\n", tc.msg, hex.EncodeToString(buf))
	}
}
