package wire

import (
	"math"
	"reflect"
	"testing"

	"raftpaxos/internal/lease"
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
)

// fuzzSeeds returns one well-formed encoded record per interesting shape,
// so the fuzzer starts from valid frames and mutates toward corruption.
func fuzzSeeds(tb testing.TB) [][]byte {
	msgs := []protocol.Message{
		&raft.MsgVoteReq{Term: 3, LastIndex: 9, LastTerm: 2},
		&raft.MsgAppendReq{Term: 5, PrevIndex: 4, PrevTerm: 5,
			Entries: []protocol.Entry{{Index: 5, Term: 5, Cmd: protocol.Command{ID: 1, Client: 2, Op: protocol.OpPut, Key: "k", Value: []byte("v")}}},
			Commit:  4},
		&raftstar.MsgAppendResp{Term: 2, Ok: true, LastIndex: 7, Holders: []protocol.NodeID{0, 1}},
		&multipaxos.MsgPrepareOK{Bal: 8, Insts: []multipaxos.InstanceInfo{{Idx: 3, Bal: 8, Chosen: true}}},
		&mencius.MsgPropose{Owner: 1, Proposer: 1, Bal: 1, Slots: []mencius.SlotCmd{{Slot: 4}}, Barrier: 2, Frontier: []int64{1, 2, 3}},
		&protocol.MsgInstallSnapshot{Term: 9, Index: 100, SnapTerm: 8, Data: []byte{1, 2, 3}, Done: true},
		&protocol.MsgReadForward{Cmds: []protocol.Command{{Op: protocol.OpGet, Key: "x"}}, Term: 7},
		&raft.MsgVoteResp{Term: math.MaxUint64, Granted: true},
		&protocol.MsgFastAccept{Cmds: []protocol.Command{
			{ID: 3, Client: 5, Op: protocol.OpPut, Key: "hot", Value: []byte("w")}}},
		&protocol.MsgFastAck{Term: 6, Base: 11, IDs: []uint64{3, math.MaxUint64}, Leader: true},
		&lease.MsgGrant{Duration: 40, Seq: 3, Accepted: math.MaxInt64},
	}
	var seeds [][]byte
	for _, m := range msgs {
		buf, err := AppendMessage(nil, 2, m)
		if err != nil {
			tb.Fatalf("%T: %v", m, err)
		}
		seeds = append(seeds, buf)
	}
	return seeds
}

// FuzzDecodeMessage feeds arbitrary bytes through the frame-body decode
// loop the TCP reader runs. The invariants: never panic, never allocate
// absurdly, and anything that decodes cleanly must re-encode and decode
// back to the same value (decode is a partial inverse of encode even on
// non-canonical input).
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	// Hand-built corruptions: truncated varint, unknown tag, huge count.
	f.Add([]byte{0x02})
	f.Add([]byte{0x02, 0xEE})
	f.Add([]byte{0x02, 0x03, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for r.Len() > 0 {
			_, msg, err := DecodeMessage(r)
			if err != nil {
				return // corrupt input must error, and it did
			}
			// Round-trip what decoded: encode and decode again.
			buf, err := AppendMessage(nil, 1, msg)
			if err != nil {
				t.Fatalf("decoded %T but cannot re-encode: %v", msg, err)
			}
			_, again, err := AppendMessageDecode(buf)
			if err != nil {
				t.Fatalf("re-decode of %T failed: %v", msg, err)
			}
			if !reflect.DeepEqual(msg, again) {
				t.Fatalf("re-decode of %T changed value", msg)
			}
		}
	})
}

// AppendMessageDecode is a test helper: decode exactly one record.
func AppendMessageDecode(buf []byte) (protocol.NodeID, protocol.Message, error) {
	r := NewReader(buf)
	from, msg, err := DecodeMessage(r)
	if err != nil {
		return 0, nil, err
	}
	return from, msg, r.Done()
}

// FuzzReadEntry covers the WAL's per-record body decode.
func FuzzReadEntry(f *testing.F) {
	f.Add(AppendEntry(nil, &protocol.Entry{}))
	f.Add(AppendEntry(nil, &protocol.Entry{Index: 7, Term: 3, Bal: 3,
		Cmd: protocol.Command{ID: 9, Client: 1, Op: protocol.OpPut, Key: "a", Value: []byte("bb"), Size: 2}}))
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		e := ReadEntry(r)
		if err := r.Done(); err != nil {
			return
		}
		got := ReadEntry(NewReader(AppendEntry(nil, &e)))
		if !reflect.DeepEqual(e, got) {
			t.Fatalf("entry re-decode changed value")
		}
	})
}

// TestTruncationEveryPrefix decodes every strict prefix of every seed:
// all must fail cleanly (no panic, no silent success).
func TestTruncationEveryPrefix(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		for n := 0; n < len(seed); n++ {
			r := NewReader(seed[:n])
			_, _, err := DecodeMessage(r)
			if err == nil {
				if derr := r.Done(); derr == nil {
					t.Fatalf("prefix %d/%d decoded cleanly", n, len(seed))
				}
			}
		}
	}
}

// TestCorruptionSingleByteFlips flips each byte of each seed and requires
// decode to either error or yield a message that still re-encodes — it
// must never panic or corrupt memory. (A flipped payload byte can decode
// to a different valid message; that is the CRC/compression layer's
// problem, not the codec's.)
func TestCorruptionSingleByteFlips(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		for i := range seed {
			mut := append([]byte(nil), seed...)
			mut[i] ^= 0xFF
			r := NewReader(mut)
			_, msg, err := DecodeMessage(r)
			if err != nil {
				continue
			}
			if _, err := AppendMessage(nil, 1, msg); err != nil {
				t.Fatalf("byte %d flip decoded to unencodable %T", i, msg)
			}
		}
	}
}
