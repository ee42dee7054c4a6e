package kvstore_test

import (
	"errors"
	"fmt"
	"testing"

	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/protocol"
)

func put(idx int64, key, val string, reply bool) protocol.CommitInfo {
	return protocol.CommitInfo{Reply: reply, Entry: protocol.Entry{Index: idx, Cmd: protocol.Command{
		ID: uint64(idx), Client: 7, Op: protocol.OpPut, Key: key, Value: []byte(val)}}}
}

func get(idx int64, key string) protocol.CommitInfo {
	return protocol.CommitInfo{Reply: true, Entry: protocol.Entry{Index: idx, Cmd: protocol.Command{
		ID: uint64(idx), Client: 7, Op: protocol.OpGet, Key: key}}}
}

func nop(idx int64) protocol.CommitInfo {
	return protocol.CommitInfo{Entry: protocol.Entry{Index: idx, Cmd: protocol.Command{Op: protocol.OpNop}}}
}

func readState(idx int64, ids ...uint64) protocol.ReadState {
	rs := protocol.ReadState{Index: idx}
	for _, id := range ids {
		rs.Cmds = append(rs.Cmds, protocol.Command{ID: id, Client: 8, Op: protocol.OpGet, Key: "k"})
	}
	return rs
}

// answer is one applier answer as a test compares it.
type answer struct {
	id    uint64
	src   kvstore.Source
	kind  protocol.ReplyKind
	value string
	err   bool
}

func (a answer) String() string {
	return fmt.Sprintf("{id %d src %d kind %d value %q err %v}", a.id, a.src, a.kind, a.value, a.err)
}

// TestApplierOrderAndParking drives one applier through a few batches and
// checks every answer, in order: a logged Get reads the state at its own
// index, an engine read reply is filled from the store unless it carries
// an error, a ReadState waits for the batch that applies through its
// index, and answers leave commits first, then replies, then reads.
func TestApplierOrderAndParking(t *testing.T) {
	errNotLeader := errors.New("not leader")
	steps := []struct {
		name    string
		commits []protocol.CommitInfo
		replies []protocol.ClientReply
		reads   []protocol.ReadState
		want    []answer
	}{
		{
			name:    "a logged get between two puts of its key reads the first",
			commits: []protocol.CommitInfo{put(1, "k", "a", true), get(2, "k"), put(3, "k", "b", false)},
			replies: []protocol.ClientReply{
				{Kind: protocol.ReplyRead, CmdID: 10, Client: 9, Key: "k", Err: errNotLeader},
				{Kind: protocol.ReplyRead, CmdID: 11, Client: 9, Key: "k"},
				{Kind: protocol.ReplyWrite, CmdID: 12, Client: 9, Key: "k"},
			},
			reads: []protocol.ReadState{readState(5, 20), readState(3, 21, 22)},
			want: []answer{
				{id: 1, src: kvstore.FromCommit, kind: protocol.ReplyWrite},
				{id: 2, src: kvstore.FromCommit, kind: protocol.ReplyRead, value: "a"},
				{id: 10, src: kvstore.FromEngine, kind: protocol.ReplyRead, err: true},
				{id: 11, src: kvstore.FromEngine, kind: protocol.ReplyRead, value: "b"},
				{id: 12, src: kvstore.FromEngine, kind: protocol.ReplyWrite},
				{id: 21, src: kvstore.FromReadState, kind: protocol.ReplyRead, value: "b"},
				{id: 22, src: kvstore.FromReadState, kind: protocol.ReplyRead, value: "b"},
			},
		},
		{
			name:    "a read state above the applied index stays parked",
			commits: []protocol.CommitInfo{put(4, "k", "c", false)},
			reads:   []protocol.ReadState{readState(4, 23)},
			want: []answer{
				{id: 23, src: kvstore.FromReadState, kind: protocol.ReplyRead, value: "c"},
			},
		},
		{
			name:    "the batch that applies through its index serves it",
			commits: []protocol.CommitInfo{nop(5), put(6, "k", "d", false)},
			want: []answer{
				{id: 20, src: kvstore.FromReadState, kind: protocol.ReplyRead, value: "d"},
			},
		},
		{
			name: "nothing left parked",
		},
	}
	store := kvstore.New()
	app := kvstore.NewApplier(store)
	for _, st := range steps {
		var got []answer
		app.Apply(st.commits, st.replies, st.reads, func(rep protocol.ClientReply, src kvstore.Source) {
			got = append(got, answer{id: rep.CmdID, src: src, kind: rep.Kind, value: string(rep.Value), err: rep.Err != nil})
		})
		if fmt.Sprint(got) != fmt.Sprint(st.want) {
			t.Fatalf("%s:\n got %v\nwant %v", st.name, got, st.want)
		}
	}
	if got := store.AppliedIndex(); got != 6 {
		t.Fatalf("applied index %d, want 6", got)
	}
}

// TestApplierAllocsPerAnswer bounds one warm Apply whose commits write
// nothing (Gets and no-ops), so only the applier is measured: no answer
// allocates.
func TestApplierAllocsPerAnswer(t *testing.T) {
	app := kvstore.NewApplier(kvstore.New())
	app.Apply([]protocol.CommitInfo{put(1, "k", "a", false)}, nil, nil, func(protocol.ClientReply, kvstore.Source) {})
	commits := []protocol.CommitInfo{get(2, "k"), nop(3), get(4, "k")}
	replies := []protocol.ClientReply{{Kind: protocol.ReplyRead, CmdID: 10, Client: 9, Key: "k"}}
	reads := []protocol.ReadState{readState(4, 20, 21), readState(3, 22)}
	answers := 0
	count := func(protocol.ClientReply, kvstore.Source) { answers++ }
	app.Apply(commits, replies, reads, count) // warm: the parked slice grows once
	if allocs := testing.AllocsPerRun(100, func() { app.Apply(commits, replies, reads, count) }); allocs != 0 {
		t.Fatalf("one Apply allocates %.1f times, want 0", allocs)
	}
	if answers == 0 {
		t.Fatal("no answers")
	}
}
