package raftstar_test

import (
	"fmt"
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
)

// The send rule, by hand: a follower that answers an append within the
// tick it was sent in gets one append per round trip, and what the leader
// proposes meanwhile leaves as one batch with the ack; a slower follower
// gets one append per proposal, up to raftstar.MaxInflight.

// link is a settled leader and one of its followers, driven by hand: the
// tests carry messages between the two and never tick the follower.
type link struct {
	v    variant
	l, f replica
}

func newLink(t *testing.T, v variant) link {
	t.Helper()
	c, l := settled(t, v, 3)
	return link{v: v, l: l, f: rep(c, otherThan(c, l.ID()))}
}

// appends returns the appends out carries to the follower.
func (k link) appends(out protocol.Output) []*raftstar.MsgAppendReq {
	var reqs []*raftstar.MsgAppendReq
	for _, env := range out.Msgs {
		if m, ok := k.v.asReq(env.Msg); ok && env.To == k.f.ID() {
			reqs = append(reqs, m)
		}
	}
	return reqs
}

// ack delivers an append to the follower and its answer to the leader,
// returning the leader's output.
func (k link) ack(m *raftstar.MsgAppendReq) protocol.Output {
	var out protocol.Output
	for _, env := range k.f.Step(k.l.ID(), k.v.req(*m)).Msgs {
		if env.To == k.l.ID() {
			out.Merge(k.l.Step(k.f.ID(), env.Msg))
		}
	}
	return out
}

// submit proposes put(id) at the leader and returns the appends it sent
// the follower.
func (k link) submit(id uint64) []*raftstar.MsgAppendReq {
	return k.appends(k.l.Submit(put(id, "k")))
}

// clock makes the link clocked: an append answered within its tick.
func (k link) clock(t *testing.T) {
	t.Helper()
	a := k.submit(1)
	if len(a) != 1 {
		t.Fatalf("%d appends for a submit on an idle link, want 1", len(a))
	}
	k.ack(a[0])
}

// beat ticks the leader until it sends the follower a heartbeat and
// returns it; with HeartbeatTicks 2 the next tick sends none.
func (k link) beat(t *testing.T) *raftstar.MsgAppendReq {
	t.Helper()
	for i := 0; i < 10; i++ {
		if a := k.appends(k.l.Tick()); len(a) > 0 {
			if len(a[0].Entries) != 0 {
				t.Fatalf("heartbeat carries %d entries, want none", len(a[0].Entries))
			}
			return a[0]
		}
	}
	t.Fatal("no heartbeat to the follower within 10 ticks")
	return nil
}

// ids lists the command IDs an append carries.
func ids(m *raftstar.MsgAppendReq) string {
	var s []uint64
	for _, ent := range m.Entries {
		s = append(s, ent.Cmd.ID)
	}
	return fmt.Sprint(s)
}

func TestSameTickAckBatchesHeldSubmits(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		k := newLink(t, v)
		k.clock(t)
		first := k.submit(10)
		if len(first) != 1 {
			t.Fatalf("%d appends for a submit with nothing in flight, want 1", len(first))
		}
		for id := uint64(11); id <= 13; id++ {
			if a := k.submit(id); len(a) != 0 {
				t.Fatalf("submit %d sent an append to a clocked follower with one in flight", id)
			}
		}
		next := k.appends(k.ack(first[0]))
		if len(next) != 1 || ids(next[0]) != "[11 12 13]" {
			t.Fatalf("the ack released %d appends, want one carrying [11 12 13]", len(next))
		}
	})
}

func TestLateAcksPipelineEverySubmit(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		for _, late := range []int{1, 2} {
			t.Run(fmt.Sprintf("%d ticks", late), func(t *testing.T) {
				k := newLink(t, v)
				k.clock(t)
				a := k.submit(10)
				for i := 0; i < late; i++ {
					k.l.Tick()
				}
				k.ack(a[0])
				var sent []*raftstar.MsgAppendReq
				for id := uint64(11); id < 11+raftstar.MaxInflight+4; id++ {
					a := k.submit(id)
					if len(a) > 1 || (len(a) == 1 && len(a[0].Entries) != 1) {
						t.Fatalf("submit %d sent %d appends, want at most one carrying it alone", id, len(a))
					}
					sent = append(sent, a...)
				}
				if len(sent) != raftstar.MaxInflight {
					t.Fatalf("%d appends pipelined after a late ack, want one per submit up to %d", len(sent), raftstar.MaxInflight)
				}
			})
		}
	})
}

func TestHeartbeatResponseDoesNotClockLink(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		k := newLink(t, v)
		k.clock(t)
		hb := k.beat(t)
		if a := k.submit(20); len(a) != 1 {
			t.Fatalf("%d appends for a submit with nothing in flight, want 1", len(a))
		}
		// The heartbeat's answer, Ok through the index before the append,
		// retires the append's record in the tick it was sent in without
		// covering it: the link pipelines, and a second submit does not
		// wait for the first.
		k.ack(hb)
		for id := uint64(21); id <= 22; id++ {
			if a := k.submit(id); len(a) != 1 {
				t.Fatalf("submit %d held: the heartbeat's answer clocked the link", id)
			}
		}
	})
}

func TestLostAppendToClockedFollowerResentWithinTick(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		k := newLink(t, v)
		k.clock(t)
		k.beat(t) // so the tick below sends no heartbeat to resend with
		if lost := k.submit(30); len(lost) != 1 {
			t.Fatalf("%d appends for a submit with nothing in flight, want 1", len(lost))
		}
		if a := k.submit(31); len(a) != 0 {
			t.Fatal("a clocked follower with one append in flight got a second")
		}
		out := k.l.Tick()
		for round := 0; len(k.appends(out)) > 0 && round < 10; round++ {
			var next protocol.Output
			for _, m := range k.appends(out) {
				next.Merge(k.ack(m))
			}
			out = next
		}
		if k.f.LastIndex() != k.l.LastIndex() {
			t.Fatalf("follower holds %d of %d one tick after the loss", k.f.LastIndex(), k.l.LastIndex())
		}
		for i := k.l.LastIndex() - 1; i <= k.l.LastIndex(); i++ {
			want, _ := k.l.EntryAt(i)
			if got, _ := k.f.EntryAt(i); got.Cmd.ID != want.Cmd.ID {
				t.Fatalf("follower holds command %d at %d, want %d", got.Cmd.ID, i, want.Cmd.ID)
			}
		}
	})
}

func TestRejectionResetsNextOnClockedLink(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		k := newLink(t, v)
		k.clock(t)
		if a := k.submit(40); len(a) != 1 {
			t.Fatalf("%d appends for a submit with nothing in flight, want 1", len(a))
		}
		k.submit(41) // held behind the append in flight
		last := k.l.LastIndex()
		hint := last - 3
		out := k.l.Step(k.f.ID(), v.resp(raftstar.MsgAppendResp{Term: k.l.Term(), LastIndex: hint}))
		re := k.appends(out)
		if len(re) != 1 || re[0].PrevIndex != hint || re[0].Entries[len(re[0].Entries)-1].Index != last {
			t.Fatalf("rejection hinting %d: %d appends, want one resending %d..%d", hint, len(re), hint+1, last)
		}
	})
}

func TestHeldEntriesOutliveCompaction(t *testing.T) {
	eachVariant(t, func(t *testing.T, v variant) {
		k := newLink(t, v)
		k.clock(t)
		if a := k.submit(50); len(a) != 1 {
			t.Fatalf("%d appends for a submit with nothing in flight, want 1", len(a))
		}
		held := k.l.LastIndex() + 1
		k.submit(51)
		k.submit(52)
		last := k.l.LastIndex()
		// The third replica (IDs are 0, 1, 2) and the leader's own ack
		// commit everything, the held entries included.
		other := 3 - k.l.ID() - k.f.ID()
		out := k.l.Step(other, v.resp(raftstar.MsgAppendResp{Term: k.l.Term(), Ok: true, LastIndex: last}))
		for _, own := range selfAcks(v, k.l.ID(), out) {
			k.l.Step(k.l.ID(), own)
		}
		if k.l.CommitIndex() != last {
			t.Fatalf("commit %d, want %d", k.l.CommitIndex(), last)
		}
		k.l.TruncatePrefix(last)
		if first := k.l.FirstIndex(); first > held {
			t.Fatalf("compaction kept the log from %d, dropping entries from %d held for a clocked follower", first, held)
		}
		a := k.appends(k.l.Tick())
		if len(a) == 0 || a[0].PrevIndex != held-1 || ids(a[0]) != "[51 52]" {
			t.Fatalf("the tick after compaction sent %d appends, want one carrying the held [51 52]", len(a))
		}
	})
}
