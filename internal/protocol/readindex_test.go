package protocol

import (
	"errors"
	"testing"
)

func rcmd(id uint64) Command {
	return Command{ID: id, Client: 900, Op: OpGet, Key: "k"}
}

func TestReadTrackerQuorumConfirmation(t *testing.T) {
	var tr ReadTracker
	tr.Reset(2, false) // 3-replica cluster: leader + 1 echo

	var out Output
	tr.Add([]Command{rcmd(1), rcmd(2)}, 7, None, &out)
	if len(out.ReadStates) != 0 {
		t.Fatalf("released before confirmation: %+v", out.ReadStates)
	}
	ctx := tr.MaxCtx()
	if ctx == 0 {
		t.Fatal("no ctx assigned")
	}
	tr.MarkSent()

	// An echo of an older ctx confirms nothing.
	var o2 Output
	tr.Ack(1, ctx-1, &o2)
	if len(o2.ReadStates) != 0 {
		t.Fatalf("stale echo released the batch")
	}

	var o3 Output
	tr.Ack(1, ctx, &o3)
	if len(o3.ReadStates) != 1 {
		t.Fatalf("quorum echo did not release: %+v", o3.ReadStates)
	}
	if rs := o3.ReadStates[0]; rs.Index != 7 || len(rs.Cmds) != 2 {
		t.Fatalf("wrong read state: %+v", rs)
	}
	if tr.Pending() != 0 {
		t.Fatalf("pending after release: %d", tr.Pending())
	}
}

func TestReadTrackerJoinsOnlyUnsentBatch(t *testing.T) {
	var tr ReadTracker
	tr.Reset(2, false)

	var out Output
	tr.Add([]Command{rcmd(1)}, 3, None, &out)
	tr.Add([]Command{rcmd(2)}, 5, None, &out) // joins, raising the index
	if got := tr.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	first := tr.MaxCtx()
	tr.MarkSent()
	tr.Add([]Command{rcmd(3)}, 5, None, &out) // sent: must open a new ctx
	if tr.MaxCtx() == first {
		t.Fatal("read joined a batch whose ctx was already in flight")
	}

	// An echo covering both ctxs releases both, the joined batch at the
	// raised index.
	tr.MarkSent()
	var o2 Output
	tr.Ack(2, tr.MaxCtx(), &o2)
	if len(o2.ReadStates) != 2 {
		t.Fatalf("want 2 read states, got %+v", o2.ReadStates)
	}
	if o2.ReadStates[0].Index != 5 || len(o2.ReadStates[0].Cmds) != 2 {
		t.Fatalf("joined batch wrong: %+v", o2.ReadStates[0])
	}
}

func TestReadTrackerCountsDistinctFollowers(t *testing.T) {
	var tr ReadTracker
	tr.Reset(3, false) // 5-replica cluster: leader + 2 echoes

	var out Output
	tr.Add([]Command{rcmd(1)}, 1, None, &out)
	ctx := tr.MaxCtx()
	tr.MarkSent()

	var o2 Output
	tr.Ack(1, ctx, &o2)
	tr.Ack(1, ctx, &o2) // duplicate echo from the same follower
	if len(o2.ReadStates) != 0 {
		t.Fatal("duplicate echo counted toward quorum")
	}
	tr.Ack(2, ctx, &o2)
	if len(o2.ReadStates) != 1 {
		t.Fatal("two distinct echoes did not confirm")
	}
}

func TestReadTrackerSingleReplicaAndSabotage(t *testing.T) {
	var tr ReadTracker
	tr.Reset(1, false)
	var out Output
	tr.Add([]Command{rcmd(1)}, 4, None, &out)
	if len(out.ReadStates) != 1 || out.ReadStates[0].Index != 4 {
		t.Fatalf("single-replica read not immediate: %+v", out.ReadStates)
	}

	tr.Reset(2, true) // sabotaged: no confirmation round
	var o2 Output
	tr.Add([]Command{rcmd(2)}, 9, None, &o2)
	if len(o2.ReadStates) != 1 {
		t.Fatalf("sabotaged tracker still confirmed: %+v", o2.ReadStates)
	}
}

func TestReadTrackerFailAll(t *testing.T) {
	var tr ReadTracker
	tr.Reset(2, false)
	var out Output
	tr.Add([]Command{rcmd(1), rcmd(2)}, 1, None, &out)
	tr.MarkSent()

	var o2 Output
	tr.FailAll(&o2)
	if len(o2.Replies) != 2 {
		t.Fatalf("want 2 failure replies, got %+v", o2.Replies)
	}
	for _, rep := range o2.Replies {
		if rep.Kind != ReplyRead || !errors.Is(rep.Err, ErrNotLeader) {
			t.Fatalf("wrong failure reply: %+v", rep)
		}
	}
	if tr.Pending() != 0 {
		t.Fatal("batches survived FailAll")
	}
}

// A forward stamped with the leader's own term pre-counts its sender: with
// three replicas leader + witness is the quorum, so the batch is released
// in the same step, nothing is parked and nothing waits for a broadcast —
// and earlier batches still awaiting echoes are left exactly as they were.
func TestReadTrackerWitnessCompletesQuorumOfThree(t *testing.T) {
	var tr ReadTracker
	tr.Reset(2, false)

	var out Output
	tr.Add([]Command{rcmd(1)}, 3, None, &out) // leader-local: still needs its round
	tr.MarkSent()
	tr.Add([]Command{rcmd(2), rcmd(3)}, 4, 1, &out)
	if len(out.ReadStates) != 1 || out.ReadStates[0].Index != 4 || len(out.ReadStates[0].Cmds) != 2 {
		t.Fatalf("witnessed batch not released on the spot: %+v", out.ReadStates)
	}
	if tr.Unsent() {
		t.Fatal("a released witnessed batch asked for a broadcast")
	}
	if tr.Pending() != 1 {
		t.Fatalf("pending = %d, want the one leader-local read", tr.Pending())
	}
}

// With five replicas a witnessed batch needs one echo instead of two, the
// witness's own echo adds nothing, and the witness vouches only for what
// it forwarded: a leader-local read neither joins the witnessed batch nor
// is joined by it.
func TestReadTrackerWitnessNeedsOneEchoOfFive(t *testing.T) {
	var tr ReadTracker
	tr.Reset(3, false)

	var out Output
	tr.Add([]Command{rcmd(1)}, 1, None, &out) // open, unsent, unwitnessed
	tr.Add([]Command{rcmd(2)}, 2, 1, &out)    // witnessed: must not join it
	tr.Add([]Command{rcmd(3)}, 3, None, &out) // local: must not join the witnessed one
	if len(out.ReadStates) != 0 {
		t.Fatalf("released before any echo: %+v", out.ReadStates)
	}
	if !tr.Unsent() {
		t.Fatal("parked batches did not ask for a broadcast")
	}
	ctx := tr.MaxCtx()
	if ctx != 3 {
		t.Fatalf("MaxCtx = %d, want three separate batches", ctx)
	}
	tr.MarkSent()
	if tr.Unsent() {
		t.Fatal("Unsent after MarkSent")
	}

	tr.Ack(1, ctx, &out) // the witness echoes: new for batches 1 and 3 only
	if len(out.ReadStates) != 0 {
		t.Fatalf("the witness's echo was counted twice: %+v", out.ReadStates)
	}
	tr.Ack(2, ctx, &out) // one more member: every batch now has leader + 2
	if len(out.ReadStates) != 3 {
		t.Fatalf("want all three batches released, got %+v", out.ReadStates)
	}
	for i, rs := range out.ReadStates {
		if len(rs.Cmds) != 1 || rs.Cmds[0].ID != uint64(i+1) || rs.Index != int64(i+1) {
			t.Fatalf("batch %d merged or reordered: %+v", i, rs)
		}
	}
	if tr.Pending() != 0 {
		t.Fatalf("pending = %d after release", tr.Pending())
	}

	// One echo is enough — and required — for a witnessed batch alone.
	tr.Add([]Command{rcmd(4)}, 5, 1, &out)
	tr.MarkSent()
	if len(out.ReadStates) != 3 {
		t.Fatal("witnessed batch of five released with no echo")
	}
	tr.Ack(3, tr.MaxCtx(), &out)
	if len(out.ReadStates) != 4 {
		t.Fatal("witness + one echo did not confirm")
	}
}

// The leader parks at most MaxParked commands: there is no
// check-quorum, so an isolated leader would otherwise hold every read sent
// to it. Overflow is rejected, not parked; what was parked fails on
// deposition and is never served.
func TestReadTrackerCapsParkedReads(t *testing.T) {
	var tr ReadTracker
	tr.Reset(2, false)

	var out Output
	id := uint64(0)
	for id < 2*MaxParked {
		batch := make([]Command, 100)
		for i := range batch {
			id++
			batch[i] = rcmd(id)
		}
		tr.Add(batch, 1, None, &out)
		tr.MarkSent()
		if tr.Pending() > MaxParked {
			t.Fatalf("parked %d reads, cap is %d", tr.Pending(), MaxParked)
		}
	}
	if tr.Pending() != MaxParked {
		t.Fatalf("parked %d reads, want the cap %d", tr.Pending(), MaxParked)
	}
	if len(out.Replies) != int(id)-MaxParked {
		t.Fatalf("rejected %d reads, want %d", len(out.Replies), int(id)-MaxParked)
	}
	for _, rep := range out.Replies {
		if !errors.Is(rep.Err, ErrNotLeader) || rep.CmdID <= MaxParked {
			t.Fatalf("wrong overflow reply: %+v", rep)
		}
	}
	var o2 Output
	tr.FailAll(&o2)
	if len(o2.Replies) != MaxParked || len(o2.ReadStates)+len(out.ReadStates) != 0 {
		t.Fatalf("deposition: %d failed, %d served", len(o2.Replies), len(o2.ReadStates)+len(out.ReadStates))
	}
	if tr.Pending() != 0 {
		t.Fatal("count survived FailAll")
	}
}

func TestOutputMergeCarriesReadStates(t *testing.T) {
	var a, b Output
	b.ReadStates = []ReadState{{Index: 3, Cmds: []Command{rcmd(1)}}}
	a.Merge(b)
	if len(a.ReadStates) != 1 || a.ReadStates[0].Index != 3 {
		t.Fatalf("merge dropped read states: %+v", a.ReadStates)
	}
}
