package testcluster_test

import (
	"fmt"
	"testing"

	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/testcluster"
)

// The fast write path under the full linearizability gauntlet: the same
// drops / leader partition / churn schedule the classic engines face, but
// with every write eligible for the one-RTT speculative path (and, on a
// 3-node cluster, a fast quorum of 3/3 — so most faulted rounds fall back
// to the leader, exercising the arbitration path constantly).
func TestLinearizableRaftFast(t *testing.T)       { runLinearWorkload(t, "raft+fast", 31) }
func TestLinearizableRaftStarFast(t *testing.T)   { runLinearWorkload(t, "raftstar+fast", 32) }
func TestLinearizableMultiPaxosFast(t *testing.T) { runLinearWorkload(t, "multipaxos+fast", 33) }

// runFastCollisionStorm is the collision-storm sabotage: every client
// hammers ONE key through a different replica simultaneously, so
// concurrent fast rounds race into the same slots on every step. Message
// duplication replays fast acks, drops lose them, and a mid-storm leader
// deposal forces the new leader to recover speculative suffixes — the
// history must stay linearizable and every op must eventually complete.
func runFastCollisionStorm(t *testing.T, name string, seed int64) {
	t.Helper()
	c := testcluster.New(seed, linearEngines(name, seed)...)
	if _, err := c.ElectLeader(300); err != nil {
		t.Fatal(err)
	}
	c.DupRate = 0.1  // replayed fast accepts and acks
	c.DropRate = 0.0 // raised mid-storm below
	h := testcluster.NewHistory()

	const (
		clients      = 3
		opsPerClient = 20 // 60 ops on one key: under the checker's cap
		maxSteps     = 3000
	)
	type stormClient struct {
		node    protocol.NodeID
		seq     int
		waiting uint64
		waited  int
	}
	cls := make([]*stormClient, clients)
	for i := range cls {
		cls[i] = &stormClient{node: protocol.NodeID(i % 3)}
	}
	scanned := 0
	var deposed protocol.NodeID = protocol.None
	scan := func() {
		for ; scanned < len(c.Replies); scanned++ {
			rep := c.Replies[scanned]
			for i, cl := range cls {
				if cl.waiting == rep.CmdID {
					if rep.Err != nil {
						h.Discard(rep.CmdID)
					} else {
						h.Return(rep.CmdID, string(rep.Value))
					}
					cls[i].waiting = 0
					cls[i].waited = 0
				}
			}
		}
	}
	done := func() bool {
		for _, cl := range cls {
			if cl.seq < opsPerClient || cl.waiting != 0 {
				return false
			}
		}
		return true
	}
	for step := 0; step < maxSteps && !done(); step++ {
		switch step {
		case 150:
			c.DropRate = 0.05 // lost acks mid-storm
		case 300:
			c.DropRate = 0
			if l := c.Leader(); l != nil {
				deposed = l.ID()
				c.Isolate(deposed, true)
			}
		case 600:
			if deposed != protocol.None {
				c.Isolate(deposed, false)
				deposed = protocol.None
			}
		}
		for i, cl := range cls {
			if cl.waiting != 0 {
				if cl.waited++; cl.waited > 60 {
					cl.waiting, cl.waited = 0, 0 // abandoned, stays open
				}
				continue
			}
			if cl.seq >= opsPerClient {
				continue
			}
			cl.seq++
			cmdID := uint64(i+1)<<32 | uint64(cl.seq)
			val := fmt.Sprintf("s%d-%d", i, cl.seq)
			h.Invoke(cmdID, i, true, "hot", val)
			cl.waiting = cmdID
			c.Submit(cl.node, protocol.Command{
				ID: cmdID, Client: 900 + protocol.NodeID(i), Op: protocol.OpPut,
				Key: "hot", Value: []byte(val),
			})
		}
		c.Tick()
		c.DeliverShuffled(5000)
		scan()
	}
	if deposed != protocol.None {
		c.Isolate(deposed, false)
	}
	c.DupRate, c.DropRate = 0, 0
	c.Settle(80)
	scan()

	if err := c.CheckAgreement(); err != nil {
		t.Fatalf("%s storm agreement: %v", name, err)
	}
	if err := h.Check(); err != nil {
		t.Fatalf("%s storm linearizability: %v", name, err)
	}
	if h.Len() < clients*opsPerClient {
		t.Fatalf("%s storm: recorded %d ops, want %d", name, h.Len(), clients*opsPerClient)
	}
	// Under replays and a leader change too: no put takes effect twice, and
	// the fast path's counters add up.
	repeats, puts, err := checkAppliedOnce(c)
	if err != nil {
		t.Fatalf("%s storm: %v", name, err)
	}
	if err := checkFastCounts(c); err != nil {
		t.Fatalf("%s storm: %v", name, err)
	}
	t.Logf("%s storm: %d ops on one key linearizable (%d never completed; %d of %d committed puts repeats, skipped)",
		name, h.Len(), h.Outstanding(), repeats, puts)
}

func TestFastCollisionStormRaft(t *testing.T)       { runFastCollisionStorm(t, "raft+fast", 41) }
func TestFastCollisionStormRaftStar(t *testing.T)   { runFastCollisionStorm(t, "raftstar+fast", 42) }
func TestFastCollisionStormMultiPaxos(t *testing.T) { runFastCollisionStorm(t, "multipaxos+fast", 43) }

// extractEnvelopes removes and returns every queued envelope matching
// pred, preserving the order of the rest.
func extractEnvelopes(c *testcluster.Cluster, pred func(protocol.Envelope) bool) []protocol.Envelope {
	var taken []protocol.Envelope
	kept := c.Queue[:0]
	for _, env := range c.Queue {
		if pred(env) {
			taken = append(taken, env)
		} else {
			kept = append(kept, env)
		}
	}
	c.Queue = kept
	return taken
}

// runFastAckReplayAcrossLeaderChange is the deterministic ack-loss
// sabotage: a follower's fast round runs with every fast ack stolen off
// the wire, the command commits via the leader's classic arbitration
// instead, the leader is deposed — and THEN the stolen acks are replayed
// into the new regime. The stale acks carry the old term and the old
// leader bit; the trackers must shed them without double-committing or
// resurrecting the round.
func runFastAckReplayAcrossLeaderChange(t *testing.T, name string, seed int64) {
	t.Helper()
	c := testcluster.New(seed, linearEngines(name, seed)...)
	if _, err := c.ElectLeader(300); err != nil {
		t.Fatal(err)
	}
	oldLeader := c.Leader().ID()
	follower := protocol.NodeID((int(oldLeader) + 1) % 3)

	// The fast round, with every MsgFastAck stolen before delivery.
	c.Submit(follower, protocol.Command{
		ID: 100, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v-fast"),
	})
	isAck := func(env protocol.Envelope) bool {
		_, ok := env.Msg.(*protocol.MsgFastAck)
		return ok
	}
	var stolen []protocol.Envelope
	for i := 0; i < 20000; i++ {
		stolen = append(stolen, extractEnvelopes(c, isAck)...)
		if c.DeliverAll(1) == 0 {
			break
		}
	}
	stolen = append(stolen, extractEnvelopes(c, isAck)...)
	if len(stolen) == 0 {
		t.Fatalf("%s: no fast acks generated — fast path not engaged", name)
	}
	// The leader's classic arbitration must have committed the command
	// anyway (the fast quorum could never confirm without acks).
	c.Settle(10)
	if n := countCommits(c, 100); n != 3 {
		t.Fatalf("%s: command committed on %d/3 nodes before leader change", name, n)
	}

	// Leader change: depose the old leader, then heal.
	_, newLeader := depose(t, c)
	c.Isolate(oldLeader, false)
	c.Settle(20)

	// Replay the stolen acks into the new regime and run a fresh write
	// through it to prove the cluster is still live and consistent.
	c.Queue = append(c.Queue, stolen...)
	c.Settle(20)
	c.Submit(newLeader, protocol.Command{
		ID: 101, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("v-after"),
	})
	c.Settle(30)

	if err := c.CheckAgreement(); err != nil {
		t.Fatalf("%s agreement after ack replay: %v", name, err)
	}
	for id := range c.Engines {
		if n := dupApplied(c, id, 100); n != 1 {
			t.Fatalf("%s: node %d applied cmd 100 %d times after ack replay", name, id, n)
		}
	}
	if n := countCommits(c, 101); n != 3 {
		t.Fatalf("%s: post-replay write committed on %d/3 nodes", name, n)
	}
	t.Logf("%s: %d stale fast acks replayed across %d->%d with no double-commit",
		name, len(stolen), oldLeader, newLeader)
}

// countCommits returns how many nodes applied the command.
func countCommits(c *testcluster.Cluster, cmdID uint64) int {
	n := 0
	for id := range c.Engines {
		if dupApplied(c, id, cmdID) > 0 {
			n++
		}
	}
	return n
}

// dupApplied counts how many times a node applied the command.
func dupApplied(c *testcluster.Cluster, id protocol.NodeID, cmdID uint64) int {
	n := 0
	for _, ent := range c.Applied[id] {
		if ent.Cmd.ID == cmdID {
			n++
		}
	}
	return n
}

func TestFastAckReplayRaft(t *testing.T) {
	runFastAckReplayAcrossLeaderChange(t, "raft+fast", 51)
}
func TestFastAckReplayRaftStar(t *testing.T) {
	runFastAckReplayAcrossLeaderChange(t, "raftstar+fast", 52)
}
func TestFastAckReplayMultiPaxos(t *testing.T) {
	runFastAckReplayAcrossLeaderChange(t, "multipaxos+fast", 53)
}

// fastEngine is the restart surface shared by the three ported engines.
type fastEngine interface {
	protocol.Engine
	Campaign() protocol.Output
}

// killHarness drives engines directly while mirroring the accept-time WAL
// a live driver keeps: every AppendedEntries emission is applied with
// overwrite-and-truncate semantics, so the recorded log is exactly what a
// crashed replica would recover from disk.
type killHarness struct {
	engines map[protocol.NodeID]fastEngine
	wal     map[protocol.NodeID][]protocol.Entry
	commits map[protocol.NodeID][]protocol.Entry
	queue   []protocol.Envelope
}

func newKillHarness() *killHarness {
	return &killHarness{
		engines: map[protocol.NodeID]fastEngine{},
		wal:     map[protocol.NodeID][]protocol.Entry{},
		commits: map[protocol.NodeID][]protocol.Entry{},
	}
}

func (h *killHarness) collect(t *testing.T, id protocol.NodeID, out protocol.Output) {
	t.Helper()
	for _, ent := range out.AppendedEntries {
		n := int(ent.Index) - 1
		if n < 0 || n > len(h.wal[id]) {
			t.Fatalf("node %d appended index %d over a WAL of %d entries (gap)",
				id, ent.Index, len(h.wal[id]))
		}
		h.wal[id] = append(h.wal[id][:n], ent)
	}
	for _, ci := range out.Commits {
		h.commits[id] = append(h.commits[id], ci.Entry)
	}
	h.queue = append(h.queue, out.Msgs...)
}

// deliver drains the queue, delivering only envelopes matching pred (nil
// = everything); the rest stay queued.
func (h *killHarness) deliver(t *testing.T, pred func(protocol.Envelope) bool) {
	t.Helper()
	for rounds := 0; rounds < 10000; rounds++ {
		delivered := false
		for i := 0; i < len(h.queue); i++ {
			env := h.queue[i]
			if pred != nil && !pred(env) {
				continue
			}
			h.queue = append(h.queue[:i], h.queue[i+1:]...)
			if dst, ok := h.engines[env.To]; ok {
				h.collect(t, env.To, dst.Step(env.From, env.Msg))
			}
			delivered = true
			break
		}
		if !delivered {
			return
		}
	}
	t.Fatal("kill harness never quiesced")
}

func (h *killHarness) settle(t *testing.T, rounds int) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		for id, e := range h.engines {
			h.collect(t, id, e.Tick())
		}
		h.deliver(t, nil)
	}
}

// runFastSuffixSurvivesKill is the full-cluster-kill sabotage: a follower
// starts a fast round, every replica accepts speculatively and persists
// (accept-time durability), and the whole cluster dies before a single
// ack is delivered — mid-fast-round, nothing committed anywhere. On
// restart from the recorded WALs, the new leader must recover the
// quorum-accepted fast suffix through the election read-back
// (protocol.ChooseFast) and commit the SAME command classically.
func runFastSuffixSurvivesKill(t *testing.T, name string, build func(id protocol.NodeID) fastEngine) {
	t.Helper()
	peers := []protocol.NodeID{0, 1, 2}
	h := newKillHarness()
	for _, id := range peers {
		h.engines[id] = build(id)
	}

	// Node 0 leads; node 1 submits the fast round.
	h.collect(t, 0, h.engines[0].Campaign())
	h.deliver(t, nil)
	h.settle(t, 3)
	if !h.engines[0].IsLeader() {
		t.Fatalf("%s: node 0 did not take leadership", name)
	}
	cmd := protocol.Command{ID: 100, Client: 900, Op: protocol.OpPut, Key: "k", Value: []byte("survivor")}
	h.collect(t, 1, h.engines[1].Submit(cmd))

	// Deliver ONLY the fast accepts: every replica persists the
	// speculative entry, then the cluster dies with all acks in flight.
	h.deliver(t, func(env protocol.Envelope) bool {
		_, ok := env.Msg.(*protocol.MsgFastAccept)
		return ok
	})
	for _, id := range peers {
		for _, ent := range h.commits[id] {
			if ent.Cmd.ID == 100 {
				t.Fatalf("%s: node %d committed the fast round before the kill", name, id)
			}
		}
		found := false
		for _, ent := range h.wal[id] {
			if ent.Cmd.ID == 100 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: node %d's WAL lost the fast-accepted entry", name, id)
		}
	}

	// Kill: drop every in-flight message, snapshot durable state, rebuild.
	terms := map[protocol.NodeID]uint64{}
	votes := map[protocol.NodeID]protocol.NodeID{}
	for _, id := range peers {
		terms[id] = h.engines[id].Term()
		votes[id] = h.engines[id].VotedFor()
	}
	h.queue = nil
	h.commits = map[protocol.NodeID][]protocol.Entry{}
	for _, id := range peers {
		e := build(id)
		e.RestoreHardState(terms[id], votes[id])
		e.RestoreLog(h.wal[id], 0)
		h.engines[id] = e
	}

	// Recovery: the submitting follower campaigns; the election read-back
	// must adopt the surviving fast suffix and drive it to commit.
	h.collect(t, 1, h.engines[1].Campaign())
	h.deliver(t, nil)
	h.settle(t, 20)
	for _, id := range peers {
		n := 0
		for _, ent := range h.commits[id] {
			if ent.Cmd.ID == 100 {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("%s: node %d committed the surviving command %d times after restart (commit=%d)",
				name, id, n, h.engines[id].CommitIndex())
		}
	}
	t.Logf("%s: fast suffix survived a full-cluster kill and committed once everywhere", name)
}

func TestFastSuffixSurvivesKillRaft(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	runFastSuffixSurvivesKill(t, "raft", func(id protocol.NodeID) fastEngine {
		return raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2,
			Seed: 61, FastPath: true,
		})
	})
}

func TestFastSuffixSurvivesKillRaftStar(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	runFastSuffixSurvivesKill(t, "raftstar", func(id protocol.NodeID) fastEngine {
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2,
			Seed: 62, FastPath: true,
		})
	})
}

func TestFastSuffixSurvivesKillMultiPaxos(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	runFastSuffixSurvivesKill(t, "multipaxos", func(id protocol.NodeID) fastEngine {
		return multipaxos.New(multipaxos.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2,
			Seed: 63, FastPath: true,
		})
	})
}
