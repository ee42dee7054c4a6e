// Package testcluster is a deterministic, synchronous multi-node harness
// for unit and property tests of consensus engines. Messages are queued
// and delivered under test control (in order, shuffled, dropped,
// duplicated, or partitioned), and per-node applied logs are recorded so
// tests can assert agreement invariants.
package testcluster

import (
	"fmt"
	"math/rand"
	"sort"

	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// Cluster drives a set of engines in lockstep.
type Cluster struct {
	Engines map[protocol.NodeID]protocol.Engine
	Queue   []protocol.Envelope
	Rng     *rand.Rand

	// Fault injection.
	DropRate float64
	DupRate  float64
	cut      map[[2]protocol.NodeID]bool

	// Observed behaviour.
	Applied map[protocol.NodeID][]protocol.Entry
	// Replies records client completions. Read replies carry the value the
	// serving node returned (from its store below), so tests can check
	// what a client actually observed — the raw material of the
	// linearizability checker.
	Replies []protocol.ClientReply
	// Installed records snapshot images adopted over the wire per node, in
	// order — the driver-side install a live cluster.Node performs
	// (persist + state-machine restore) reduced to bookkeeping here.
	Installed map[protocol.NodeID][]protocol.SnapshotImage

	// observe, when set, intercepts every engine output before Collect
	// absorbs it, and may mutate it in place. The campaign harness
	// implements its durability model there: the node's cluster.Persister
	// writes the output to a per-node crash store and hands on its
	// messages once the round is durable (withholding the barrier messages
	// of rounds whose persist failed), and re-commits a restarted node
	// already applied in a previous incarnation are dropped.
	observe func(id protocol.NodeID, out *protocol.Output)

	// Stores holds each node's state machine, the one that ships. Each
	// node's output goes through appliers[id], the kvstore.Applier every
	// driver shares, so a stale local store yields a stale observable
	// read, exactly like the real runtime.
	Stores   map[protocol.NodeID]*kvstore.Store
	appliers map[protocol.NodeID]*kvstore.Applier
	// logs holds each node's log as a live driver's store would, built
	// from its outputs (persist); contractErr is the first change refused.
	logs        map[protocol.NodeID]*storage.Mem
	contractErr error
}

// New builds a cluster over the given engines.
func New(seed int64, engines ...protocol.Engine) *Cluster {
	c := &Cluster{
		Engines:   make(map[protocol.NodeID]protocol.Engine, len(engines)),
		Rng:       rand.New(rand.NewSource(seed)),
		cut:       make(map[[2]protocol.NodeID]bool),
		Applied:   make(map[protocol.NodeID][]protocol.Entry),
		Installed: make(map[protocol.NodeID][]protocol.SnapshotImage),
		Stores:    make(map[protocol.NodeID]*kvstore.Store),
		appliers:  make(map[protocol.NodeID]*kvstore.Applier),
		logs:      make(map[protocol.NodeID]*storage.Mem),
	}
	for _, e := range engines {
		c.Engines[e.ID()] = e
		c.Stores[e.ID()] = kvstore.New()
		c.appliers[e.ID()] = kvstore.NewApplier(c.Stores[e.ID()])
		c.logs[e.ID()] = storage.NewMem()
	}
	return c
}

// Partition cuts or heals the bidirectional link a<->b.
func (c *Cluster) Partition(a, b protocol.NodeID, cut bool) {
	c.cut[[2]protocol.NodeID{a, b}] = cut
	c.cut[[2]protocol.NodeID{b, a}] = cut
}

// Isolate cuts every link touching n (or heals them).
func (c *Cluster) Isolate(n protocol.NodeID, cut bool) {
	for id := range c.Engines {
		if id != n {
			c.Partition(n, id, cut)
		}
	}
}

// Collect absorbs an engine output produced at node id, mirroring a real
// driver: it records the applied entries and hands the output to the
// node's kvstore.Applier, recording every answer in Replies.
func (c *Cluster) Collect(id protocol.NodeID, out protocol.Output) {
	if c.observe != nil {
		c.observe(id, &out)
	}
	c.Queue = append(c.Queue, out.Msgs...)
	if out.InstalledSnapshot != nil {
		c.Installed[id] = append(c.Installed[id], *out.InstalledSnapshot)
	}
	c.persist(id, out)
	for _, ci := range out.Commits {
		c.Applied[id] = append(c.Applied[id], ci.Entry)
	}
	c.appliers[id].Apply(out.Commits, out.Replies, out.ReadStates, func(rep protocol.ClientReply, _ kvstore.Source) {
		c.Replies = append(c.Replies, rep)
	})
}

// persist applies an output to the node's store copy as the Output
// contract orders it: the installed snapshot, then the appended entries
// under the store's overwrite-and-truncate append.
func (c *Cluster) persist(id protocol.NodeID, out protocol.Output) {
	var err error
	if img := out.InstalledSnapshot; img != nil {
		err = c.logs[id].InstallSnapshot(storage.Snapshot{Index: img.Index, Term: img.Term})
	}
	if err == nil {
		err = c.logs[id].Append(out.AppendedEntries)
	}
	if err != nil && c.contractErr == nil {
		c.contractErr = fmt.Errorf("node %d broke the output contract: %v", id, err)
	}
}

// IDs returns the node IDs in ascending order. Everything that drives
// the engines iterates this, never the Engines map: Go randomizes map
// order per run, and a seed that ticks nodes in a different order each
// time does not replay.
func (c *Cluster) IDs() []protocol.NodeID {
	ids := make([]protocol.NodeID, 0, len(c.Engines))
	for id := range c.Engines {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Tick ticks every engine once, in ID order.
func (c *Cluster) Tick() {
	for _, id := range c.IDs() {
		c.Collect(id, c.Engines[id].Tick())
	}
}

// TickNode ticks a single engine.
func (c *Cluster) TickNode(id protocol.NodeID) {
	c.Collect(id, c.Engines[id].Tick())
}

// Submit proposes a command at node id.
func (c *Cluster) Submit(id protocol.NodeID, cmd protocol.Command) {
	c.Collect(id, c.Engines[id].Submit(cmd))
}

// SubmitRead requests a read at node id.
func (c *Cluster) SubmitRead(id protocol.NodeID, cmd protocol.Command) {
	c.Collect(id, c.Engines[id].SubmitRead(cmd))
}

// deliver pops the queued envelope at position i and delivers it,
// honouring partitions, drops and duplication. A self-addressed envelope
// is a replica's own ack, which its runtime hands back once the round it
// rode is durable: it never crosses the network, so no fault touches it,
// but it waits in the queue like the persist round it stands for.
func (c *Cluster) deliver(i int) {
	env := c.Queue[i]
	c.Queue = append(c.Queue[:i], c.Queue[i+1:]...)
	if env.From == env.To {
		if dst, ok := c.Engines[env.To]; ok {
			c.Collect(env.To, dst.Step(env.From, env.Msg))
		}
		return
	}
	if c.cut[[2]protocol.NodeID{env.From, env.To}] {
		return
	}
	if c.DropRate > 0 && c.Rng.Float64() < c.DropRate {
		return
	}
	dst, ok := c.Engines[env.To]
	if !ok {
		return // message to a client endpoint; tests observe via Replies
	}
	if c.DupRate > 0 && c.Rng.Float64() < c.DupRate {
		c.Collect(env.To, dst.Step(env.From, env.Msg))
	}
	c.Collect(env.To, dst.Step(env.From, env.Msg))
}

// DeliverAll delivers queued messages in FIFO order until quiescent.
// It returns the number of messages delivered and stops (test safety) at
// the limit.
func (c *Cluster) DeliverAll(limit int) int {
	n := 0
	for len(c.Queue) > 0 {
		c.deliver(0)
		n++
		if n >= limit {
			break
		}
	}
	return n
}

// DeliverShuffled delivers queued messages in random order while
// preserving FIFO order within each (from, to) pair — the guarantee a TCP
// link gives, and the one Mencius's skip rule relies on (a skip barrier
// must not overtake its owner's earlier proposals).
func (c *Cluster) DeliverShuffled(limit int) int {
	n := 0
	for len(c.Queue) > 0 && n < limit {
		// First queued index of each live pair.
		firsts := make([]int, 0, 8)
		seen := make(map[[2]protocol.NodeID]bool, 8)
		for i, env := range c.Queue {
			key := [2]protocol.NodeID{env.From, env.To}
			if !seen[key] {
				seen[key] = true
				firsts = append(firsts, i)
			}
		}
		c.deliver(firsts[c.Rng.Intn(len(firsts))])
		n++
	}
	return n
}

// DeliverChaos delivers queued messages in a fully random order, with no
// pairwise FIFO guarantee. Suitable for protocols robust to arbitrary
// reordering (Raft, Raft*, MultiPaxos).
func (c *Cluster) DeliverChaos(limit int) int {
	n := 0
	for len(c.Queue) > 0 && n < limit {
		c.deliver(c.Rng.Intn(len(c.Queue)))
		n++
	}
	return n
}

// Settle alternates ticking and delivering until the cluster quiesces or
// rounds are exhausted. It is the standard way tests advance time.
func (c *Cluster) Settle(rounds int) {
	for r := 0; r < rounds; r++ {
		c.Tick()
		c.DeliverAll(100000)
	}
}

// Leader returns the unique engine that currently claims leadership, or
// nil if none or more than one does.
func (c *Cluster) Leader() protocol.Engine {
	var found protocol.Engine
	for _, e := range c.Engines {
		if e.IsLeader() {
			if found != nil {
				return nil
			}
			found = e
		}
	}
	return found
}

// ElectLeader ticks until some node claims leadership, returning it.
func (c *Cluster) ElectLeader(maxRounds int) (protocol.Engine, error) {
	for r := 0; r < maxRounds; r++ {
		c.Tick()
		c.DeliverAll(100000)
		if l := c.Leader(); l != nil {
			return l, nil
		}
	}
	return nil, fmt.Errorf("no leader after %d rounds", maxRounds)
}

// CheckAgreement verifies the core safety property shared by all
// protocols here, aligned on log index so a node that jumped forward via
// a snapshot install (its applied sequence starts mid-stream) is still
// fully checked: every node applies a contiguous run of indexes (the
// only permitted jump is the recorded install boundary), and any two
// nodes that applied the same index applied the same (Cmd.ID, Op, Key)
// there. It first reports any engine whose log changes its store copy
// refused: a live node would have wedged on them. Nodes are checked in
// ID order, so a failing seed reports the same pair on every run.
func (c *Cluster) CheckAgreement() error {
	if c.contractErr != nil {
		return c.contractErr
	}
	ref := make(map[int64]protocol.Entry)
	refOwner := make(map[int64]protocol.NodeID)
	for _, id := range c.IDs() {
		app := c.Applied[id]
		imgIdx := int64(0)
		if imgs := c.Installed[id]; len(imgs) > 0 {
			// Entries at or below the last installed image are covered by
			// the image itself; anything the node applied individually
			// before the install is superseded by it.
			imgIdx = imgs[len(imgs)-1].Index
		}
		last := imgIdx
		for _, ent := range app {
			if ent.Index <= imgIdx {
				continue
			}
			if last > 0 && ent.Index != last+1 {
				return fmt.Errorf("node %d applied index %d after %d (gap or regression)", id, ent.Index, last)
			}
			last = ent.Index
			got, seen := ref[ent.Index]
			if !seen {
				ref[ent.Index] = ent
				refOwner[ent.Index] = id
				continue
			}
			if ent.Cmd.ID != got.Cmd.ID || ent.Cmd.Op != got.Cmd.Op || ent.Cmd.Key != got.Cmd.Key {
				return fmt.Errorf(
					"node %d applied %+v at index %d, but node %d applied %+v",
					id, ent, ent.Index, refOwner[ent.Index], got)
			}
		}
	}
	return nil
}
