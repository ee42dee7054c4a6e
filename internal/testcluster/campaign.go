// Campaign: a seeded, Jepsen-style adversarial workload driver over the
// deterministic harness. It runs a mixed put/get workload against one of
// the consensus engines while a fault scheduler composes process kills,
// disk-write faults, torn restarts, partitions, message drops, and
// per-node clock skew / freezes, then feeds the complete client history
// through the Wing-Gong linearizability checker. Every run is fully
// determined by (engine, seed, ops): a failing seed replays exactly.
//
// The harness engines are pure state machines, so the durability contract
// a live cluster.Node provides (persist-before-ack, restart from hard
// state + log tail) is modeled here with a per-node crash disk: appended
// entries and hard state land on the disk as rounds complete, a failed
// append is retried ahead of every later one and releases no barrier
// message until it lands, a process kill keeps everything written, and a
// torn restart falls back to the last synced watermark — forcing the
// restarted engine to recover through RestoreHardState/RestoreLog exactly
// like the live runtime.
package testcluster

import (
	"fmt"
	"math/rand"

	"raftpaxos/internal/engines"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// CampaignEngines is the engine set -campaign and the linearizability
// sweep cover: every name in the engine registry but the leaderless
// raftstar-mencius. The campaign's victim choice still assumes one leader.
// The sweep can drive Mencius (-sweep-engines=raftstar-mencius), but
// Mencius loses agreement when one message is dropped (ROADMAP item 1).
var CampaignEngines = engines.Names(func(s engines.Spec) bool { return !s.Proto.Leaderless() })

// Campaign lease geometry. The margin is sized for the fault envelope the
// scheduler generates: clocks up to 2× fast or slow (margin ≥ D/2 = 20)
// and freezes up to campaignMaxFreeze steps (margin ≥ freeze), with a few
// ticks of slack for delivery delay. See internal/lease for the formula.
const (
	campaignLeaseTicks  = 40
	campaignRenewTicks  = 10
	campaignLeaseMargin = 24
	campaignMaxFreeze   = 20
)

// CampaignConfig parameterizes one campaign run.
type CampaignConfig struct {
	// Engine is one of CampaignEngines.
	Engine string
	// Seed determines the entire run: workload, fault schedule, delivery
	// order. A failure reported for (Engine, Seed, Ops) replays exactly.
	Seed int64
	// Ops is the number of client operations to drive (default 2000).
	Ops int
	// Sabotage disables the lease clock-skew guard band (lease engines only)
	// and biases the fault scheduler toward the freeze lengths the guard
	// band exists to survive. A sabotage run is EXPECTED to produce a
	// linearizability violation — it proves the campaign can see one.
	Sabotage bool
}

// CampaignResult is the replayable record of one campaign run.
type CampaignResult struct {
	Engine      string         `json:"engine"`
	Seed        int64          `json:"seed"`
	Ops         int            `json:"ops"`         // operations recorded in the history
	Steps       int            `json:"steps"`       // scheduler steps executed
	Faults      map[string]int `json:"faults"`      // injections by type
	Outstanding int            `json:"outstanding"` // ops that never completed (open in the history)
	Sabotage    bool           `json:"sabotage"`
	// Violation is the checker or agreement error, empty if the history
	// linearizes. Replay with the same engine/seed/ops to reproduce.
	Violation string `json:"violation,omitempty"`
}

// campaignHS is the hard state the crash disk persists, mirroring
// storage.HardState.
type campaignHS struct {
	term     uint64
	votedFor protocol.NodeID
	commit   int64
}

// crashDisk models one node's persistent store at round granularity: the
// written log and hard state survive a process kill; only the synced
// prefix survives a torn (power-loss) restart. A round that releases a
// barrier message forces a sync first, which is exactly the live
// pipeline's rule ("quorum ack ⇒ durable"); every other round — appends,
// commits, replies — may stay in the page cache, so a torn restart can
// drop a leader's committed tail, which its followers' durable copies
// carry.
type crashDisk struct {
	log       []protocol.Entry // contiguous from index 1 (campaigns never compact)
	hs        campaignHS
	syncedLen int
	syncedHS  campaignHS
	// redo is a failed append batch, carried forward as the live
	// persister's is: the engine never re-emits entries it holds, so the
	// batch is retried ahead of every later one, and every ack waits until
	// it lands. A kill loses it with the process.
	redo   []protocol.Entry
	faulty bool // disk-fault injection: every write fails while set
}

// append writes the redo batch and then ents, honouring the storage.Store
// overwrite contract (an entry at an existing index truncates everything
// after it). It reports whether nothing is left to redo.
func (d *crashDisk) append(ents []protocol.Entry) bool {
	batch := append(d.redo, ents...)
	ok, last := !d.faulty || len(batch) == 0, int64(len(d.log))
	for _, e := range batch {
		ok, last = ok && e.Index <= last+1, e.Index
	}
	if !ok {
		d.redo = append([]protocol.Entry(nil), batch...)
		return false
	}
	for _, e := range batch {
		d.log = append(d.log[:e.Index-1], e)
	}
	d.syncedLen, d.redo = min(d.syncedLen, len(d.log)), nil
	return true
}

// engineHS snapshots the hard state a live driver would save for this
// engine.
func engineHS(e protocol.Engine) campaignHS {
	return campaignHS{term: e.Term(), votedFor: e.VotedFor(), commit: e.CommitIndex()}
}

func anyBarrier(msgs []protocol.Envelope) bool {
	for _, env := range msgs {
		if _, ok := env.Msg.(protocol.BarrierMessage); ok {
			return true
		}
	}
	return false
}

// campaignClient is one closed-loop client: sequential ops with a
// cooldown, abandoning — but never forgetting — unanswered ops.
type campaignClient struct {
	id       int
	seq      int
	waiting  uint64
	waited   int
	cooldown int
}

// disruption is the fault currently in force (one at a time, so a
// 3-node cluster always keeps a live majority).
type disruption struct {
	kind  string
	node  protocol.NodeID
	until int
}

type campaign struct {
	cfg   CampaignConfig
	c     *Cluster
	h     *History
	rng   *rand.Rand
	peers []protocol.NodeID
	// spec builds the engine; each incarnation sets its own Seed.
	spec engines.Spec

	disks map[protocol.NodeID]*crashDisk
	// held are self-acks withheld by a failed round, released with the
	// node's next round that syncs.
	held  map[protocol.NodeID][]protocol.Envelope
	dead  map[protocol.NodeID]bool // killed, awaiting restart
	tornP map[protocol.NodeID]bool // pending restart is a torn one
	// Clock rates in half-ticks per step: 2 = nominal, 4 = 2× fast,
	// 1 = 2× slow, 0 = frozen.
	rate map[protocol.NodeID]int
	acc  map[protocol.NodeID]int

	active      disruption
	cooldown    int
	incarnation int
	faults      map[string]int
	injectSeq   uint64
	keys        int
	nextKey     int
	// recentPuts ring-buffers the keys of the last few completed writes:
	// the keys whose stale values a thawed lease holder is most likely to
	// still be serving.
	recentPuts []string
}

// RunCampaign executes one seeded adversarial campaign and returns its
// replayable result. It never calls t.Fatal: the caller decides whether a
// violation is a failure (normal runs) or the expected outcome (sabotage).
func RunCampaign(cfg CampaignConfig) CampaignResult {
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	peers := []protocol.NodeID{0, 1, 2}
	spec, err := engines.Parse(cfg.Engine)
	if err != nil {
		panic("campaign: " + err.Error())
	}
	spec.ElectionTicks, spec.HeartbeatTicks, spec.ReadIndex, spec.Seed = 10, 2, true, cfg.Seed
	spec.LeaseTicks, spec.RenewTicks, spec.SkewMarginTicks = campaignLeaseTicks, campaignRenewTicks, campaignLeaseMargin
	spec.UnsafeNoGuard = cfg.Sabotage
	replicas := make([]protocol.Engine, len(peers))
	for i, id := range peers {
		replicas[i] = engines.New(spec, id, peers)
	}
	cp := &campaign{
		cfg:    cfg,
		c:      New(cfg.Seed, replicas...),
		spec:   spec,
		h:      NewHistory(),
		rng:    rand.New(rand.NewSource(cfg.Seed*31 + 7)),
		peers:  peers,
		disks:  make(map[protocol.NodeID]*crashDisk),
		held:   make(map[protocol.NodeID][]protocol.Envelope),
		dead:   make(map[protocol.NodeID]bool),
		tornP:  make(map[protocol.NodeID]bool),
		rate:   make(map[protocol.NodeID]int),
		acc:    make(map[protocol.NodeID]int),
		faults: make(map[string]int),
		// Cycling keys round-robin bounds every key's sub-history well
		// under the checker's 64-op cap with no tail risk.
		keys:        cfg.Ops/32 + 8,
		incarnation: 1,
	}
	for _, id := range peers {
		cp.disks[id] = &crashDisk{}
		cp.rate[id] = 2
	}
	cp.c.observe = cp.observe
	return cp.run()
}

// observe is the durability model, invoked on every engine output before
// the harness absorbs it.
func (cp *campaign) observe(id protocol.NodeID, out *protocol.Output) {
	d := cp.disks[id]
	if d == nil {
		return
	}
	// Sync decision BEFORE any mutation: does this round release a
	// promise? Commits and replies do not force a sync: every engine counts
	// a copy toward its commit quorum only once an ack, its own included,
	// proved it durable.
	released := anyBarrier(out.Msgs) || len(cp.held[id]) > 0
	wrote := len(d.redo) > 0 || len(out.AppendedEntries) > 0
	durable := d.append(out.AppendedEntries) && !d.faulty
	if wrote && !durable {
		cp.faults["disk-write-failed"]++
	}
	if durable {
		if wrote || out.StateChanged {
			d.hs = engineHS(cp.c.Engines[id])
		}
		if released {
			d.syncedLen = len(d.log)
			d.syncedHS = d.hs
		}
	}
	// Persist-before-ack, as the live persister does it: while a write
	// fails or a batch waits to be redone, barrier messages are withheld —
	// a peer's dropped (the engine re-acks on retransmission), a self-ack
	// held for the next durable round (it is asked for once per index).
	// Everything else leaves: a commit's reply is true once a quorum holds
	// the entry durably.
	if durable {
		out.Msgs = append(out.Msgs, cp.held[id]...)
		cp.held[id] = nil
	} else {
		kept := out.Msgs[:0]
		for _, env := range out.Msgs {
			_, barrier := env.Msg.(protocol.BarrierMessage)
			switch {
			case !barrier:
				kept = append(kept, env)
			case env.To == id:
				cp.held[id] = append(cp.held[id], env)
			}
		}
		out.Msgs = kept
	}
	// A restarted node re-commits from its restored commit anchor; drop
	// everything its previous incarnation already applied so the mirror
	// is not double-applied and the agreement check sees one contiguous
	// run per node.
	if applied := cp.c.Stores[id].AppliedIndex(); applied > 0 && len(out.Commits) > 0 {
		kept := out.Commits[:0]
		for _, ci := range out.Commits {
			if ci.Entry.Index > applied {
				kept = append(kept, ci)
			}
		}
		out.Commits = kept
	}
}

// tickClocks advances each live node's logical clock at its current rate.
// Ticking in peer order (not map order) keeps runs seed-deterministic.
func (cp *campaign) tickClocks() {
	for _, id := range cp.peers {
		if cp.dead[id] {
			continue
		}
		cp.acc[id] += cp.rate[id]
		for cp.acc[id] >= 2 {
			cp.acc[id] -= 2
			cp.c.TickNode(id)
		}
	}
}

// kill removes the node's engine; its written disk state survives.
func (cp *campaign) kill(id protocol.NodeID, torn bool) {
	delete(cp.c.Engines, id)
	cp.c.parkedReads[id] = nil
	cp.held[id] = nil
	cp.disks[id].redo = nil
	cp.dead[id] = true
	cp.tornP[id] = torn
	cp.rate[id] = 2
	cp.acc[id] = 0
}

// restart rebuilds the node's engine from its crash disk, exactly like
// cluster.Node's restoreHardState path: hard state first, then the log
// tail with the commit anchored at min(saved commit, last index). A torn
// restart first drops everything above the synced watermark.
func (cp *campaign) restart(id protocol.NodeID) {
	d := cp.disks[id]
	if cp.tornP[id] {
		if len(d.log) > d.syncedLen {
			d.log = d.log[:d.syncedLen]
		}
		d.hs = d.syncedHS
	}
	d.faulty = false
	cp.incarnation++
	// Each incarnation gets its own seed, so a restarted replica
	// re-randomizes its election jitter.
	spec := cp.spec
	spec.Seed = cp.cfg.Seed + int64(cp.incarnation)*1009
	e := engines.New(spec, id, cp.peers)
	e.RestoreHardState(d.hs.term, d.hs.votedFor)
	if len(d.log) > 0 {
		e.RestoreLog(append([]protocol.Entry(nil), d.log...), min(d.hs.commit, int64(len(d.log))))
	}
	cp.c.Engines[id] = e
	cp.c.logs[id] = storage.NewMem()
	_ = cp.c.logs[id].Append(d.log) // contiguous from index 1: nothing to refuse
	cp.dead[id] = false
	cp.tornP[id] = false
}

// pickVictim returns a random live node, preferring non-leaders when
// preferFollower is set (in the lease engines every replica holds a
// quorum lease, so any follower is a lease-read server worth attacking).
func (cp *campaign) pickVictim(preferFollower bool) (protocol.NodeID, bool) {
	var candidates []protocol.NodeID
	for _, id := range cp.peers {
		if cp.dead[id] {
			continue
		}
		if preferFollower {
			if e, ok := cp.c.Engines[id]; ok && e.IsLeader() {
				continue
			}
		}
		candidates = append(candidates, id)
	}
	if len(candidates) == 0 {
		return 0, false
	}
	return candidates[cp.rng.Intn(len(candidates))], true
}

// scheduleFault runs the fault scheduler for one step: ends the active
// disruption when its time is up, otherwise occasionally starts a new
// one. One disruption at a time keeps a live majority and bounds every
// fault's blast radius, which is what makes minutes-long campaigns finish.
func (cp *campaign) scheduleFault(step int) {
	if cp.active.kind != "" {
		if step < cp.active.until {
			return
		}
		cp.endFault()
		cp.cooldown = 10 + cp.rng.Intn(20)
		return
	}
	if cp.cooldown > 0 {
		cp.cooldown--
		return
	}
	if cp.rng.Intn(25) != 0 {
		return
	}
	cp.startFault(step)
}

func (cp *campaign) startFault(step int) {
	kinds := []string{"partition", "kill", "torn", "disk", "skew-fast", "skew-slow", "freeze", "drops"}
	if cp.cfg.Sabotage && cp.spec.Proto.Leases() && cp.rng.Intn(2) == 0 {
		// Sabotage runs hammer the scenario the guard band exists for.
		kinds = []string{"freeze"}
	}
	kind := kinds[cp.rng.Intn(len(kinds))]
	dur := 20 + cp.rng.Intn(40)
	victim, ok := cp.pickVictim(kind == "freeze")
	if !ok {
		return
	}
	switch kind {
	case "partition":
		cp.c.Isolate(victim, true)
	case "kill", "torn":
		cp.kill(victim, kind == "torn")
	case "disk":
		cp.disks[victim].faulty = true
	case "skew-fast":
		cp.rate[victim] = 4
	case "skew-slow":
		cp.rate[victim] = 1
	case "freeze":
		// A frozen process neither ticks nor talks: the classic GC/VM
		// pause. The fixed engines are safe because freezes are bounded
		// by the lease margin; a sabotage run exceeds it on purpose.
		dur = 1 + cp.rng.Intn(campaignMaxFreeze)
		if cp.cfg.Sabotage {
			dur = 60 + cp.rng.Intn(30)
		}
		cp.rate[victim] = 0
		cp.c.Isolate(victim, true)
	case "drops":
		cp.c.DropRate = 0.05
	}
	cp.faults[kind]++
	cp.active = disruption{kind: kind, node: victim, until: step + dur}
}

func (cp *campaign) endFault() {
	id := cp.active.node
	switch cp.active.kind {
	case "partition":
		cp.c.Isolate(id, false)
	case "kill", "torn":
		cp.restart(id)
		cp.faults["restart"]++
	case "disk":
		cp.disks[id].faulty = false
	case "skew-fast", "skew-slow":
		cp.rate[id] = 2
		cp.acc[id] = 0
	case "freeze":
		cp.rate[id] = 2
		cp.acc[id] = 0
		cp.c.Isolate(id, false)
		// The thawed node still believes in the leases it froze with;
		// read it immediately — the reads a guard band must make safe.
		cp.injectReads(id, 4)
	case "drops":
		cp.c.DropRate = 0
	}
	cp.active = disruption{}
}

// injectReads issues n reads at the given node, recorded in the history
// like any client op. It prefers recently written keys — the ones a
// thawed lease holder's stale mirror is most likely to misreport.
func (cp *campaign) injectReads(id protocol.NodeID, n int) {
	for i := 0; i < n; i++ {
		cp.injectSeq++
		cmdID := uint64(0xF)<<60 | cp.injectSeq
		var key string
		if len(cp.recentPuts) > 0 {
			key = cp.recentPuts[int(cp.injectSeq)%len(cp.recentPuts)]
		} else {
			key = cp.pickKey()
		}
		cp.h.Invoke(cmdID, 800, false, key, "")
		cp.c.SubmitRead(id, protocol.Command{
			ID: cmdID, Client: 800, Op: protocol.OpGet, Key: key,
		})
	}
}

func (cp *campaign) pickKey() string {
	k := cp.nextKey
	cp.nextKey = (cp.nextKey + 1) % cp.keys
	return fmt.Sprintf("k%d", k)
}

func (cp *campaign) run() CampaignResult {
	res := CampaignResult{
		Engine: cp.cfg.Engine, Seed: cp.cfg.Seed,
		Sabotage: cp.cfg.Sabotage, Faults: cp.faults,
	}
	// Initial election, ticking in deterministic order.
	for r := 0; r < 400; r++ {
		cp.tickClocks()
		cp.c.DeliverShuffled(100000)
		if cp.c.Leader() != nil {
			break
		}
	}

	const (
		nClients  = 4
		opTimeout = 60
		opCool    = 6
	)
	clients := make([]*campaignClient, nClients)
	for i := range clients {
		clients[i] = &campaignClient{id: i}
	}
	perClient := (cp.cfg.Ops + nClients - 1) / nClients
	inFlight := make(map[uint64]*campaignClient)
	scanned := 0

	scan := func() {
		for ; scanned < len(cp.c.Replies); scanned++ {
			rep := cp.c.Replies[scanned]
			if rep.CmdID>>60 == 0xF {
				// Injected probe read.
				if rep.Err == nil {
					cp.h.Return(rep.CmdID, string(rep.Value))
				} else {
					cp.h.Discard(rep.CmdID)
				}
				continue
			}
			cl, ok := inFlight[rep.CmdID]
			if !ok {
				continue // duplicate or late reply
			}
			delete(inFlight, rep.CmdID)
			if rep.Err != nil {
				// Engine-level rejection (e.g. ErrNotLeader): definitively
				// not proposed, constrains nothing.
				cp.h.Discard(rep.CmdID)
			} else {
				cp.h.Return(rep.CmdID, string(rep.Value))
				if rep.Kind == protocol.ReplyWrite {
					cp.recentPuts = append(cp.recentPuts, rep.Key)
					if len(cp.recentPuts) > 8 {
						cp.recentPuts = cp.recentPuts[1:]
					}
				}
			}
			if cl.waiting == rep.CmdID {
				cl.waiting = 0
				cl.waited = 0
			}
		}
	}
	done := func() bool {
		for _, cl := range clients {
			if cl.seq < perClient || cl.waiting != 0 {
				return false
			}
		}
		return true
	}

	maxSteps := cp.cfg.Ops*40 + 4000
	step := 0
	for ; step < maxSteps && !done(); step++ {
		cp.scheduleFault(step)
		for _, cl := range clients {
			if cl.waiting != 0 {
				if cl.waited++; cl.waited > opTimeout {
					// Abandon (the op stays open in the history: a pending
					// write may still apply) and move on.
					cl.waiting = 0
					cl.waited = 0
				}
				continue
			}
			if cl.cooldown > 0 {
				cl.cooldown--
				continue
			}
			if cl.seq >= perClient {
				continue
			}
			// Target a random node that is up and thawed.
			var targets []protocol.NodeID
			for _, id := range cp.peers {
				if !cp.dead[id] && cp.rate[id] > 0 {
					targets = append(targets, id)
				}
			}
			if len(targets) == 0 {
				continue
			}
			node := targets[cp.rng.Intn(len(targets))]
			cl.seq++
			cl.cooldown = opCool
			cmdID := uint64(cl.id+1)<<32 | uint64(cl.seq)
			key := cp.pickKey()
			cmd := protocol.Command{ID: cmdID, Client: 900 + protocol.NodeID(cl.id), Key: key}
			inFlight[cmdID] = cl
			cl.waiting = cmdID
			if cp.rng.Intn(100) < 60 {
				val := fmt.Sprintf("c%d-%d", cl.id, cl.seq)
				cmd.Op = protocol.OpPut
				cmd.Value = []byte(val)
				cp.h.Invoke(cmdID, cl.id, true, key, val)
				cp.c.Submit(node, cmd)
			} else {
				cmd.Op = protocol.OpGet
				cp.h.Invoke(cmdID, cl.id, false, key, "")
				cp.c.SubmitRead(node, cmd)
			}
		}
		cp.tickClocks()
		cp.c.DeliverShuffled(100000)
		scan()
	}

	// Quiesce: end any active disruption, restart the dead, heal links,
	// and let stragglers finish.
	if cp.active.kind != "" {
		cp.endFault()
	}
	for _, id := range cp.peers {
		if cp.dead[id] {
			cp.restart(id)
			cp.faults["restart"]++
		}
		cp.c.Isolate(id, false)
		cp.disks[id].faulty = false
		cp.rate[id] = 2
	}
	cp.c.DropRate = 0
	for r := 0; r < 80; r++ {
		cp.tickClocks()
		cp.c.DeliverShuffled(100000)
	}
	scan()

	res.Steps = step
	res.Ops = cp.h.Len()
	res.Outstanding = cp.h.Outstanding()
	if err := cp.c.CheckAgreement(); err != nil {
		res.Violation = fmt.Sprintf("agreement: %v", err)
		return res
	}
	if err := cp.h.Check(); err != nil {
		res.Violation = err.Error()
	}
	return res
}
