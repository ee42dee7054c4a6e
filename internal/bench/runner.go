// Package bench is the experiment harness reproducing the paper's
// evaluation (Section 5): it assembles the 5-site simulated WAN, a
// protocol cluster and closed-loop YCSB-like clients, runs
// warmup/measure/cooldown windows on virtual time, and reports the same
// rows and series Figures 9 and 10 plot.
package bench

import (
	"fmt"
	"time"

	"raftpaxos/internal/coorraft"
	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/lease"
	"raftpaxos/internal/metrics"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/simnet"
	"raftpaxos/internal/workload"
)

// Protocol selects the system under test.
type Protocol int

// Systems evaluated in the paper.
const (
	Raft Protocol = iota + 1
	RaftStar
	RaftStarPQL
	RaftStarLL
	RaftStarMencius
	MultiPaxos
	PaxosPQL
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case Raft:
		return "Raft"
	case RaftStar:
		return "Raft*"
	case RaftStarPQL:
		return "Raft*-PQL"
	case RaftStarLL:
		return "Raft*-LL"
	case RaftStarMencius:
		return "Raft*-M"
	case MultiPaxos:
		return "MultiPaxos"
	case PaxosPQL:
		return "Paxos-PQL"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Scenario configures one trial.
type Scenario struct {
	Protocol Protocol
	// LeaderSite hosts the pinned leader (ignored by Mencius).
	LeaderSite int
	// ClientsPerRegion is the closed-loop client count per site.
	ClientsPerRegion int
	Workload         workload.Config
	// ConflictMode selects Mencius's reply policy (true = 100% conflict
	// semantics: reply at execution).
	ConflictMode bool
	// FastPath enables the one-RTT Fast Paxos write path on the engines
	// that support it (Raft, RaftStar, MultiPaxos).
	FastPath bool
	// ClientSites optionally restricts which sites host clients (site
	// indexes; empty = every site). WAN fast-path profiles use it: a single
	// submitting site is the conflict-free shape, many sites racing into
	// the same slots is the high-conflict one.
	ClientSites []int

	// Timing (virtual). Defaults: 500ms warmup, 2s measure, 10ms tick.
	Warmup       time.Duration
	Measure      time.Duration
	TickInterval time.Duration

	// Lease parameters (paper: 2s duration, 0.5s renewal).
	LeaseDuration time.Duration
	LeaseRenew    time.Duration

	// ClockSkew optionally gives each site's tick-clock rate relative to
	// virtual time (1 = nominal, 1.1 = 10% fast, 0.9 = slow); sites beyond
	// the slice length, or a nil slice, run at nominal rate. Lease-serving
	// protocols must stay safe — not merely live — under the skew their
	// guard-band margin covers; see internal/lease.
	ClockSkew []float64

	Topology *simnet.Topology
	Cost     simnet.CostModel
	Seed     int64
}

func (s *Scenario) withDefaults() Scenario {
	out := *s
	if out.Warmup == 0 {
		out.Warmup = 500 * time.Millisecond
	}
	if out.Measure == 0 {
		out.Measure = 2 * time.Second
	}
	if out.TickInterval == 0 {
		out.TickInterval = 10 * time.Millisecond
	}
	if out.LeaseDuration == 0 {
		out.LeaseDuration = 2 * time.Second
	}
	if out.LeaseRenew == 0 {
		out.LeaseRenew = 500 * time.Millisecond
	}
	if out.Topology == nil {
		out.Topology = simnet.PaperTopology()
	}
	if out.Cost.IsZero() {
		out.Cost = simnet.DefaultCostModel()
	}
	if out.ClientsPerRegion == 0 {
		out.ClientsPerRegion = 50
	}
	return out
}

// Result is one trial's measurements.
type Result struct {
	Scenario   Scenario
	Throughput float64 // ops/s in the measurement window
	// Latencies by class: "leader-read", "leader-write", "follower-read",
	// "follower-write".
	Latency map[string]*metrics.Histogram
	// Events is the number of simulator events processed (cost insight).
	Events uint64
	// MsgsSent/BytesSent are network totals.
	MsgsSent  uint64
	BytesSent uint64
	// FastStats aggregates the fast write path's counters across replicas
	// (zero unless Scenario.FastPath is set on a supporting protocol).
	FastStats protocol.FastStats
}

// LatencyOf returns the histogram for a class, creating it if needed.
func (r *Result) LatencyOf(class string) *metrics.Histogram {
	h, ok := r.Latency[class]
	if !ok {
		h = &metrics.Histogram{}
		r.Latency[class] = h
	}
	return h
}

// MsgClientReq carries a client operation to its local replica.
type MsgClientReq struct {
	Cmd  protocol.Command
	Read bool
}

// WireSize implements protocol.Message.
func (m *MsgClientReq) WireSize() int { return 8 + m.Cmd.WireSize() }

// CmdCount implements simnet.CmdCounter.
func (m *MsgClientReq) CmdCount() int { return 1 }

// MsgClientResp answers a client.
type MsgClientResp struct {
	CmdID uint64
	Value []byte
	Err   error
}

// WireSize implements protocol.Message.
func (m *MsgClientResp) WireSize() int { return 16 + len(m.Value) }

// node drives one replica engine inside the simulation.
type node struct {
	id    protocol.NodeID
	eng   protocol.Engine
	store *kvstore.Store
	net   *simnet.Network
	// sendFloor is the earliest time the next outbound message may leave:
	// a step whose messages wait on the fsync barrier must not be
	// overtaken by a later step that has nothing to persist, or per-pair
	// FIFO (which Mencius requires and TCP provides) would break.
	sendFloor simnet.Time
	// pendingReads parks confirmed ReadIndex states whose read index the
	// store has not applied through yet — possible during a fresh
	// leader's election-barrier window, when the confirmation quorum (a
	// pure leadership echo) completes before the barrier entry commits.
	pendingReads []protocol.ReadState
}

// Deliver implements simnet.Endpoint.
func (n *node) Deliver(from protocol.NodeID, msg protocol.Message) {
	if m, ok := msg.(*MsgClientReq); ok {
		if m.Read {
			n.handle(n.eng.SubmitRead(m.Cmd))
		} else {
			n.handle(n.eng.Submit(m.Cmd))
		}
		return
	}
	n.handle(n.eng.Step(from, msg))
}

func (n *node) tick() { n.handle(n.eng.Tick()) }

// handle realizes an engine output: apply commits (answering flagged
// entries), route messages, answer engine-level replies (lease reads).
// Completing a client request costs the serving replica ReplyCost of CPU
// (proposal bookkeeping, response encoding) before the reply leaves — the
// dominant per-op cost in the calibrated model.
//
// The persist-before-ack barrier is modeled as latency on the ack edge:
// when the step accepted entries or changed hard state, FsyncTime is
// charged to the replica's serial CPU/disk queue FIRST, so every message
// and reply the step produced leaves after the fsync a live driver would
// have paid — the simulated figures stay honest about accept-time
// durability instead of reporting in-memory-toy latencies.
func (n *node) handle(out protocol.Output) {
	var barrier simnet.Time
	if len(out.AppendedEntries) > 0 || out.StateChanged {
		if d := n.net.Cost().FsyncTime; d > 0 {
			// Charging the CPU queue serializes the fsync before the
			// reply costs below and the message release — matching the
			// live event loop, which blocks on the fsync before sending.
			barrier = n.net.ChargeCPU(n.id, d)
		}
	}
	for _, ci := range out.Commits {
		n.store.Apply(ci.Entry)
		if !ci.Reply {
			continue
		}
		cmd := ci.Entry.Cmd
		resp := &MsgClientResp{CmdID: cmd.ID}
		if cmd.Op == protocol.OpGet {
			resp.Value, _ = n.store.Get(cmd.Key)
		}
		n.reply(cmd.Client, resp, n.net.Cost().ReplyCost)
	}
	for _, rep := range out.Replies {
		resp := &MsgClientResp{CmdID: rep.CmdID, Err: rep.Err}
		cost := n.net.Cost().ReplyCost
		if rep.Kind == protocol.ReplyRead && rep.Err == nil {
			resp.Value, _ = n.store.Get(rep.Key)
			cost = n.net.Cost().LeaseReadCost
		}
		n.reply(rep.Client, resp, cost)
	}
	// Confirmed ReadIndex states: serve once the store has applied
	// through the read index — commits apply synchronously above, so
	// parking only happens while a fresh leader's barrier entry is still
	// uncommitted, and drains on the step that commits it.
	if n.pendingReads = append(n.pendingReads, out.ReadStates...); len(n.pendingReads) > 0 {
		applied := n.store.AppliedIndex()
		keep := n.pendingReads[:0]
		for _, rs := range n.pendingReads {
			if rs.Index > applied {
				keep = append(keep, rs)
				continue
			}
			for _, cmd := range rs.Cmds {
				resp := &MsgClientResp{CmdID: cmd.ID}
				resp.Value, _ = n.store.Get(cmd.Key)
				n.reply(cmd.Client, resp, n.net.Cost().ReplyCost)
			}
		}
		n.pendingReads = keep
	}
	release := n.net.Clock().Now()
	if barrier > release {
		release = barrier
	}
	if n.sendFloor > release {
		release = n.sendFloor
	}
	n.sendFloor = release
	if release > n.net.Clock().Now() {
		msgs := out.Msgs
		n.net.Clock().At(release, func() {
			for _, env := range msgs {
				n.net.Send(env.From, env.To, env.Msg)
			}
		})
		return
	}
	for _, env := range out.Msgs {
		n.net.Send(env.From, env.To, env.Msg)
	}
}

func (n *node) reply(client protocol.NodeID, resp *MsgClientResp, cost time.Duration) {
	if cost <= 0 {
		n.net.Send(n.id, client, resp)
		return
	}
	done := n.net.ChargeCPU(n.id, cost)
	n.net.Clock().At(done, func() { n.net.Send(n.id, client, resp) })
}

// client is a closed-loop load generator at one site.
type client struct {
	id      protocol.NodeID
	replica protocol.NodeID
	leader  bool // located at the leader's site (latency class)
	gen     *workload.Generator
	sim     *simnet.Sim
	net     *simnet.Network
	res     *Result
	warmEnd simnet.Time
	measEnd simnet.Time

	nextID  uint64
	pending uint64
	isRead  bool
	sentAt  simnet.Time
}

func (c *client) start() { c.send() }

func (c *client) send() {
	req := c.gen.Next()
	// IDs are unique across clients, as protocol.Command requires: the fast
	// path and the state machine's exactly-once window key on them.
	c.nextID++
	c.pending = uint64(c.id)<<32 | c.nextID
	c.isRead = req.Read
	c.sentAt = c.sim.Now()
	cmd := protocol.Command{
		ID:     c.pending,
		Client: c.id,
		Key:    req.Key,
		Value:  req.Value,
	}
	if req.Read {
		cmd.Op = protocol.OpGet
	} else {
		cmd.Op = protocol.OpPut
	}
	c.net.Send(c.id, c.replica, &MsgClientReq{Cmd: cmd, Read: req.Read})
	// Retry guard: closed-loop clients must not wedge on a dropped
	// request (benchmarks run lossless, so this rarely fires).
	id := c.pending
	c.sim.After(10*time.Second, func() {
		if c.pending == id {
			c.send()
		}
	})
}

// Deliver implements simnet.Endpoint.
func (c *client) Deliver(_ protocol.NodeID, msg protocol.Message) {
	m, ok := msg.(*MsgClientResp)
	if !ok || m.CmdID != c.pending {
		return // stale or duplicate reply
	}
	now := c.sim.Now()
	c.pending = 0
	if now > c.warmEnd && now <= c.measEnd {
		class := "follower"
		if c.leader {
			class = "leader"
		}
		if c.isRead {
			class += "-read"
		} else {
			class += "-write"
		}
		c.res.LatencyOf(class).Add(time.Duration(now - c.sentAt))
		c.res.Throughput++ // raw count; normalized in Run
	}
	c.send()
}

// buildEngine constructs the engine for one replica under the scenario.
func buildEngine(sc Scenario, id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
	ticks := func(d time.Duration) int {
		n := int(d / sc.TickInterval)
		if n < 1 {
			n = 1
		}
		return n
	}
	// Election timeouts comfortably above the worst RTT; heartbeats at
	// 100ms. The benchmark leader is pinned (Passive followers), so
	// elections only matter at bootstrap.
	electionTicks := ticks(2 * time.Second)
	hbTicks := ticks(100 * time.Millisecond)
	passive := int(id) != sc.LeaderSite
	leases := lease.Config{
		Self: id, Peers: peers,
		DurationTicks: ticks(sc.LeaseDuration), RenewTicks: ticks(sc.LeaseRenew),
	}

	switch sc.Protocol {
	case Raft:
		return raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: electionTicks,
			HeartbeatTicks: hbTicks, Seed: sc.Seed, Passive: passive,
			FastPath: sc.FastPath,
		})
	case RaftStar:
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: electionTicks,
			HeartbeatTicks: hbTicks, Seed: sc.Seed, Passive: passive,
			FastPath: sc.FastPath,
		})
	case RaftStarPQL, RaftStarLL:
		mode := lease.QuorumLease
		if sc.Protocol == RaftStarLL {
			mode = lease.LeaderLease
		}
		return lease.NewEngine(leases, mode, func(h protocol.Hooks) lease.Inner {
			return raftstar.New(raftstar.Config{
				ID: id, Peers: peers, ElectionTicks: electionTicks,
				HeartbeatTicks: hbTicks, Seed: sc.Seed, Passive: passive, Hooks: h,
			})
		})
	case RaftStarMencius:
		policy := coorraft.ReplyAtCommit
		if sc.ConflictMode {
			policy = coorraft.ReplyAtExecute
		}
		return coorraft.New(coorraft.Config{
			ID: id, Peers: peers, HeartbeatTicks: 1, // skips every tick
			Policy: policy, Seed: sc.Seed, DisableRevocation: true,
		})
	case MultiPaxos:
		return multipaxos.New(multipaxos.Config{
			ID: id, Peers: peers, ElectionTicks: electionTicks,
			HeartbeatTicks: hbTicks, Seed: sc.Seed, Passive: passive,
			FastPath: sc.FastPath,
		})
	case PaxosPQL:
		return lease.NewEngine(leases, lease.QuorumLease, func(h protocol.Hooks) lease.Inner {
			return multipaxos.New(multipaxos.Config{
				ID: id, Peers: peers, ElectionTicks: electionTicks,
				HeartbeatTicks: hbTicks, Seed: sc.Seed, Passive: passive, Hooks: h,
			})
		})
	default:
		panic(fmt.Sprintf("bench: unknown protocol %d", sc.Protocol))
	}
}

// Run executes one trial and returns its measurements.
func Run(raw Scenario) (*Result, error) {
	sc := raw.withDefaults()
	sim := simnet.New(sc.Seed)
	net, err := simnet.NewNetwork(sim, sc.Topology, sc.Cost)
	if err != nil {
		return nil, err
	}
	res := &Result{Scenario: sc, Latency: map[string]*metrics.Histogram{}}

	nSites := len(sc.Topology.Sites)
	peers := make([]protocol.NodeID, nSites)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}

	// Replicas: node i at site i.
	nodes := make([]*node, nSites)
	for i := range nodes {
		nodes[i] = &node{
			id:    peers[i],
			eng:   buildEngine(sc, peers[i], peers),
			store: kvstore.New(),
			net:   net,
		}
		net.Register(peers[i], simnet.Site(i), nodes[i], true)
	}

	// Tick driving, each node on its own (possibly skewed) clock.
	for i, n := range nodes {
		n := n
		rate := 1.0
		if i < len(sc.ClockSkew) && sc.ClockSkew[i] > 0 {
			rate = sc.ClockSkew[i]
		}
		sim.NewClock(sc.TickInterval, rate, n.tick)
	}

	// Bootstrap the pinned leader immediately.
	if sc.Protocol != RaftStarMencius {
		leaderNode := nodes[sc.LeaderSite]
		sim.At(0, func() {
			if c, ok := leaderNode.eng.(interface{ Campaign() protocol.Output }); ok {
				leaderNode.handle(c.Campaign())
			}
		})
	}

	// Clients: ClientsPerRegion per site, attached to the local replica.
	warmEnd := simnet.Time(sc.Warmup)
	measEnd := simnet.Time(sc.Warmup + sc.Measure)
	clientID := protocol.NodeID(1000)
	wcfg := sc.Workload
	wcfg.Regions = nSites
	clientSites := sc.ClientSites
	if len(clientSites) == 0 {
		for site := 0; site < nSites; site++ {
			clientSites = append(clientSites, site)
		}
	}
	for _, site := range clientSites {
		for k := 0; k < sc.ClientsPerRegion; k++ {
			c := &client{
				id:      clientID,
				replica: peers[site],
				leader:  site == sc.LeaderSite && sc.Protocol != RaftStarMencius,
				gen:     workload.NewGenerator(wcfg, site, sc.Seed+int64(clientID)),
				sim:     sim,
				net:     net,
				res:     res,
				warmEnd: warmEnd,
				measEnd: measEnd,
			}
			net.Register(c.id, simnet.Site(site), c, false)
			// Stagger client starts across the first 100ms.
			delay := time.Duration(int64(k)*int64(100*time.Millisecond)/int64(sc.ClientsPerRegion+1)) +
				50*time.Millisecond
			sim.After(delay, c.start)
			clientID++
		}
	}

	sim.Run(sc.Warmup + sc.Measure + 200*time.Millisecond)

	res.Throughput = res.Throughput / sc.Measure.Seconds()
	res.Events = sim.Processed()
	res.MsgsSent = net.Sent
	res.BytesSent = net.Bytes
	for _, n := range nodes {
		if s, ok := n.eng.(protocol.FastStatser); ok {
			fs := s.FastStats()
			res.FastStats.Submitted += fs.Submitted
			res.FastStats.FastCommits += fs.FastCommits
			res.FastStats.ClassicFallbacks += fs.ClassicFallbacks
			res.FastStats.Conflicts += fs.Conflicts
		}
	}
	return res, nil
}
