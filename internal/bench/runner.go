// Package bench is the experiment harness reproducing the paper's
// evaluation (Section 5): it assembles the 5-site simulated WAN, a
// protocol cluster and closed-loop YCSB-like clients, runs
// warmup/measure/cooldown windows on virtual time, and reports the same
// rows and series Figures 9 and 10 plot.
package bench

import (
	"time"

	"raftpaxos/internal/engines"
	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/metrics"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/simnet"
	"raftpaxos/internal/workload"
)

// Protocol selects the system under test: a protocol of the engine
// registry, named by it.
type Protocol = engines.Proto

// Systems evaluated in the paper.
const (
	Raft            = engines.Raft
	RaftStar        = engines.RaftStar
	RaftStarPQL     = engines.RaftStarPQL
	RaftStarLL      = engines.RaftStarLL
	RaftStarMencius = engines.RaftStarMencius
	MultiPaxos      = engines.MultiPaxos
	PaxosPQL        = engines.PaxosPQL
)

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
	id  protocol.NodeID
	eng protocol.Engine
	app *kvstore.Applier
	net *simnet.Network
	// sendFloor is the earliest time the next outbound message may leave:
	// a step whose messages wait on the fsync barrier must not be
	// overtaken by a later step that has nothing to persist, or per-pair
	// FIFO (which Mencius requires and TCP provides) would break.
	sendFloor simnet.Time
	// free pools the records of work deferred to a later instant.
	free []*deferred
}

// deferred is work one step leaves for a later instant: its network sends
// once the fsync barrier and the send floor pass, its self-addressed
// messages at its durability point, or one client reply once the reply's
// CPU cost is paid. Records are pooled per node, so a step schedules them
// without allocating.
type deferred struct {
	n    *node
	kind deferredKind
	msgs []protocol.Envelope // deferSend, deferSelf
	to   protocol.NodeID     // deferReply
	resp *MsgClientResp      // deferReply
}

type deferredKind uint8

const (
	deferSend deferredKind = iota
	deferSelf
	deferReply
)

// later schedules work at t on a pooled record.
func (n *node) later(t simnet.Time, work deferred) {
	var d *deferred
	if k := len(n.free); k > 0 {
		d = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		d = new(deferred)
	}
	*d = work
	d.n = n
	n.net.Clock().Schedule(t, d)
}

// Run implements simnet.Runner. The record returns to the pool before the
// work runs, so the steps the work triggers can reuse it.
func (d *deferred) Run() {
	n, kind, msgs, to, resp := d.n, d.kind, d.msgs, d.to, d.resp
	*d = deferred{n: n}
	n.free = append(n.free, d)
	switch kind {
	case deferSend:
		n.send(msgs)
	case deferSelf:
		n.stepSelf(msgs)
	case deferReply:
		n.net.Send(n.id, to, resp)
	}
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

// handle realizes an engine output: the node's kvstore.Applier applies
// its commits and answers its clients (answer), then its messages leave.
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
	n.app.Apply(out.Commits, out.Replies, out.ReadStates, n.answer)
	now := n.net.Clock().Now()
	durable := max(now, barrier)
	release := max(durable, n.sendFloor)
	n.sendFloor = release
	msgs := out.Msgs
	if release > now {
		n.later(release, deferred{kind: deferSend, msgs: msgs})
	} else {
		n.send(msgs)
	}
	// Self-addressed envelopes — the replica's own acks — never reach
	// simnet (no message, byte or CPU charge) and are stepped at this step's
	// durability point: the send floor orders network sends only, and an
	// entry a peer's ack makes decisive left after its own fsync.
	if durable > now {
		n.later(durable, deferred{kind: deferSelf, msgs: msgs})
	} else {
		n.stepSelf(msgs)
	}
}

// send puts one step's messages, bar the self-addressed ones, on the
// network.
func (n *node) send(msgs []protocol.Envelope) {
	for _, env := range msgs {
		if env.To != n.id {
			n.net.Send(env.From, env.To, env.Msg)
		}
	}
}

// stepSelf delivers one step's self-addressed messages to the engine.
func (n *node) stepSelf(msgs []protocol.Envelope) {
	for _, env := range msgs {
		if env.To == n.id {
			n.handle(n.eng.Step(n.id, env.Msg))
		}
	}
}

// answer sends one client answer. Completing a request costs the serving
// replica ReplyCost of CPU (proposal bookkeeping, response encoding) before
// the reply leaves — the dominant per-op cost in the calibrated model — and
// a lease read LeaseReadCost.
func (n *node) answer(rep protocol.ClientReply, src kvstore.Source) {
	cost := n.net.Cost().ReplyCost
	if src == kvstore.FromEngine && rep.Kind == protocol.ReplyRead && rep.Err == nil {
		cost = n.net.Cost().LeaseReadCost
	}
	resp := &MsgClientResp{CmdID: rep.CmdID, Value: rep.Value, Err: rep.Err}
	if cost <= 0 {
		n.net.Send(n.id, rep.Client, resp)
		return
	}
	n.later(n.net.ChargeCPU(n.id, cost), deferred{kind: deferReply, to: rep.Client, resp: resp})
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
	// deadline is when the pending request is sent again if no reply has
	// come. A closed-loop client always has one request pending, so its
	// one retry timer is always armed, at or before this deadline.
	deadline simnet.Time
}

// retryAfter is how long a client waits for a reply before it sends its
// request again: closed-loop clients must not wedge on a dropped request
// (benchmarks run lossless, so this rarely fires).
const retryAfter = 10 * time.Second

func (c *client) start() {
	c.send()
	c.sim.Schedule(c.deadline, c)
}

// Run implements simnet.Runner: it is the client's retry timer, which
// resends the pending request if its deadline has come, and otherwise
// re-arms at the deadline of the request sent since it was armed.
func (c *client) Run() {
	if c.sim.Now() >= c.deadline {
		c.send()
	}
	c.sim.Schedule(c.deadline, c)
}

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
	c.deadline = c.sentAt + simnet.Time(retryAfter)
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

	// Replicas: node i at site i. Election timeouts sit comfortably above
	// the worst RTT, heartbeats at 100ms. The leader is pinned: the other
	// replicas are passive, so elections only matter at bootstrap. Mencius
	// has no leader to pin: every replica is passive (no revocation) and
	// skips every tick.
	ticks := func(d time.Duration) int { return max(1, int(d/sc.TickInterval)) }
	spec := engines.Spec{
		Proto: sc.Protocol, FastPath: sc.FastPath,
		ElectionTicks: ticks(2 * time.Second), HeartbeatTicks: ticks(100 * time.Millisecond),
		LeaseTicks: ticks(sc.LeaseDuration), RenewTicks: ticks(sc.LeaseRenew),
		MenciusConflicting: sc.ConflictMode, Seed: sc.Seed,
	}
	if sc.Protocol.Leaderless() {
		spec.HeartbeatTicks = 1
	}
	nodes := make([]*node, nSites)
	for i := range nodes {
		spec.Passive = sc.Protocol.Leaderless() || i != sc.LeaderSite
		nodes[i] = &node{
			id:  peers[i],
			eng: engines.New(spec, peers[i], peers),
			app: kvstore.NewApplier(kvstore.New()),
			net: net,
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
	if !sc.Protocol.Leaderless() {
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
				leader:  site == sc.LeaderSite && !sc.Protocol.Leaderless(),
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
