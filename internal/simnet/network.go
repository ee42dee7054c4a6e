package simnet

import (
	"fmt"
	"time"

	"raftpaxos/internal/protocol"
)

// Site is an index into a Topology's site list.
type Site int

// Topology is the wide-area layout: named sites and a one-way latency
// matrix between them.
type Topology struct {
	Sites []string
	// OneWay[i][j] is the one-way latency from site i to site j.
	OneWay [][]time.Duration
	// BandwidthScale optionally scales each site's link speed relative to
	// CostModel.BandwidthBps (nil = 1.0 everywhere). The paper observed
	// regionally uneven effective bandwidth — Oregon's leader outran
	// Seoul's by ~30% in the network-bound regime for that reason.
	BandwidthScale []float64
}

// siteBandwidthScale returns the scale for site s.
func (t *Topology) siteBandwidthScale(s Site) float64 {
	if int(s) >= len(t.BandwidthScale) {
		return 1.0
	}
	v := t.BandwidthScale[s]
	if v <= 0 {
		return 1.0
	}
	return v
}

// Validate checks the matrix is square and complete.
func (t *Topology) Validate() error {
	n := len(t.Sites)
	if len(t.OneWay) != n {
		return fmt.Errorf("topology: %d sites but %d latency rows", n, len(t.OneWay))
	}
	for i, row := range t.OneWay {
		if len(row) != n {
			return fmt.Errorf("topology: row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return nil
}

// RTT returns the round-trip latency between two sites.
func (t *Topology) RTT(a, b Site) time.Duration { return t.OneWay[a][b] + t.OneWay[b][a] }

// PaperTopology returns the 5-site layout used by the paper's evaluation
// (Oregon, Ohio, Ireland, Canada, Seoul). One-way latencies are derived
// from the published observations: cross-site RTTs span 25–292 ms, the
// Oregon/Ohio/Canada triangle is the closest quorum (Raft with an Oregon
// leader commits in ≈79 ms), and Seoul is the farthest site (≈360 ms RTT
// from the Mencius-0% critical path).
func PaperTopology() *Topology {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	// One-way latencies in milliseconds, symmetric.
	m := [][]float64{
		//          OR     OH     IR     CA     SE
		/* OR */ {0.25, 35, 65, 30, 63},
		/* OH */ {35, 0.25, 42, 13, 93},
		/* IR */ {65, 42, 0.25, 36, 146},
		/* CA */ {30, 13, 36, 0.25, 105},
		/* SE */ {63, 93, 146, 105, 0.25},
	}
	n := len(m)
	ow := make([][]time.Duration, n)
	for i := range ow {
		ow[i] = make([]time.Duration, n)
		for j := range ow[i] {
			ow[i][j] = ms(m[i][j])
		}
	}
	return &Topology{
		Sites:  []string{"oregon", "ohio", "ireland", "canada", "seoul"},
		OneWay: ow,
		// Effective per-region bandwidth relative to the nominal 750 Mbps:
		// Oregon best ("the best network condition"), Seoul ~30% behind.
		BandwidthScale: []float64{1.0, 0.95, 0.9, 0.95, 0.75},
	}
}

// WANTopology returns a geo-distributed layout with one site per replica
// for n-replica WAN profiles: the paper's five sites, extended with
// Frankfurt and Sydney up to seven. Latencies keep PaperTopology's
// published 5×5 block; the two extra sites use representative public
// inter-region figures (Ireland–Frankfurt is the only sub-15 ms pair,
// Sydney pairs closest with Seoul). n beyond the site list is clamped.
func WANTopology(n int) *Topology {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	m := [][]float64{
		//          OR     OH     IR     CA     SE     FR     SY
		/* OR */ {0.25, 35, 65, 30, 63, 75, 70},
		/* OH */ {35, 0.25, 42, 13, 93, 50, 92},
		/* IR */ {65, 42, 0.25, 36, 146, 12, 130},
		/* CA */ {30, 13, 36, 0.25, 105, 45, 100},
		/* SE */ {63, 93, 146, 105, 0.25, 125, 45},
		/* FR */ {75, 50, 12, 45, 125, 0.25, 140},
		/* SY */ {70, 92, 130, 100, 45, 140, 0.25},
	}
	sites := []string{"oregon", "ohio", "ireland", "canada", "seoul", "frankfurt", "sydney"}
	scale := []float64{1.0, 0.95, 0.9, 0.95, 0.75, 0.9, 0.85}
	if n < 1 {
		n = 1
	}
	if n > len(sites) {
		n = len(sites)
	}
	ow := make([][]time.Duration, n)
	for i := range ow {
		ow[i] = make([]time.Duration, n)
		for j := range ow[i] {
			ow[i][j] = ms(m[i][j])
		}
	}
	return &Topology{Sites: sites[:n], OneWay: ow, BandwidthScale: scale[:n]}
}

// LinkRTT materializes the per-link round-trip matrix for replicas placed
// at the given sites: entry [i][j] is the topology RTT between replica
// i's and replica j's sites. Feed the result to CostModel.LinkRTT to give
// every replica its own WAN link (replica IDs must then be 0..len-1).
func (t *Topology) LinkRTT(sites []Site) [][]time.Duration {
	out := make([][]time.Duration, len(sites))
	for i, a := range sites {
		out[i] = make([]time.Duration, len(sites))
		for j, b := range sites {
			out[i][j] = t.RTT(a, b)
		}
	}
	return out
}

// CostModel prices the CPU and wire resources a message consumes. All
// figures are per node. The calibration encodes the paper's observed cost
// structure (Section 5): a saturated leader serves read and write requests
// at comparable per-op CPU cost (so Raft, Raft* and Leader-Lease peak
// together, Figure 9c), replication processing per command dominates the
// per-message overhead (so Mencius's load spreading pays, Figure 10a), and
// an 8-byte-request single leader peaks in the paper's tens-of-Kops range.
type CostModel struct {
	// MsgOverhead is CPU time to handle any message (syscalls, decode).
	MsgOverhead time.Duration
	// CmdCost is CPU time per command carried inside a message
	// (replication processing: append apply, forward handling).
	CmdCost time.Duration
	// ReplyCost is CPU time the serving replica spends completing a client
	// request (proposal bookkeeping, WAL write, response encoding). It is
	// charged by the driver when the reply is emitted.
	ReplyCost time.Duration
	// LeaseReadCost is CPU time to serve a lease-protected local read
	// (conflict table check, local get, response encoding). Calibrated so
	// a leader serving local reads saturates at the same rate as one
	// serving logged operations — the paper's Figure 9c observation that
	// a saturated leader handles reads and writes with equal capability.
	// Because logged operations also pay FsyncTime on the ack edge, the
	// calibrated value includes a matching share for the lease path's
	// bookkeeping; lower it to model a system whose local reads are
	// genuinely cheaper than its logged writes.
	LeaseReadCost time.Duration
	// FsyncTime is the latency of making one step's accepted entries and
	// hard state durable (the persist-before-ack barrier: a replica
	// fsyncs before its vote grants and append/accept acks leave).
	// Drivers charge it on the ack edge whenever a step produced
	// AppendedEntries or changed hard state, so simulated commit
	// latencies include the fsync a correct deployment pays — the
	// difference Howard & Mortier call out between an in-memory toy and
	// a real implementation. Group commit amortizes count, not latency:
	// one barrier per step regardless of batch size.
	FsyncTime time.Duration
	// ByteCostNs is CPU time per payload byte, in (possibly fractional)
	// nanoseconds.
	ByteCostNs float64
	// BandwidthBps is each node's egress (and ingress) link speed in
	// bits/second. Zero disables bandwidth modelling.
	BandwidthBps float64
	// WireFactor multiplies payload bytes to account for encoding and
	// transport amplification observed on real systems. Zero means 1.
	WireFactor float64
	// HeaderBytes is the fixed per-message wire size.
	HeaderBytes int
	// LinkRTT optionally overrides the topology's site-to-site latency
	// with a per-link round-trip matrix indexed by replica NodeID:
	// LinkRTT[a][b] is the full RTT between replicas a and b, half charged
	// each way. Missing rows or non-positive entries fall back to the
	// topology, so a matrix may cover only the links it cares about. WAN
	// profiles use it (via Topology.LinkRTT) to give every replica its own
	// link without registering one site per replica.
	LinkRTT [][]time.Duration
}

// IsZero reports whether the model is the zero value (no calibration) —
// the LinkRTT slice makes CostModel non-comparable with ==.
func (c CostModel) IsZero() bool {
	return c.MsgOverhead == 0 && c.CmdCost == 0 && c.ReplyCost == 0 &&
		c.LeaseReadCost == 0 && c.FsyncTime == 0 && c.ByteCostNs == 0 &&
		c.BandwidthBps == 0 && c.WireFactor == 0 && c.HeaderBytes == 0 &&
		c.LinkRTT == nil
}

// linkOneWay returns the matrix-derived one-way latency for a→b, if the
// matrix covers that link.
func (c CostModel) linkOneWay(a, b protocol.NodeID) (time.Duration, bool) {
	if int(a) < 0 || int(a) >= len(c.LinkRTT) {
		return 0, false
	}
	row := c.LinkRTT[a]
	if int(b) < 0 || int(b) >= len(row) || row[b] <= 0 {
		return 0, false
	}
	return row[b] / 2, true
}

// DefaultCostModel returns the calibration used by the benchmarks.
func DefaultCostModel() CostModel {
	return CostModel{
		MsgOverhead:   time.Microsecond,
		CmdCost:       14 * time.Microsecond,
		ReplyCost:     12 * time.Microsecond,
		LeaseReadCost: 43 * time.Microsecond,
		// Datacenter-NVMe-class write + flush, amortized by the group
		// commit a live driver performs (the measured live runtime pays
		// well under 0.2 fsyncs/entry): dwarfed by WAN latency but
		// visible in the per-op CPU/disk budget at saturation.
		FsyncTime:    25 * time.Microsecond,
		ByteCostNs:   0.2,
		BandwidthBps: 750e6,
		WireFactor:   2.0,
		HeaderBytes:  64,
	}
}

// cpuTime returns the CPU service time for a message of the given payload
// size carrying n commands.
func (c CostModel) cpuTime(size, cmds int) time.Duration {
	d := c.MsgOverhead + time.Duration(cmds)*c.CmdCost
	d += time.Duration(float64(size) * c.ByteCostNs)
	return d
}

// txTime returns the serialization time for size payload bytes on the link.
func (c CostModel) txTime(size int) time.Duration {
	if c.BandwidthBps <= 0 {
		return 0
	}
	wf := c.WireFactor
	if wf <= 0 {
		wf = 1
	}
	bits := (float64(size)*wf + float64(c.HeaderBytes)) * 8
	return time.Duration(bits / c.BandwidthBps * float64(time.Second))
}

// CmdCounter lets protocol messages report how many commands they carry so
// the cost model can price them; messages that do not implement it count
// as zero commands.
type CmdCounter interface{ CmdCount() int }

// Endpoint receives messages from the network.
type Endpoint interface {
	Deliver(from protocol.NodeID, msg protocol.Message)
}

// EndpointFunc adapts a function to Endpoint.
type EndpointFunc func(from protocol.NodeID, msg protocol.Message)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(from protocol.NodeID, msg protocol.Message) { f(from, msg) }

type nodeState struct {
	ep       Endpoint
	site     Site
	modelCPU bool // replicas queue on a CPU; client endpoints do not
	cpuFree  Time
	txFree   Time
	rxFree   Time
}

// Network routes messages between registered endpoints on a Sim, applying
// latency, CPU and bandwidth models plus optional fault injection.
type Network struct {
	sim   *Sim
	topo  *Topology
	cost  CostModel
	nodes map[protocol.NodeID]*nodeState

	dropRate  float64 // uniform message drop probability
	partition map[[2]protocol.NodeID]bool

	// free pools the deliveries whose messages have arrived.
	free []*delivery

	// Stats
	Sent    uint64
	Dropped uint64
	Bytes   uint64
}

// NewNetwork builds a network over sim with the given topology and costs.
func NewNetwork(sim *Sim, topo *Topology, cost CostModel) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return &Network{
		sim:       sim,
		topo:      topo,
		cost:      cost,
		nodes:     make(map[protocol.NodeID]*nodeState),
		partition: make(map[[2]protocol.NodeID]bool),
	}, nil
}

// Register attaches an endpoint at a site. Replicas should set modelCPU so
// their message handling contends on a single CPU queue; client endpoints
// should not.
func (n *Network) Register(id protocol.NodeID, site Site, ep Endpoint, modelCPU bool) {
	n.nodes[id] = &nodeState{ep: ep, site: site, modelCPU: modelCPU}
}

// SiteOf returns the registered site for id.
func (n *Network) SiteOf(id protocol.NodeID) Site { return n.nodes[id].site }

// SetDropRate sets a uniform probability of silently dropping any message.
func (n *Network) SetDropRate(p float64) { n.dropRate = p }

// SetPartitioned cuts (or heals) the directed link a→b and b→a.
func (n *Network) SetPartitioned(a, b protocol.NodeID, cut bool) {
	n.partition[[2]protocol.NodeID{a, b}] = cut
	n.partition[[2]protocol.NodeID{b, a}] = cut
}

// Send routes one message. Delivery time accounts for the sender's egress
// bandwidth queue, the site-to-site latency, the receiver's ingress queue
// and the receiver's CPU queue.
func (n *Network) Send(from, to protocol.NodeID, msg protocol.Message) {
	src, ok := n.nodes[from]
	if !ok {
		return
	}
	dst, ok := n.nodes[to]
	if !ok {
		return
	}
	n.Sent++
	if n.partition[[2]protocol.NodeID{from, to}] {
		n.Dropped++
		return
	}
	if n.dropRate > 0 && n.sim.rng.Float64() < n.dropRate {
		n.Dropped++
		return
	}

	size := msg.WireSize()
	n.Bytes += uint64(size)
	now := n.sim.Now()

	// Egress serialization at the sender (booked now: the sender's NIC is
	// busy from the moment it queues the message).
	txBase := n.cost.txTime(size)
	tx := time.Duration(float64(txBase) / n.topo.siteBandwidthScale(src.site))
	start := now
	if src.txFree > start {
		start = src.txFree
	}
	src.txFree = start + Time(tx)

	// Propagation: the cost model's per-link matrix wins over the
	// topology's site placement when it covers the pair.
	oneWay := n.topo.OneWay[src.site][dst.site]
	if d, ok := n.cost.linkOneWay(from, to); ok {
		oneWay = d
	}
	arrive := src.txFree + Time(oneWay)

	// Receiver-side queues (ingress link, then CPU) are booked at arrival
	// time, not send time — otherwise an in-flight WAN message would block
	// later-sent local messages that physically arrive earlier.
	d := n.newDelivery()
	d.dst, d.from, d.msg, d.size = dst, from, msg, size
	d.rxTx = time.Duration(float64(txBase) / n.topo.siteBandwidthScale(dst.site))
	n.sim.Schedule(arrive, d)
}

// delivery is one message in flight. The queue runs it twice: at arrival
// it books the receiver's ingress and CPU queues and schedules itself at
// the instant they free, and there it returns to its Network's pool and
// hands the message to the endpoint.
type delivery struct {
	net    *Network
	dst    *nodeState
	from   protocol.NodeID
	msg    protocol.Message
	size   int
	rxTx   time.Duration // ingress serialization at the receiver
	booked bool
}

func (n *Network) newDelivery() *delivery {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free = n.free[:k-1]
		return d
	}
	return &delivery{net: n}
}

// Run implements Runner.
func (d *delivery) Run() {
	n, dst := d.net, d.dst
	if !d.booked {
		d.booked = true
		at := n.sim.Now()
		if dst.rxFree > at {
			at = dst.rxFree
		}
		dst.rxFree = at + Time(d.rxTx)
		at = dst.rxFree
		if dst.modelCPU {
			cmds := 0
			if cc, ok := d.msg.(CmdCounter); ok {
				cmds = cc.CmdCount()
			}
			svc := n.cost.cpuTime(d.size, cmds)
			begin := at
			if dst.cpuFree > begin {
				begin = dst.cpuFree
			}
			dst.cpuFree = begin + Time(svc)
			at = dst.cpuFree
		}
		n.sim.Schedule(at, d)
		return
	}
	from, msg := d.from, d.msg
	*d = delivery{net: n}
	n.free = append(n.free, d)
	dst.ep.Deliver(from, msg)
}

// ChargeCPU adds d of work to id's CPU queue and returns the virtual time
// at which the work completes. Drivers use it to price local work that does
// not arrive as a message (tick handling, applying entries).
func (n *Network) ChargeCPU(id protocol.NodeID, d time.Duration) Time {
	st := n.nodes[id]
	begin := n.sim.Now()
	if st.cpuFree > begin {
		begin = st.cpuFree
	}
	st.cpuFree = begin + Time(d)
	return st.cpuFree
}

// Cost returns the network's cost model.
func (n *Network) Cost() CostModel { return n.cost }

// Clock returns the simulator driving this network.
func (n *Network) Clock() *Sim { return n.sim }
