// Package raftpaxos is a reproduction of "On the Parallels between Paxos
// and Raft, and how to Port Optimizations" (Wang et al., PODC 2019) as a
// usable Go library. It provides:
//
//   - Consensus engines for every protocol the paper discusses:
//     MultiPaxos, standard Raft, Raft* (the Raft variant that refines
//     MultiPaxos), Paxos Quorum Lease, the ported Raft*-PQL, the
//     leader-lease baseline, Mencius (Coordinated Paxos) and the ported
//     Raft*-Mencius — all as pure state machines runnable in-process,
//     over TCP, or inside the deterministic WAN simulator.
//   - The paper's formal toolkit, executable: a TLA+-style specification
//     framework, refinement mappings with a bounded model checker, the
//     non-mutating-optimization classifier, and the automatic porting
//     algorithm of Section 4.3 (see NewPortedPQL / NewPortedMencius).
//   - The full evaluation harness regenerating Figures 9a–d and 10a–d on
//     a simulated 5-region deployment (see Evaluate* functions).
//
// Quick start: build a 3-node in-process Raft* cluster.
//
//	cl, _ := raftpaxos.NewCluster(raftpaxos.ClusterConfig{
//	    Protocol: raftpaxos.ProtoRaftStar, Nodes: 3,
//	})
//	defer cl.Stop()
//	_ = cl.Node(0).Put(ctx, "k", []byte("v"))
//	v, _ := cl.Node(1).Get(ctx, "k")
package raftpaxos

import (
	"fmt"
	"time"

	"raftpaxos/internal/cluster"
	"raftpaxos/internal/coorraft"
	"raftpaxos/internal/lease"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/transport"
)

// Proto selects a consensus protocol.
type Proto int

// Protocols.
const (
	// ProtoMultiPaxos is MultiPaxos per Figure 1.
	ProtoMultiPaxos Proto = iota + 1
	// ProtoRaft is standard Raft per Figure 2 (black text).
	ProtoRaft
	// ProtoRaftStar is Raft*, the variant that refines MultiPaxos.
	ProtoRaftStar
	// ProtoRaftStarPQL is Raft* with the ported Paxos Quorum Lease.
	ProtoRaftStarPQL
	// ProtoRaftStarLL is Raft* with the leader-lease read baseline.
	ProtoRaftStarLL
	// ProtoRaftStarMencius is Raft* with the ported Mencius optimization.
	ProtoRaftStarMencius
	// ProtoPaxosPQL is Paxos Quorum Lease on MultiPaxos.
	ProtoPaxosPQL
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoMultiPaxos:
		return "multipaxos"
	case ProtoRaft:
		return "raft"
	case ProtoRaftStar:
		return "raftstar"
	case ProtoRaftStarPQL:
		return "raftstar-pql"
	case ProtoRaftStarLL:
		return "raftstar-ll"
	case ProtoRaftStarMencius:
		return "raftstar-mencius"
	case ProtoPaxosPQL:
		return "paxos-pql"
	default:
		return fmt.Sprintf("proto(%d)", int(p))
	}
}

// ParseProto maps a protocol name to its Proto.
func ParseProto(name string) (Proto, error) {
	for _, p := range []Proto{ProtoMultiPaxos, ProtoRaft, ProtoRaftStar,
		ProtoRaftStarPQL, ProtoRaftStarLL, ProtoRaftStarMencius, ProtoPaxosPQL} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	Protocol Proto
	// Nodes is the replica count (default 3).
	Nodes int
	// TickInterval drives engine time (default 10ms).
	TickInterval time.Duration
	// ElectionTimeout / HeartbeatInterval tune leader maintenance
	// (defaults: 300ms / 50ms).
	ElectionTimeout   time.Duration
	HeartbeatInterval time.Duration
	// LeaseDuration / LeaseRenew tune the lease protocols (defaults:
	// 2s / 500ms, the paper's parameters).
	LeaseDuration time.Duration
	LeaseRenew    time.Duration
	// LeaseSkewMargin is the holder-side guard band protecting lease
	// reads from clock skew: a holder trusts a grant only until
	// receipt + LeaseDuration − LeaseSkewMargin, while the grantor
	// honors it for the full duration. Size it for the worst relative
	// drift plus delivery delay the deployment tolerates (see
	// internal/lease for the formula); 0 defaults to LeaseDuration/8.
	LeaseSkewMargin time.Duration
	// MenciusConflicting selects the conflicting-workload reply policy.
	MenciusConflicting bool
	// DisableFastReads reverts Get to the paper's baseline of replicating
	// every read through the log. By default the live runtime serves
	// reads via ReadIndex (raft, raftstar, multipaxos — one leadership
	// confirmation round, no log append, no fsync) or quorum leases
	// (the PQL/LL protocols, with ReadIndex as their fallback).
	DisableFastReads bool
	// FastPathWrites enables the one-RTT Fast Paxos write path (raft,
	// raftstar, multipaxos): a non-leader replica broadcasts submissions to
	// every replica, which accept speculatively and ack everyone; ⌈3n/4⌉
	// matching acks including the leader's commit the command in a single
	// round trip, with collisions falling back to the classic path.
	FastPathWrites bool
	Seed           int64
}

func (c *ClusterConfig) withDefaults() ClusterConfig {
	out := *c
	if out.Nodes <= 0 {
		out.Nodes = 3
	}
	if out.TickInterval <= 0 {
		out.TickInterval = 10 * time.Millisecond
	}
	if out.ElectionTimeout <= 0 {
		out.ElectionTimeout = 300 * time.Millisecond
	}
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 50 * time.Millisecond
	}
	if out.LeaseDuration <= 0 {
		out.LeaseDuration = 2 * time.Second
	}
	if out.LeaseRenew <= 0 {
		out.LeaseRenew = 500 * time.Millisecond
	}
	return out
}

// skewTicks converts the configured lease guard band to ticks; 0 means
// "use the lease table's default" (DurationTicks/8), so it is passed
// through rather than clamped here.
func skewTicks(c ClusterConfig) int {
	if c.LeaseSkewMargin <= 0 {
		return 0
	}
	n := int(c.LeaseSkewMargin / c.TickInterval)
	if n < 1 {
		n = 1
	}
	return n
}

// NewEngine builds a single replica engine for the protocol — the
// lower-level entry point for custom drivers and simulators.
func NewEngine(cfg ClusterConfig, id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
	c := cfg.withDefaults()
	ticks := func(d time.Duration) int {
		n := int(d / c.TickInterval)
		if n < 1 {
			n = 1
		}
		return n
	}
	election, hb := ticks(c.ElectionTimeout), ticks(c.HeartbeatInterval)
	leases := lease.Config{
		Self: id, Peers: peers, DurationTicks: ticks(c.LeaseDuration),
		RenewTicks: ticks(c.LeaseRenew), SkewMarginTicks: skewTicks(c),
	}
	switch c.Protocol {
	case ProtoRaft:
		return raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: hb, Seed: c.Seed,
			ReadIndex: !c.DisableFastReads, FastPath: c.FastPathWrites,
		})
	case ProtoMultiPaxos:
		return multipaxos.New(multipaxos.Config{
			ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: hb, Seed: c.Seed,
			ReadIndex: !c.DisableFastReads, FastPath: c.FastPathWrites,
		})
	case ProtoRaftStarPQL, ProtoRaftStarLL:
		mode := lease.QuorumLease
		if c.Protocol == ProtoRaftStarLL {
			mode = lease.LeaderLease
		}
		return lease.NewEngine(leases, mode, func(h protocol.Hooks) lease.Inner {
			return raftstar.New(raftstar.Config{
				ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: hb, Seed: c.Seed,
				ReadIndex: !c.DisableFastReads, Hooks: h,
			})
		})
	case ProtoRaftStarMencius:
		policy := coorraft.ReplyAtCommit
		if c.MenciusConflicting {
			policy = coorraft.ReplyAtExecute
		}
		return coorraft.New(coorraft.Config{
			ID: id, Peers: peers, HeartbeatTicks: hb,
			RevokeTicks: 4 * election, Policy: policy, Seed: c.Seed,
		})
	case ProtoPaxosPQL:
		return lease.NewEngine(leases, lease.QuorumLease, func(h protocol.Hooks) lease.Inner {
			return multipaxos.New(multipaxos.Config{
				ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: hb, Seed: c.Seed,
				ReadIndex: !c.DisableFastReads, Hooks: h,
			})
		})
	default: // ProtoRaftStar and zero value
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: election, HeartbeatTicks: hb, Seed: c.Seed,
			ReadIndex: !c.DisableFastReads, FastPath: c.FastPathWrites,
		})
	}
}

// Cluster is an in-process replicated key-value cluster.
type Cluster struct {
	nodes []*cluster.Node
	net   *transport.ChanNetwork
}

// NewCluster builds and starts an in-process cluster over a channel
// transport.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	c := cfg.withDefaults()
	peers := make([]protocol.NodeID, c.Nodes)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	net := cl(c, peers)
	return net, nil
}

func cl(c ClusterConfig, peers []protocol.NodeID) *Cluster {
	net := transport.NewChanNetwork()
	out := &Cluster{net: net}
	for _, id := range peers {
		n := cluster.New(cluster.Config{
			Engine:       NewEngine(c, id, peers),
			Transport:    net,
			TickInterval: c.TickInterval,
		})
		net.Listen(id, n.HandleMessage)
		out.nodes = append(out.nodes, n)
	}
	for _, n := range out.nodes {
		n.Start()
	}
	return out
}

// Node returns the i-th replica's client handle.
func (c *Cluster) Node(i int) *cluster.Node { return c.nodes[i] }

// Len returns the replica count.
func (c *Cluster) Len() int { return len(c.nodes) }

// Leader returns the index of the current leader, or -1.
func (c *Cluster) Leader() int {
	for i, n := range c.nodes {
		if n.IsLeader() {
			return i
		}
	}
	return -1
}

// WaitLeader blocks until a leader emerges (or the timeout passes),
// returning its index or -1.
func (c *Cluster) WaitLeader(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if l := c.Leader(); l >= 0 {
			return l
		}
		time.Sleep(5 * time.Millisecond)
	}
	return c.Leader()
}

// Stop terminates every node and the transport.
func (c *Cluster) Stop() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}
