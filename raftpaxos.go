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
	"raftpaxos/internal/engines"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/transport"
)

// Proto selects a consensus protocol; its names are the engine
// registry's (internal/engines).
type Proto = engines.Proto

// Protocols.
const (
	// ProtoMultiPaxos is MultiPaxos per Figure 1.
	ProtoMultiPaxos = engines.MultiPaxos
	// ProtoRaft is standard Raft per Figure 2 (black text).
	ProtoRaft = engines.Raft
	// ProtoRaftStar is Raft*, the variant that refines MultiPaxos.
	ProtoRaftStar = engines.RaftStar
	// ProtoRaftStarPQL is Raft* with the ported Paxos Quorum Lease.
	ProtoRaftStarPQL = engines.RaftStarPQL
	// ProtoRaftStarLL is Raft* with the leader-lease read baseline.
	ProtoRaftStarLL = engines.RaftStarLL
	// ProtoRaftStarMencius is Raft* with the ported Mencius optimization.
	ProtoRaftStarMencius = engines.RaftStarMencius
	// ProtoPaxosPQL is Paxos Quorum Lease on MultiPaxos.
	ProtoPaxosPQL = engines.PaxosPQL
)

// ParseProto maps a protocol name to its Proto.
func ParseProto(name string) (Proto, error) {
	if s, err := engines.Parse(name); err == nil && !s.FastPath {
		return s.Proto, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// Protocol selects the engine (default raftstar).
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
	if out.Protocol == 0 {
		out.Protocol = ProtoRaftStar
	}
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

// NewEngine builds a single replica engine for the protocol — the
// lower-level entry point for custom drivers and simulators.
func NewEngine(cfg ClusterConfig, id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
	c := cfg.withDefaults()
	ticks := func(d time.Duration) int { return max(1, int(d/c.TickInterval)) }
	spec := engines.Spec{
		Proto: c.Protocol, FastPath: c.FastPathWrites,
		ElectionTicks: ticks(c.ElectionTimeout), HeartbeatTicks: ticks(c.HeartbeatInterval),
		LeaseTicks: ticks(c.LeaseDuration), RenewTicks: ticks(c.LeaseRenew),
		ReadIndex: !c.DisableFastReads, MenciusConflicting: c.MenciusConflicting, Seed: c.Seed,
	}
	if c.LeaseSkewMargin > 0 { // else the lease table's default, DurationTicks/8
		spec.SkewMarginTicks = ticks(c.LeaseSkewMargin)
	}
	return engines.New(spec, id, peers)
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
	return out, nil
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
