// Package engines is the registry of the consensus engines the system
// ships: one Proto per protocol, one name per engine — `<proto>`, or
// `<proto>+fast` with the Fast Paxos write path on — and New, the one
// constructor every driver builds replicas with: the live cluster (through
// raftpaxos.NewEngine), the WAN simulator, the campaign and the sweep.
package engines

import (
	"fmt"
	"strings"

	"raftpaxos/internal/lease"
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
)

// Proto selects a consensus protocol (raftpaxos.Proto documents each).
type Proto int

// The protocols, in registry order.
const (
	Raft Proto = iota + 1
	RaftStar
	MultiPaxos
	RaftStarPQL
	RaftStarLL
	RaftStarMencius
	PaxosPQL
)

var names = [...]string{"", "raft", "raftstar", "multipaxos", "raftstar-pql", "raftstar-ll", "raftstar-mencius", "paxos-pql"}

// String implements fmt.Stringer: the protocol's registry name.
func (p Proto) String() string {
	if p < Raft || p > PaxosPQL {
		return fmt.Sprintf("proto(%d)", int(p))
	}
	return names[p]
}

// HasFastPath reports whether the protocol carries the ported fast path.
func (p Proto) HasFastPath() bool { return p >= Raft && p <= MultiPaxos }

// Leases reports whether the protocol serves lease reads, the one read
// path with a clock-skew attack surface.
func (p Proto) Leases() bool { return p == RaftStarPQL || p == RaftStarLL || p == PaxosPQL }

// Leaderless reports whether every replica proposes and none leads.
func (p Proto) Leaderless() bool { return p == RaftStarMencius }

// Spec selects one engine and says how its driver runs it: Proto and
// FastPath are what the engine's name says, every other field is a value
// one driver sets differently from another.
type Spec struct {
	Proto    Proto
	FastPath bool // protocols without the port ignore it

	ElectionTicks, HeartbeatTicks int
	// Lease validity, renewal period and holder-side guard band (a zero
	// margin is lease.Config's default).
	LeaseTicks, RenewTicks, SkewMarginTicks int
	// ReadIndex serves reads after one leadership confirmation round
	// instead of through the log; it is the lease protocols' fallback too.
	ReadIndex bool
	// Passive replicas start no leader change: no campaign, and no
	// revocation of a silent Mencius owner.
	Passive            bool
	MenciusConflicting bool // Mencius replies at execution, not at commit
	UnsafeNoGuard      bool // drops the lease guard band: sabotage runs only
	Seed               int64
}

// Name is the engine's registry name.
func (s Spec) Name() string {
	if s.FastPath && s.Proto.HasFastPath() {
		return s.Proto.String() + "+fast"
	}
	return s.Proto.String()
}

// Parse maps an engine name to the Spec it selects; the driver fills in
// the rest.
func Parse(name string) (Spec, error) {
	base, fast := strings.CutSuffix(name, "+fast")
	for p := Raft; p <= PaxosPQL; p++ {
		if p.String() == base && (!fast || p.HasFastPath()) {
			return Spec{Proto: p, FastPath: fast}, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown engine %q", name)
}

// Names lists, in registry order, the engines whose Spec keep accepts:
// every protocol, then every protocol with the fast path.
func Names(keep func(Spec) bool) []string {
	var out []string
	for _, fast := range []bool{false, true} {
		for p := Raft; p <= PaxosPQL; p++ {
			if s := (Spec{Proto: p, FastPath: fast}); (!fast || p.HasFastPath()) && keep(s) {
				out = append(out, s.Name())
			}
		}
	}
	return out
}

// New builds replica id of the engine s selects.
func New(s Spec, id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
	star := raftstar.Config{
		ID: id, Peers: peers, ElectionTicks: s.ElectionTicks, HeartbeatTicks: s.HeartbeatTicks,
		Seed: s.Seed, Passive: s.Passive, ReadIndex: s.ReadIndex, FastPath: s.FastPath && s.Proto.HasFastPath(),
	}
	paxos := multipaxos.Config(star) // the two families' configs share one layout
	leased := func(mode lease.Mode, inner func(protocol.Hooks) lease.Inner) protocol.Engine {
		return lease.NewEngine(lease.Config{
			Self: id, Peers: peers, DurationTicks: s.LeaseTicks, RenewTicks: s.RenewTicks,
			SkewMarginTicks: s.SkewMarginTicks, UnsafeNoGuard: s.UnsafeNoGuard,
		}, mode, inner)
	}
	starInner := func(h protocol.Hooks) lease.Inner { star.Hooks = h; return raftstar.New(star) }
	switch s.Proto {
	case Raft:
		return raft.New(star)
	case RaftStar:
		return raftstar.New(star)
	case MultiPaxos:
		return multipaxos.New(paxos)
	case RaftStarPQL:
		return leased(lease.QuorumLease, starInner)
	case RaftStarLL:
		return leased(lease.LeaderLease, starInner)
	case PaxosPQL:
		return leased(lease.QuorumLease, func(h protocol.Hooks) lease.Inner { paxos.Hooks = h; return multipaxos.New(paxos) })
	case RaftStarMencius:
		policy := mencius.ReplyAtCommit
		if s.MenciusConflicting {
			policy = mencius.ReplyAtExecute
		}
		return mencius.New(mencius.Config{
			ID: id, Peers: peers, HeartbeatTicks: s.HeartbeatTicks, RevokeTicks: 4 * s.ElectionTicks,
			Policy: policy, Seed: s.Seed, DisableRevocation: s.Passive,
		})
	}
	panic(fmt.Sprintf("engines: unknown protocol %v", s.Proto))
}
