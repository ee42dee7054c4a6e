// Package lease implements Paxos Quorum Leases once for both engine
// families: Table is the lease bookkeeping (this file), Engine the
// decorator that turns a MultiPaxos or Raft* replica into PQL, Raft*-PQL or
// the leader-lease baseline through the four protocol.Hooks (engine.go).
// Time is logical ticks, driven by the host engine, so the same code runs
// under the simulator and live drivers.
//
// Model (Moraru et al., "Paxos Quorum Leases"): every replica may grant a
// lease to any other replica. A grantor renews its grants every renew
// period; a grant is valid at the holder until its expiry tick. The holder
// acknowledges each grant, and a grantor only keeps renewing to a holder
// that acknowledged a recent grant — so a crashed holder falls out of every
// grantor's holder set within one lease duration (plus two renew periods)
// and stops blocking writes. A replica holds a quorum lease when it holds
// valid leases from at least a quorum of replicas (itself included).
//
// Clock-skew safety: the grantor and holder measure the lease duration on
// different clocks, so the two windows must be asymmetric or relative drift
// (and delivery delay, which burns holder-side time before the grant even
// arrives) lets the holder trust a lease the grantor no longer honors — a
// stale local read. Three rules keep the trusted window strictly inside the
// honored one:
//
//  1. Guard band: the holder trusts a grant only until
//     now + Duration − SkewMarginTicks, while the grantor honors it for the
//     full Duration. The margin absorbs delivery delay plus bounded drift:
//     with the holder's tick up to r× slower than the grantor's and one-way
//     delay at most δ grantor-ticks, safety needs
//     margin ≥ Duration·(1−1/r) + δ/r.
//  2. Send anchoring: the grantor starts honoring at grant *send*
//     (grantedUntil = send + Duration), not at ack receipt — an in-flight
//     renewal whose ack was lost is still honored, so the holder can never
//     be refreshed by a grant the grantor has forgotten.
//  3. Ack-gated renewal: a grantor that has not seen an ack within two
//     renew periods stops extending its honor window and sends Duration-0
//     probe grants instead. A probe conveys no trust (it expires
//     immediately at the holder) but still elicits an ack, so a recovered
//     holder resumes receiving real grants one round-trip later while a
//     crashed one stops blocking commits. The very first grant to a
//     grantee is sent in full (there is no ack history yet); send
//     anchoring caps the cost of granting to a dead node at one duration.
//
// The three rules bound how long a lease is trusted; a fourth bounds what it
// is trusted about:
//
//  4. Activation floor: while a replica holds no lease from a grantor, that
//     grantor does not name it on its acks, so writes commit without the
//     replica ever seeing them. Every grant therefore carries the grantor's
//     last accepted log index at send; a grant that arrives while the lease
//     from that grantor is not held records it as the lease's floor, and the
//     holder serves no local read until it has committed through the floor
//     of every lease it holds. Everything the grantor acknowledges after the
//     send names the holder, so a renewal of a continuously held lease adds
//     no obligation — the floor is per activation (first grant, re-grant
//     after expiry or probation, restart), not per renewal. Reads below a
//     floor do not wait for it; they take the host engine's read path: an
//     accepted index is not a committed one (a deposed leader stamps a tail
//     it proposed to nobody), and the log may never get there.
//
// A fully paused holder clock is outside this model: a holder that never
// ticks never expires its own lease. The margin assumes bounded drift and
// bounded pauses (shorter than the margin); the campaign harness attacks
// exactly this envelope.
package lease

import "raftpaxos/internal/protocol"

// Wire stability: grant messages travel the live wire through internal/wire;
// exported field ORDER is the encoded layout and is frozen. Append new
// fields at the end and bump the transport's wireVersion.
//
// MsgGrant is a lease grant (or renewal) from a grantor to a holder. A
// Duration of 0 is a probe: it conveys no trust but solicits an ack so the
// grantor can tell a slow holder from a dead one.
type MsgGrant struct {
	// Duration is the validity period in ticks (0 = probe, see above). The
	// holder trusts the grant for Duration minus its configured skew margin,
	// measured from receipt; the grantor honors it for the full Duration,
	// measured from send.
	Duration int
	// Seq numbers the grant so acknowledgements can be matched and stale
	// (delayed or replayed) grants discarded by the holder.
	Seq uint64
	// Accepted is the grantor's last accepted log index (highest accepted
	// instance) when it sent the grant: the activation floor, rule 4.
	Accepted int64
}

// WireSize implements protocol.Message.
func (m *MsgGrant) WireSize() int { return 20 }

// MsgGrantAck acknowledges a grant.
type MsgGrantAck struct {
	Seq uint64
}

// WireSize implements protocol.Message.
func (m *MsgGrantAck) WireSize() int { return 8 }

// Config configures a lease table.
type Config struct {
	Self  protocol.NodeID
	Peers []protocol.NodeID // all replicas, including Self
	// DurationTicks is the lease validity period (paper: 2 s).
	DurationTicks int
	// RenewTicks is the grant renewal period (paper: 0.5 s).
	RenewTicks int
	// SkewMarginTicks is the holder-side guard band: a holder trusts a
	// grant only until now + Duration − SkewMarginTicks, while the grantor
	// honors it for the full Duration. 0 (or any out-of-range value)
	// defaults to DurationTicks/8. See the package comment for sizing.
	SkewMarginTicks int
	// Grantees restricts who this replica grants to (nil = everyone).
	// The leader-lease baseline sets a single grantee.
	Grantees []protocol.NodeID
	// UnsafeNoGuard restores the pre-guard-band semantics — full-Duration
	// receipt-anchored trust at the holder, ack-receipt-anchored honoring
	// at the grantor, no probes. Exists only so sabotage tests and
	// `raftpaxos-check -campaign-sabotage` can reproduce the stale read
	// the guard band prevents. Never set it in production.
	UnsafeNoGuard bool
}

// Table tracks leases granted by and held at one replica.
type Table struct {
	cfg Config
	now int

	seq        uint64
	sinceRenew int
	// held[g] is the expiry tick of the lease granted by g to us
	// (guard band already subtracted).
	held map[protocol.NodeID]int
	// floor[g] is the Accepted index of the grant that last activated the
	// lease from g (rule 4); it binds while that lease is held.
	floor map[protocol.NodeID]int64
	// lastGrantSeq[g] is the highest grant Seq seen from grantor g; grants
	// at or below it are stale (delayed or replayed) and ignored.
	lastGrantSeq map[protocol.NodeID]uint64
	// ackedAt[h] is the tick at which holder h last acknowledged a grant
	// from us; renewals to h stop (demote to probes) once that ack is
	// more than two renew periods old.
	ackedAt map[protocol.NodeID]int
	// grantedUntil[h] is the tick through which we honor h as a lease
	// holder, anchored at grant send: every full grant sent to h extends
	// it to send + Duration, whether or not the ack arrives.
	grantedUntil map[protocol.NodeID]int
	// grantSent[h] is the seq of the last grant sent to h.
	grantSent map[protocol.NodeID]uint64
}

// NewTable builds a lease table.
func NewTable(cfg Config) *Table {
	if cfg.DurationTicks <= 0 {
		cfg.DurationTicks = 200
	}
	if cfg.RenewTicks <= 0 {
		cfg.RenewTicks = cfg.DurationTicks / 4
	}
	if cfg.SkewMarginTicks <= 0 || cfg.SkewMarginTicks >= cfg.DurationTicks {
		cfg.SkewMarginTicks = cfg.DurationTicks / 8
		if cfg.SkewMarginTicks < 1 {
			cfg.SkewMarginTicks = 1
		}
	}
	return &Table{
		cfg: cfg,
		// First grants go out on the first tick, not a full renew period
		// later: grantors start granting as soon as they are up.
		sinceRenew:   cfg.RenewTicks,
		held:         make(map[protocol.NodeID]int),
		floor:        make(map[protocol.NodeID]int64),
		lastGrantSeq: make(map[protocol.NodeID]uint64),
		ackedAt:      make(map[protocol.NodeID]int),
		grantedUntil: make(map[protocol.NodeID]int),
		grantSent:    make(map[protocol.NodeID]uint64),
	}
}

// Now returns the current logical tick.
func (t *Table) Now() int { return t.now }

func (t *Table) margin() int {
	if t.cfg.UnsafeNoGuard {
		return 0
	}
	return t.cfg.SkewMarginTicks
}

func (t *Table) grantees() []protocol.NodeID {
	if t.cfg.Grantees != nil {
		return t.cfg.Grantees
	}
	return t.cfg.Peers
}

// SetGrantees changes the grantee set (leader-lease mode re-targets the
// current leader). An empty set means "grant to nobody" — distinct from
// the nil default of "grant to everyone", so the copy must stay non-nil.
func (t *Table) SetGrantees(g []protocol.NodeID) {
	out := make([]protocol.NodeID, len(g))
	copy(out, g)
	t.cfg.Grantees = out
}

// ackFresh reports whether holder h acknowledged a grant recently enough
// to keep receiving real (trust-bearing) renewals.
func (t *Table) ackFresh(h protocol.NodeID) bool {
	at, ok := t.ackedAt[h]
	return ok && t.now < at+2*t.cfg.RenewTicks
}

// Tick advances logical time and returns the grant messages to send this
// tick (empty unless the renew period elapsed). accepted is the host
// engine's last accepted log index, stamped on every grant (rule 4).
func (t *Table) Tick(accepted int64) []protocol.Envelope {
	t.now++
	t.sinceRenew++
	if t.sinceRenew < t.cfg.RenewTicks {
		return nil
	}
	t.sinceRenew = 0
	var msgs []protocol.Envelope
	for _, p := range t.grantees() {
		if p == t.cfg.Self {
			continue
		}
		_, contacted := t.grantSent[p]
		t.seq++
		t.grantSent[p] = t.seq
		dur := t.cfg.DurationTicks
		// First contact grants in full (send anchoring caps the cost of a
		// dead grantee at one duration); after that, a grantee that went
		// silent is demoted to probes until it acks again.
		if t.cfg.UnsafeNoGuard || !contacted || t.ackFresh(p) {
			// Honor the grant from the moment it leaves, for the full
			// duration: even if the ack is lost, the holder may trust it.
			t.grantedUntil[p] = t.now + dur
		} else {
			// No recent ack: probe instead of granting, so a dead holder
			// stops extending its honor window (and blocking commits)
			// while a live one re-announces itself with the ack.
			dur = 0
		}
		msgs = append(msgs, protocol.Envelope{
			From: t.cfg.Self, To: p,
			Msg: &MsgGrant{Duration: dur, Seq: t.seq, Accepted: accepted},
		})
	}
	return msgs
}

// Step handles lease messages, returning any reply and whether the message
// was a lease message at all.
func (t *Table) Step(from protocol.NodeID, msg protocol.Message) ([]protocol.Envelope, bool) {
	switch m := msg.(type) {
	case *MsgGrant:
		// A grant at or below the highest Seq seen from this grantor is a
		// delayed duplicate or a replay: trusting it would re-validate an
		// expired lease the grantor no longer honors. Drop it unacked.
		if m.Seq <= t.lastGrantSeq[from] {
			return nil, true
		}
		t.lastGrantSeq[from] = m.Seq
		if t.held[from] <= t.now {
			t.floor[from] = m.Accepted // activation, not renewal
		}
		t.held[from] = t.now + m.Duration - t.margin()
		return []protocol.Envelope{{
			From: t.cfg.Self, To: from, Msg: &MsgGrantAck{Seq: m.Seq},
		}}, true
	case *MsgGrantAck:
		// Conservative: only the latest grant's ack refreshes the holder.
		if m.Seq == t.grantSent[from] {
			t.ackedAt[from] = t.now
		}
		return nil, true
	default:
		return nil, false
	}
}

// HeldCount returns how many valid leases this replica currently holds,
// including its implicit self-lease.
func (t *Table) HeldCount() int {
	n := 1 // self
	for g, exp := range t.held {
		if g != t.cfg.Self && exp > t.now {
			n++
		}
	}
	return n
}

// HasQuorumLease reports whether this replica holds leases from a quorum.
func (t *Table) HasQuorumLease() bool {
	return t.HeldCount() >= protocol.Quorum(len(t.cfg.Peers))
}

// Floor returns the highest activation floor among the leases currently
// held (rule 4): no local read is served until the commit index reaches it.
func (t *Table) Floor() int64 {
	var f int64
	for g, exp := range t.held {
		if exp > t.now {
			f = max(f, t.floor[g])
		}
	}
	return f
}

// Holders returns the replicas currently holding an active lease granted
// by this replica (itself included): the set whose acknowledgement a
// commit must collect. A holder is active through the end of every full
// grant sent to it — anchored at send, so it covers everything the holder
// could possibly still trust, whether or not it is still a grantee.
func (t *Table) Holders() []protocol.NodeID {
	holders := []protocol.NodeID{t.cfg.Self}
	for _, p := range t.cfg.Peers {
		if p == t.cfg.Self {
			continue
		}
		if t.cfg.UnsafeNoGuard {
			if at, ok := t.ackedAt[p]; ok && at+t.cfg.DurationTicks > t.now {
				holders = append(holders, p)
			}
			continue
		}
		if until, ok := t.grantedUntil[p]; ok && until > t.now {
			holders = append(holders, p)
		}
	}
	return holders
}
