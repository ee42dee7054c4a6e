package lease_test

import (
	"testing"

	"raftpaxos/internal/lease"
	"raftpaxos/internal/protocol"
)

func peers(n int) []protocol.NodeID {
	out := make([]protocol.NodeID, n)
	for i := range out {
		out[i] = protocol.NodeID(i)
	}
	return out
}

// wire delivers lease messages between a set of tables instantly.
type wire struct {
	tables map[protocol.NodeID]*lease.Table
}

func (w *wire) route(msgs []protocol.Envelope) {
	for len(msgs) > 0 {
		env := msgs[0]
		msgs = msgs[1:]
		if t, ok := w.tables[env.To]; ok {
			more, handled := t.Step(env.From, env.Msg)
			if !handled {
				panic("non-lease message on lease wire")
			}
			msgs = append(msgs, more...)
		}
	}
}

func newMesh(n, duration, renew int) (*wire, []*lease.Table) {
	w := &wire{tables: make(map[protocol.NodeID]*lease.Table)}
	ps := peers(n)
	tables := make([]*lease.Table, n)
	for i := range tables {
		tables[i] = lease.NewTable(lease.Config{
			Self: ps[i], Peers: ps, DurationTicks: duration, RenewTicks: renew,
		})
		w.tables[ps[i]] = tables[i]
	}
	return w, tables
}

func tickAll(w *wire, tables []*lease.Table) {
	for _, t := range tables {
		w.route(t.Tick(0))
	}
}

func TestQuorumLeaseEstablishes(t *testing.T) {
	w, tables := newMesh(3, 20, 5)
	for i := 0; i < 6; i++ {
		tickAll(w, tables)
	}
	for i, tab := range tables {
		if !tab.HasQuorumLease() {
			t.Fatalf("table %d: no quorum lease after grants (held=%d)", i, tab.HeldCount())
		}
		if got := len(tab.Holders()); got != 3 {
			t.Fatalf("table %d: %d active holders, want 3", i, got)
		}
	}
}

func TestLeaseExpiresWithoutRenewal(t *testing.T) {
	w, tables := newMesh(3, 10, 4)
	for i := 0; i < 5; i++ {
		tickAll(w, tables)
	}
	if !tables[1].HasQuorumLease() {
		t.Fatal("lease should be active")
	}
	// Stop routing grants to/from table 1 (its peers keep ticking).
	delete(w.tables, 1)
	for i := 0; i < 15; i++ {
		tickAll(w, tables[:1])
		tickAll(w, tables[2:])
		// Table 1 ticks alone; its messages go nowhere.
		tables[1].Tick(0)
	}
	if tables[1].HasQuorumLease() {
		t.Fatal("lease should have expired without renewals")
	}
	// The crashed holder must fall out of its grantors' holder sets so it
	// stops blocking commits.
	for _, id := range []int{0, 2} {
		for _, h := range tables[id].Holders() {
			if h == 1 {
				t.Fatalf("table %d still counts the dead holder", id)
			}
		}
	}
}

func TestGranteeRestriction(t *testing.T) {
	w := &wire{tables: make(map[protocol.NodeID]*lease.Table)}
	ps := peers(3)
	tables := make([]*lease.Table, 3)
	for i := range tables {
		cfg := lease.Config{Self: ps[i], Peers: ps, DurationTicks: 20, RenewTicks: 5}
		cfg.Grantees = []protocol.NodeID{2} // leader-lease style: only node 2
		tables[i] = lease.NewTable(cfg)
		w.tables[ps[i]] = tables[i]
	}
	for i := 0; i < 6; i++ {
		tickAll(w, tables)
	}
	if !tables[2].HasQuorumLease() {
		t.Fatal("designated grantee should hold a quorum lease")
	}
	if tables[0].HasQuorumLease() {
		t.Fatal("non-grantee should hold no quorum lease")
	}
}

// TestStaleGrantReplayIgnored is the regression for the replayed-grant
// hole: a delayed or duplicated MsgGrant whose Seq is at or below the
// latest seen from that grantor must not re-validate an expired lease.
func TestStaleGrantReplayIgnored(t *testing.T) {
	ps := peers(3)
	h := lease.NewTable(lease.Config{
		Self: 1, Peers: ps, DurationTicks: 10, RenewTicks: 4, SkewMarginTicks: 2,
	})
	acks, _ := h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 5})
	if len(acks) != 1 {
		t.Fatal("fresh grant should be acked")
	}
	// Trusted until receipt + duration − margin = tick 8, exclusive.
	for h.Now() < 7 {
		h.Tick(0)
	}
	if h.HeldCount() != 2 {
		t.Fatal("lease should be trusted through tick 7")
	}
	for h.Now() < 12 {
		h.Tick(0)
	}
	if h.HeldCount() != 1 {
		t.Fatal("lease should have expired")
	}
	// An older grant arriving late must be dropped unacked.
	if acks, _ = h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 4}); len(acks) != 0 || h.HeldCount() != 1 {
		t.Fatal("stale grant re-validated an expired lease")
	}
	// An exact replay of the latest grant is stale too.
	if acks, _ = h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 5}); len(acks) != 0 || h.HeldCount() != 1 {
		t.Fatal("replayed grant re-validated an expired lease")
	}
	// A genuinely newer grant still works.
	if acks, _ = h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 6}); len(acks) != 1 || h.HeldCount() != 2 {
		t.Fatal("fresh grant should re-establish the lease")
	}
}

// TestGuardBandTrustEndsBeforeHonor pins the asymmetric windows: the
// holder trusts receipt + Duration − margin, the grantor honors send +
// Duration — even when the grant's ack never arrives.
func TestGuardBandTrustEndsBeforeHonor(t *testing.T) {
	ps := peers(2)
	mk := func(self protocol.NodeID) *lease.Table {
		return lease.NewTable(lease.Config{
			Self: self, Peers: ps, DurationTicks: 20, RenewTicks: 5, SkewMarginTicks: 4,
		})
	}
	g, h := mk(0), mk(1)
	deliver := func(envs []protocol.Envelope, to *lease.Table) []protocol.Envelope {
		var out []protocol.Envelope
		for _, env := range envs {
			more, ok := to.Step(env.From, env.Msg)
			if !ok {
				t.Fatal("non-lease message on lease wire")
			}
			out = append(out, more...)
		}
		return out
	}
	// Bootstrap: first contact is a full grant; its ack keeps renewals full.
	h.Tick(0)
	deliver(deliver(g.Tick(0), h), g)
	var grant []protocol.Envelope
	for i := 0; i < 5; i++ {
		h.Tick(0)
		grant = g.Tick(0)
	}
	if len(grant) != 1 {
		t.Fatalf("expected one renewal grant, got %d msgs", len(grant))
	}
	if d := grant[0].Msg.(*lease.MsgGrant).Duration; d != 20 {
		t.Fatalf("renewal after an ack should carry the full duration, got %d", d)
	}
	deliver(grant, h) // the ack is dropped: honor must anchor at send
	// The grantor honors the unacked grant for the full duration from send
	// (tick 6): through tick 25 inclusive.
	for g.Now() < 25 {
		g.Tick(0)
	}
	if len(g.Holders()) != 2 {
		t.Fatal("grantor must honor an unacked grant through send+Duration")
	}
	g.Tick(0)
	if len(g.Holders()) != 1 {
		t.Fatal("grantor must drop the holder after send+Duration")
	}
	// The holder's trust ended four ticks earlier on its own clock: at
	// receipt 6 + 20 − 4 = tick 22.
	for h.Now() < 21 {
		h.Tick(0)
	}
	if h.HeldCount() != 2 {
		t.Fatal("holder must trust through receipt+Duration-margin-1")
	}
	h.Tick(0)
	if h.HeldCount() != 1 {
		t.Fatal("holder must stop trusting at receipt+Duration-margin")
	}
}

// skewViolationOccurs runs a grantor whose clock ticks 2× the holder's,
// cuts the link mid-run, and reports whether the holder ever trusted a
// lease the grantor had stopped honoring — the stale-read window.
func skewViolationOccurs(t *testing.T, unsafe bool) bool {
	t.Helper()
	ps := peers(2)
	mk := func(self protocol.NodeID) *lease.Table {
		return lease.NewTable(lease.Config{
			Self: self, Peers: ps, DurationTicks: 20, RenewTicks: 5,
			// For a holder up to 2× slower, safety needs
			// margin ≥ D·(1−1/2) + δ/2 = 10 + δ/2.
			SkewMarginTicks: 12,
			UnsafeNoGuard:   unsafe,
		})
	}
	g, h := mk(0), mk(1)
	route := func(envs []protocol.Envelope, to *lease.Table) []protocol.Envelope {
		var out []protocol.Envelope
		for _, env := range envs {
			more, ok := to.Step(env.From, env.Msg)
			if !ok {
				t.Fatal("non-lease message on lease wire")
			}
			out = append(out, more...)
		}
		return out
	}
	linked := true
	violated := false
	for round := 0; round < 100; round++ {
		if round == 10 {
			linked = false
		}
		for i := 0; i < 2; i++ { // grantor's clock runs 2× the holder's
			envs := g.Tick(0)
			if linked {
				route(route(envs, h), g)
			}
		}
		envs := h.Tick(0)
		if linked {
			route(route(envs, g), h)
		}
		if h.HeldCount() == 2 && len(g.Holders()) != 2 {
			violated = true
		}
	}
	if h.HeldCount() == 2 {
		t.Fatal("holder lease should eventually expire")
	}
	return violated
}

func TestSkewedClockSafeWithGuardBand(t *testing.T) {
	if skewViolationOccurs(t, false) {
		t.Fatal("holder trusted a lease the grantor no longer honored despite the guard band")
	}
}

// TestSkewedClockUnsafeWithoutGuardBand keeps the skew test honest: with
// the guard band reverted the same schedule MUST open a stale-trust
// window. If it stops doing so, the safe run's pass means nothing.
func TestSkewedClockUnsafeWithoutGuardBand(t *testing.T) {
	if !skewViolationOccurs(t, true) {
		t.Fatal("sabotage run found no stale-trust window — the skew test has no teeth")
	}
}

// TestHolderRecoversAfterProbation: a holder cut off long enough to be
// demoted to probes reacquires its quorum lease within two renew periods
// of healing (probe → ack → full grant).
func TestHolderRecoversAfterProbation(t *testing.T) {
	w, tables := newMesh(3, 20, 5)
	for i := 0; i < 6; i++ {
		tickAll(w, tables)
	}
	if !tables[1].HasQuorumLease() {
		t.Fatal("lease should be active")
	}
	delete(w.tables, 1)
	for i := 0; i < 30; i++ {
		tickAll(w, tables[:1])
		tickAll(w, tables[2:])
		tables[1].Tick(0)
	}
	if tables[1].HasQuorumLease() {
		t.Fatal("cut-off holder should have expired")
	}
	for _, id := range []int{0, 2} {
		if len(tables[id].Holders()) != 2 {
			t.Fatalf("table %d should honor only the live pair, got %d holders", id, len(tables[id].Holders()))
		}
	}
	w.tables[1] = tables[1]
	for i := 0; i < 11; i++ {
		tickAll(w, tables)
	}
	if !tables[1].HasQuorumLease() {
		t.Fatal("healed holder should reacquire its quorum lease")
	}
}

// TestActivationFloor pins rule 4: the floor is the Accepted index of the
// grant that (re)activates a lease, binds while that lease is held, and is
// not raised by renewals of a lease held without interruption.
func TestActivationFloor(t *testing.T) {
	h := lease.NewTable(lease.Config{
		Self: 1, Peers: peers(3), DurationTicks: 10, RenewTicks: 4, SkewMarginTicks: 2,
	})
	h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 1, Accepted: 50})
	if got := h.Floor(); got != 50 {
		t.Fatalf("first grant: floor %d, want 50", got)
	}
	h.Tick(0)
	h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 2, Accepted: 90})
	if got := h.Floor(); got != 50 {
		t.Fatalf("renewal of a held lease moved the floor to %d", got)
	}
	for i := 0; i < 12; i++ {
		h.Tick(0)
	}
	if got := h.Floor(); got != 0 {
		t.Fatalf("expired lease still imposes floor %d", got)
	}
	// A probe conveys no trust; the full grant after it is an activation.
	h.Step(0, &lease.MsgGrant{Duration: 0, Seq: 3, Accepted: 95})
	if h.HeldCount() != 1 || h.Floor() != 0 {
		t.Fatal("probe must neither activate the lease nor impose a floor")
	}
	h.Step(0, &lease.MsgGrant{Duration: 10, Seq: 4, Accepted: 97})
	if got := h.Floor(); got != 97 {
		t.Fatalf("re-grant after expiry: floor %d, want 97", got)
	}
	// The floor is the maximum over the held leases.
	h.Step(2, &lease.MsgGrant{Duration: 10, Seq: 1, Accepted: 120})
	if got := h.Floor(); got != 120 {
		t.Fatalf("two held leases: floor %d, want 120", got)
	}
}
