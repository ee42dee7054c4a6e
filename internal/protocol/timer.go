package protocol

import "math/rand"

// Timer is the tick clock of the leader-based engines (Raft, Raft*,
// MultiPaxos): a leader's heartbeat every heartbeat ticks (default 1), and
// anyone else's campaign once a timeout drawn from [election, 2·election)
// (default 10) passes without a Reset. The engine decides what a heartbeat
// and a campaign are; the jitter RNG, seeded by seed and id, draws for the
// timeout and nothing else.
type Timer struct {
	rng                         *rand.Rand
	election, heartbeat         int
	passive                     bool // never campaigns on its own
	elapsed, timeout, sinceBeat int
}

// What Tick says is due.
const (
	Idle = iota
	Heartbeat
	Campaign
)

// NewTimer builds replica id's clock.
func NewTimer(seed int64, id NodeID, election, heartbeat int, passive bool) Timer {
	t := Timer{rng: rand.New(rand.NewSource(seed ^ int64(id)<<17)), election: 10, heartbeat: 1, passive: passive}
	if election > 0 {
		t.election = election
	}
	if heartbeat > 0 {
		t.heartbeat = heartbeat
	}
	t.Reset()
	return t
}

// Reset restarts the election timeout with a fresh jitter draw.
func (t *Timer) Reset() { t.elapsed, t.timeout = 0, t.election+t.rng.Intn(t.election) }

// Lead restarts the heartbeat period; BeatSoon makes the next tick one.
func (t *Timer) Lead()     { t.sinceBeat = 0 }
func (t *Timer) BeatSoon() { t.sinceBeat = t.heartbeat }

// Election is the base election timeout in ticks.
func (t *Timer) Election() int { return t.election }

// Tick advances the clock one tick and says what is due.
func (t *Timer) Tick(leader bool) int {
	switch {
	case leader:
		if t.sinceBeat++; t.sinceBeat >= t.heartbeat {
			t.sinceBeat = 0
			return Heartbeat
		}
	case !t.passive:
		if t.elapsed++; t.elapsed >= t.timeout {
			return Campaign
		}
	}
	return Idle
}
