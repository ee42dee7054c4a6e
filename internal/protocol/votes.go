package protocol

import "math/bits"

// Votes is the one commit counter of every engine: who holds each index
// above the commit point durably at the proposer's current term or ballot,
// as a voter bitmask per index (bit i is Peers[i], so at most 63
// replicas). The proposer's own copy is a vote like any other, entering
// when its self-addressed ack — released by the runtime once the round it
// rode is durable — comes back. Raft and Raft* vote on ranges (a match
// index votes for every index up to it: the prefix-closed case, where a
// quorum at one index is a quorum beneath it); MultiPaxos and Mencius vote
// per index, and choose out of order.
//
// Four rules live here once: the Hooks.MustAck filter and the quorum test
// (quorate), the lazy once-per-index decision to ask for the proposer's
// own vote (Decisive), and the re-evaluation after the set MustAck names
// shrank (Recheck, or Top for range votes).
type Votes struct {
	peers  []NodeID
	self   uint64 // this replica's bit
	quorum int
	must   func(NodeID) []NodeID
	// masks[head+k] is index base+1+k, shut when it takes no votes (never
	// proposed here at this term or ballot, or chosen); indexes at or below
	// base are decided. The window moves up the backing array and is copied
	// down once it passed half of it.
	base  int64
	head  int
	masks []uint64
	asked int64 // the proposer's own vote was asked for through asked
}

const shut = uint64(1) << 63

// NewVotes builds replica self's counter; must is Hooks.MustAck.
func NewVotes(self NodeID, peers []NodeID, must func(NodeID) []NodeID) Votes {
	if len(peers) > 63 {
		panic("protocol: more than 63 replicas")
	}
	v := Votes{peers: peers, quorum: Quorum(len(peers)), must: must}
	v.self = v.bit(self)
	return v
}

func (v *Votes) bit(p NodeID) uint64 {
	for i, q := range v.peers {
		if q == p {
			return 1 << i
		}
	}
	return 0
}

// Reset starts a term or ballot at commit point base: no votes, no asks.
func (v *Votes) Reset(base int64) {
	v.base, v.asked, v.head, v.masks = base, base, 0, v.masks[:0]
}

// Last is the highest index held.
func (v *Votes) Last() int64 { return v.base + int64(len(v.masks)-v.head) }

// open returns index i's votes, false unless it takes votes.
func (v *Votes) open(i int64) (*uint64, bool) {
	if i <= v.base || i > v.Last() {
		return nil, false
	}
	m := &v.masks[v.head+int(i-v.base-1)]
	return m, *m != shut
}

// Open makes index i take votes, from nobody yet (a phase 1 or a Mencius
// revocation re-opens one, taking back an ask that covered it).
func (v *Votes) Open(i int64) {
	if i <= v.base {
		return
	}
	for v.Last() < i {
		v.masks = append(v.masks, shut)
	}
	m, _ := v.open(i)
	*m = 0
	v.asked = min(v.asked, i-1)
}

// Shut closes index i: chosen, it takes no more votes.
func (v *Votes) Shut(i int64) {
	if m, ok := v.open(i); ok {
		*m = shut
	}
}

// Advance drops every index at or below commit.
func (v *Votes) Advance(commit int64) {
	if commit <= v.base {
		return
	}
	v.head += int(min(commit, v.Last()) - v.base)
	v.base, v.asked = commit, max(v.asked, commit)
	if v.head > len(v.masks)/2 {
		v.masks = v.masks[:copy(v.masks, v.masks[v.head:])]
		v.head = 0
	}
}

// Ack records voter's durable copies of the indexes in [lo, hi].
func (v *Votes) Ack(voter NodeID, lo, hi int64) {
	b := v.bit(voter)
	for i := max(lo, v.base+1); i <= min(hi, v.Last()); i++ {
		if m, ok := v.open(i); ok {
			*m |= b
		}
	}
}

// Holds reports whether p's vote for index i is in, and how many are.
func (v *Votes) Holds(i int64, p NodeID) (bool, int) {
	m, ok := v.open(i)
	if !ok {
		return false, 0
	}
	return *m&v.bit(p) != 0, bits.OnesCount64(*m)
}

// Reached reports whether index i takes votes and a quorum of them count.
func (v *Votes) Reached(i int64) bool {
	m, ok := v.open(i)
	return ok && v.quorate(*m)
}

// quorate is the quorum test under Hooks.MustAck: a vote counts once every
// replica the hook names for its voter voted too.
func (v *Votes) quorate(m uint64) bool {
	if bits.OnesCount64(m) < v.quorum || v.must == nil {
		return bits.OnesCount64(m) >= v.quorum
	}
	counted := 0
voters:
	for i, p := range v.peers {
		if m&(1<<i) == 0 {
			continue
		}
		for _, h := range v.must(p) {
			if m&v.bit(h) == 0 {
				continue voters
			}
		}
		counted++
	}
	return counted >= v.quorum
}

// Decisive reports whether the proposer's own vote would bring index i to
// a counted quorum and was not asked for yet — the lazy self-ack, asked for
// only when it is what the index waits for, once per index (Ask).
func (v *Votes) Decisive(i int64) bool {
	m, ok := v.open(i)
	return ok && i > v.asked && *m&v.self == 0 && v.quorate(*m|v.self)
}

// ToAsk appends to dst, in order, the indexes taking votes that an ask
// would newly cover.
func (v *Votes) ToAsk(dst []int64) []int64 {
	for i := v.asked + 1; i <= v.Last(); i++ {
		if m, ok := v.open(i); ok && *m&v.self == 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// Ask records that the proposer's own vote was asked for every index held.
func (v *Votes) Ask() { v.asked = max(v.asked, v.Last()) }

// Top is the highest index below which every index holds a counted quorum
// under range votes — with the proposer's own vote on every index when self
// is set.
func (v *Votes) Top(self bool) int64 {
	var add uint64
	if self {
		add = v.self
	}
	i := v.base
	for m, ok := v.open(i + 1); ok && v.quorate(*m|add); m, ok = v.open(i + 1) {
		i++
	}
	return i
}

// Recheck re-evaluates every index after the set Hooks.MustAck names
// shrank: it appends those now reached to dst and reports whether the
// proposer's own vote became decisive for any.
func (v *Votes) Recheck(dst []int64) ([]int64, bool) {
	ask := false
	for i := v.base + 1; i <= v.Last(); i++ {
		if v.Reached(i) {
			dst = append(dst, i)
		} else {
			ask = ask || v.Decisive(i)
		}
	}
	return dst, ask
}
