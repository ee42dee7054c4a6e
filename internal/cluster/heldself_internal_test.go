package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// ackMsg stands in for an engine's self-addressed prefix ack: asked is the
// index the engine asked for, covered the claim the driver raised it to.
type ackMsg struct{ asked, covered int64 }

func (*ackMsg) WireSize() int { return 16 }

func (*ackMsg) RequiresBarrier() {}

func (m *ackMsg) CoverDurable(last int64) { m.covered = max(m.covered, last) }

var errAppendDown = errors.New("append down")

// drainStore is Mem whose append fails while it would write index failAt,
// and which tracks the synced watermark: everything a successful Append
// wrote (plain variant) or everything buffered before a Sync (deferred
// variant, bufferedDrainStore).
type drainStore struct {
	*storage.Mem
	mu     sync.Mutex
	failAt int64
	synced int64
}

func (s *drainStore) write(ents []protocol.Entry) error {
	s.mu.Lock()
	failAt := s.failAt
	s.mu.Unlock()
	for _, e := range ents {
		if e.Index == failAt {
			return errAppendDown
		}
	}
	return s.Mem.Append(ents)
}

func (s *drainStore) sync() {
	last, _ := s.Mem.LastIndex()
	s.mu.Lock()
	s.synced = last
	s.mu.Unlock()
}

func (s *drainStore) Append(ents []protocol.Entry) error {
	if err := s.write(ents); err != nil {
		return err
	}
	s.sync()
	return nil
}

func (s *drainStore) setFailAt(i int64) {
	s.mu.Lock()
	s.failAt = i
	s.mu.Unlock()
}

func (s *drainStore) durable() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.synced
}

type bufferedDrainStore struct{ *drainStore }

func (s bufferedDrainStore) AppendBuffered(ents []protocol.Entry) error { return s.write(ents) }

func (s bufferedDrainStore) Sync() error { s.sync(); return nil }

// TestHeldSelfAckWaitsForItsOwnDurablePoint drives processRounds by hand
// through drains whose later round fails its append. A self-ack held by a
// failed round must not ride the durable point of the rounds before it —
// its entry went to the redo batch, not to disk — and is handed back only
// once a later drain appends the redo and syncs. A self-ack held by an
// earlier drain does ride the next durable point, since that drain's first
// round appends the redo before the sync. Every ack handed back claims
// exactly the store's synced watermark (prefixAck): no more, and
// no less than it.
func TestHeldSelfAckWaitsForItsOwnDurablePoint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(*drainStore) storage.Store
	}{
		{"plain", func(s *drainStore) storage.Store { return s }},
		{"deferred", func(s *drainStore) storage.Store { return bufferedDrainStore{s} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &drainStore{Mem: storage.NewMem()}
			n := &Node{cfg: Config{Stable: tc.store(st)}, selfCh: make(chan struct{}, 1)}
			var seq int64
			round := func(index int64) persistJob {
				seq++
				job := persistJob{seq: seq}
				if index > 0 {
					job.entries = []protocol.Entry{{Index: index, Term: 1}}
					job.msgs = []protocol.Envelope{{From: n.id, To: n.id, Msg: &ackMsg{asked: index, covered: index}}}
				}
				return job
			}
			var got []int64
			drain := func(jobs []persistJob, wantBack []int64, wantDurableSeq int64) {
				t.Helper()
				n.processRounds(jobs)
				n.selfMu.Lock()
				back := n.selfMsgs
				n.selfMsgs = nil
				n.selfMu.Unlock()
				var idx []int64
				for _, m := range back {
					a := m.(*ackMsg)
					if a.asked > st.durable() || a.covered != st.durable() {
						t.Fatalf("self-ack for %d handed back claiming %d with the WAL durable through %d",
							a.asked, a.covered, st.durable())
					}
					idx = append(idx, a.asked)
				}
				if fmt.Sprint(idx) != fmt.Sprint(wantBack) {
					t.Fatalf("handed back self-acks %v, want %v", idx, wantBack)
				}
				got = append(got, idx...)
				if d := n.durableSeq.Load(); d != wantDurableSeq {
					t.Fatalf("durable round %d, want %d", d, wantDurableSeq)
				}
			}

			st.setFailAt(2)
			drain([]persistJob{round(1), round(2)}, []int64{1}, 1)
			drain([]persistJob{round(0)}, nil, 1) // the redo fails again
			st.setFailAt(4)
			drain([]persistJob{round(3), round(4)}, []int64{3, 2}, 4)
			st.setFailAt(0)
			drain([]persistJob{round(0)}, []int64{4}, 6)

			if fmt.Sprint(got) != "[1 3 2 4]" || len(n.heldSelf) != 0 || len(n.redo) != 0 {
				t.Fatalf("self-acks %v, held %d, redo %d: want every ack once and nothing left", got, len(n.heldSelf), len(n.redo))
			}
		})
	}
}
