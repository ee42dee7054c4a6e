package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftpaxos/internal/cluster"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// powerLossStore is a deferred-sync store over Mem that remembers what a
// power loss would keep: appends stay buffered until Sync, which can be
// made to fail, and afterPowerLoss rebuilds the store from the synced
// prefix alone (hard state is a separate, always-synced record).
type powerLossStore struct {
	*storage.Mem
	failSync atomic.Bool
	mu       sync.Mutex
	synced   int64
}

func (s *powerLossStore) AppendBuffered(ents []protocol.Entry) error {
	if len(ents) > 0 {
		s.mu.Lock()
		s.synced = min(s.synced, ents[0].Index-1) // an overwrite unsyncs the suffix
		s.mu.Unlock()
	}
	return s.Mem.Append(ents)
}

func (s *powerLossStore) Append(ents []protocol.Entry) error {
	if err := s.AppendBuffered(ents); err != nil {
		return err
	}
	return s.Sync()
}

func (s *powerLossStore) Sync() error {
	if s.failSync.Load() {
		return errDiskDown
	}
	last, err := s.Mem.LastIndex()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.synced = last
	s.mu.Unlock()
	return nil
}

func (s *powerLossStore) afterPowerLoss(t *testing.T) *storage.Mem {
	t.Helper()
	m := storage.NewMem()
	hs, _ := s.Mem.HardState()
	if err := m.SaveHardState(hs); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	synced := s.synced
	s.mu.Unlock()
	if synced > 0 {
		ents, err := s.Mem.Entries(1, synced)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Append(ents); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func buildSelfAckCluster(t *testing.T, stores []storage.Store, fn *filterNet, active protocol.NodeID, snapEvery int) ([]*cluster.Node, func()) {
	t.Helper()
	peers := []protocol.NodeID{0, 1, 2}
	nodes := make([]*cluster.Node, 3)
	for i := range peers {
		nodes[i] = cluster.New(cluster.Config{
			Engine: raftstar.New(raftstar.Config{
				ID: peers[i], Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 23,
				Passive: peers[i] != active, ReadIndex: true,
			}),
			Transport:        fn,
			Stable:           stores[i],
			TickInterval:     2 * time.Millisecond,
			SnapshotInterval: snapEvery,
		})
		fn.inner.Listen(peers[i], nodes[i].HandleMessage)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	return nodes, func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}
}

// TestLeaderTailLossKeepsAckedWrites is the crash half of the commit rule:
// the leader's copy counts only once its own sync proved it durable, so a
// full-cluster kill that loses every entry the leader never synced keeps
// every write a client was told succeeded. The leader's syncs fail
// throughout: writes commit on the two followers' durable copies. Then one
// follower is cut off, and writes — which the leader and the remaining
// follower alone could acknowledge only by counting the leader's unsynced
// copy — must not be acked. After the kill the cut-off follower, holding
// none of them, leads: any such write acked would be gone.
func TestLeaderTailLossKeepsAckedWrites(t *testing.T) {
	lead := &powerLossStore{Mem: storage.NewMem()}
	stores := []storage.Store{lead, storage.NewMem(), storage.NewMem()}
	fn := &filterNet{inner: transport.NewChanNetwork()}
	nodes, stop := buildSelfAckCluster(t, stores, fn, 0, 0)
	leader := waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leader.Put(ctx, "warm", []byte("v")); err != nil {
		t.Fatal(err)
	}

	var acked []string
	lead.failSync.Store(true)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("quorum-%d", i)
		if err := leader.Put(ctx, key, []byte(key)); err != nil {
			t.Fatalf("put %s on the followers' durable copies: %v", key, err)
		}
		acked = append(acked, key)
	}

	fn.SetDrop(func(from, to protocol.NodeID, _ protocol.Message) bool { return from == 2 || to == 2 })
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			short, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
			defer cancel()
			if leader.Put(short, key, []byte(key)) == nil {
				mu.Lock()
				acked = append(acked, key)
				mu.Unlock()
			}
		}(fmt.Sprintf("minority-%d", i))
	}
	wg.Wait()
	if last, _ := stores[1].LastIndex(); last <= 4 {
		t.Fatalf("follower 1 holds %d entries: the cut-off writes never replicated, test setup broken", last)
	}
	stop()

	// Power loss at the leader: only what it synced survives.
	stores[0] = lead.afterPowerLoss(t)
	fn = &filterNet{inner: transport.NewChanNetwork()}
	nodes, stop = buildSelfAckCluster(t, stores, fn, 2, 0)
	defer stop()
	if l := waitLeader(t, nodes); l.ID() != 2 {
		t.Fatalf("leader after restart = %d, want the cut-off follower 2", l.ID())
	}
	for _, key := range acked {
		got, err := nodes[2].Get(ctx, key)
		if err != nil || string(got) != key {
			t.Fatalf("acked write %s after the leader lost its unsynced tail: %q, %v", key, got, err)
		}
	}
}

// snapStore is Mem with a WAL that can be made to fail; its snapshot and
// compaction half keeps working, so the applier is free to save.
type snapStore struct {
	*storage.Mem
	failing atomic.Bool
}

func (s *snapStore) Append(ents []protocol.Entry) error {
	if s.failing.Load() {
		return errDiskDown
	}
	return s.Mem.Append(ents)
}

// TestSnapshotWaitsForDurableWAL pins the applier's half of the rule:
// commits reach it without waiting on this replica's own WAL, so it must
// not save a snapshot of state its WAL does not hold — a restart would
// anchor the engine below a state machine already ahead of it. A follower
// whose WAL fails keeps applying what the healthy quorum commits of the
// entries it accepted — past several snapshot intervals, until the
// leader's pipelining cap stops feeding a replica that never acks — and
// saves nothing above its durable log; once its disk heals and it
// restarts, it converges.
func TestSnapshotWaitsForDurableWAL(t *testing.T) {
	const every = 5
	broken := &snapStore{Mem: storage.NewMem()}
	stores := []storage.Store{storage.NewMem(), broken, storage.NewMem()}
	fn := &filterNet{inner: transport.NewChanNetwork()}
	nodes, stop := buildSelfAckCluster(t, stores, fn, 0, every)
	leader := waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leader.Put(ctx, "warm", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, nodes[1], "warm", "v")

	broken.failing.Store(true)
	base := nodes[1].Store().AppliedIndex()
	const writes = 6 * every
	for i := 0; i < writes; i++ {
		if err := leader.Put(ctx, fmt.Sprintf("k%d", i%4), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for nodes[1].Store().AppliedIndex() < base+2*every {
		if time.Now().After(deadline) {
			t.Fatalf("broken follower applied through %d, want past %d", nodes[1].Store().AppliedIndex(), base+2*every)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	last, _ := broken.LastIndex()
	if snap, ok, _ := broken.LatestSnapshot(); ok && snap.Index > last {
		t.Fatalf("snapshot at %d saved above the durable WAL's last index %d", snap.Index, last)
	}

	broken.failing.Store(false)
	fn = &filterNet{inner: transport.NewChanNetwork()}
	nodes, stop = buildSelfAckCluster(t, stores, fn, 0, every)
	defer stop()
	leader = waitLeader(t, nodes)
	if err := leader.Put(ctx, "after", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitApplied(t, nodes[1], "after", "v")
	for i := writes - 4; i < writes; i++ {
		if v, _ := nodes[1].Store().Get(fmt.Sprintf("k%d", i%4)); string(v) != fmt.Sprint(i) {
			t.Fatalf("restarted follower reads k%d = %q, want %d", i%4, v, i)
		}
	}
}

// waitApplied waits until nd's state machine holds key = want.
func waitApplied(t *testing.T, nd *cluster.Node, key, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := nd.Store().Get(key); ok && string(v) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never applied %s = %s", nd.ID(), key, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
