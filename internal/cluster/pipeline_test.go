package cluster_test

import (
	"context"
	"errors"
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

// gateStore delays one node's WAL writes on demand: while armed, every
// AppendBuffered — the persister's write — parks until Release, modelling
// one slow write round: the sabotage the in-order release tests below are
// built on.
type gateStore struct {
	storage.Store
	mu      sync.Mutex
	gate    chan struct{}
	blocked atomic.Int64 // appends that have parked on the gate
}

func (g *gateStore) Arm() {
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.mu.Unlock()
}

func (g *gateStore) Release() {
	g.mu.Lock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
	g.mu.Unlock()
}

func (g *gateStore) AppendBuffered(entries []protocol.Entry) error {
	g.mu.Lock()
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		g.blocked.Add(1)
		<-gate
	}
	return g.Store.AppendBuffered(entries)
}

func buildPipelineCluster(t *testing.T, stores []storage.Store, fn *filterNet, active protocol.NodeID) ([]*cluster.Node, func()) {
	t.Helper()
	peers := []protocol.NodeID{0, 1, 2}
	nodes := make([]*cluster.Node, 3)
	for i := range peers {
		nodes[i] = cluster.New(cluster.Config{
			Engine: raftstar.New(raftstar.Config{
				ID: peers[i], Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 21,
				Passive: peers[i] != active, ReadIndex: true,
			}),
			Transport:    fn,
			Stable:       stores[i],
			TickInterval: 2 * time.Millisecond,
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

// waitBlocked waits until at least one Append has parked on the gate.
func waitBlocked(t *testing.T, g *gateStore) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.blocked.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gated store never saw a parked append")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatedPersistWithholdsLaterAcks pins the pipeline's in-order release
// guarantee on a follower: when one round's WAL write stalls, no barrier
// message from ANY later staged round may escape — the staged rounds
// behind the stall hold their acks even as the rest of the cluster keeps
// committing through the healthy quorum. Once the write completes, the
// backlog drains and the store converges to the leader's log.
func TestGatedPersistWithholdsLaterAcks(t *testing.T) {
	gated := &gateStore{Store: storage.NewMem()}
	stores := []storage.Store{storage.NewMem(), gated, storage.NewMem()}
	var acks atomic.Int64
	fn := &filterNet{inner: transport.NewChanNetwork()}
	fn.SetDrop(func(from, _ protocol.NodeID, msg protocol.Message) bool {
		if from == 1 {
			if _, ok := msg.(protocol.BarrierMessage); ok {
				acks.Add(1)
			}
		}
		return false
	})
	nodes, stop := buildPipelineCluster(t, stores, fn, 0)
	defer stop()
	defer gated.Release() // a parked persister would hang stop
	leader := waitLeader(t, nodes)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leader.Put(ctx, "warm", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Stall node 1's WAL, then write through the healthy quorum {0, 2}.
	// The replicated entry parks node 1's persister inside Append.
	gated.Arm()
	if err := leader.Put(ctx, "stalled", []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitBlocked(t, gated)

	// Everything counted from here on is an ack staged at or after the
	// stalled round. Keep the cluster busy: more commits, heartbeats, and
	// retransmissions all land on node 1 while its WAL is stuck.
	base := acks.Load()
	for i := 0; i < 3; i++ {
		if err := leader.Put(ctx, fmt.Sprintf("later-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(250 * time.Millisecond)
	if got := acks.Load(); got != base {
		t.Fatalf("%d barrier messages escaped node 1 while its WAL write was stalled", got-base)
	}

	// Heal: the withheld backlog must release in order and the gated store
	// must converge to the full log.
	gated.Release()
	deadline := time.Now().Add(10 * time.Second)
	for {
		leadLast, _ := stores[0].LastIndex()
		gatedLast, _ := gated.Store.LastIndex()
		if gatedLast >= leadLast && leadLast > 0 && acks.Load() > base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gated store never converged: at %d, leader at %d, acks resumed=%v",
				gatedLast, leadLast, acks.Load() > base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatedLeaderCommitsOnDurableQuorum pins the commit rule on the
// runtime: a write commits once a quorum of replicas holds it durably, and
// the leader's copy is one vote among three, counted only once its own
// WAL round completes. A stalled leader WAL delays nothing while both
// followers are healthy, a stalled leader plus one stalled follower holds
// the write until either recovers, and two stalled followers hold it
// although the leader's disk is free.
func TestGatedLeaderCommitsOnDurableQuorum(t *testing.T) {
	cases := []struct {
		name    string
		gated   []protocol.NodeID
		release protocol.NodeID // the gate whose release lets the put complete; None: it completes gated
	}{
		{"leader", []protocol.NodeID{0}, protocol.None},
		{"leader+follower/release-leader", []protocol.NodeID{0, 1}, 0},
		{"leader+follower/release-follower", []protocol.NodeID{0, 1}, 1},
		{"followers", []protocol.NodeID{1, 2}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gates := make([]*gateStore, 3)
			stores := make([]storage.Store, 3)
			for i := range gates {
				gates[i] = &gateStore{Store: storage.NewMem()}
				stores[i] = gates[i]
			}
			fn := &filterNet{inner: transport.NewChanNetwork()}
			nodes, stop := buildPipelineCluster(t, stores, fn, 0)
			defer stop()
			defer func() {
				for _, g := range gates {
					g.Release() // a parked persister would hang Stop
				}
			}()
			leader := waitLeader(t, nodes)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := leader.Put(ctx, "warm", []byte("v")); err != nil {
				t.Fatal(err)
			}

			for _, id := range tc.gated {
				gates[id].Arm()
			}
			done := make(chan error, 1)
			go func() { done <- leader.Put(ctx, "held", []byte("v")) }()
			for _, id := range tc.gated {
				waitBlocked(t, gates[id])
			}

			if tc.release != protocol.None {
				select {
				case err := <-done:
					t.Fatalf("put completed without a durable quorum (err=%v)", err)
				case <-time.After(300 * time.Millisecond):
				}
				gates[tc.release].Release()
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("put never completed on a durable quorum")
			}
		})
	}
}

// hsErrStore simulates an unreadable hard-state record: HardState always
// errors while the rest of the store works, and every hard-state write —
// SaveHardState, or SyncBatch with save set — is counted so the test can
// prove the node never overwrote the evidence.
type hsErrStore struct {
	storage.Store
	saves atomic.Int64
}

var errHSUnreadable = errors.New("hard state unreadable")

func (s *hsErrStore) HardState() (storage.HardState, error) {
	return storage.HardState{}, errHSUnreadable
}

func (s *hsErrStore) SaveHardState(hs storage.HardState) error {
	s.saves.Add(1)
	return s.Store.SaveHardState(hs)
}

func (s *hsErrStore) SyncBatch(hs storage.HardState, save bool) error {
	if save {
		s.saves.Add(1)
	}
	return s.Store.SyncBatch(hs, save)
}

// TestUnreadableHardStateRefusesToStart pins the recovery contract: a
// store that cannot READ its recorded hard state is not a fresh store,
// and booting from a zero state could double-vote or regress a promise.
// The node must refuse to participate — and, critically, must never save
// a new hard state over the unreadable record — while still shutting
// down cleanly.
func TestUnreadableHardStateRefusesToStart(t *testing.T) {
	st := &hsErrStore{Store: storage.NewMem()}
	net := transport.NewChanNetwork()
	node := cluster.New(cluster.Config{
		Engine: raftstar.New(raftstar.Config{
			ID: 0, Peers: []protocol.NodeID{0}, ElectionTicks: 5, HeartbeatTicks: 1, Seed: 7,
		}),
		Transport:    net,
		Stable:       st,
		TickInterval: time.Millisecond,
	})
	net.Listen(0, node.HandleMessage)
	node.Start()

	// A healthy single-node cluster elects itself within a few ticks;
	// give it ample time to prove it never will.
	time.Sleep(100 * time.Millisecond)
	if node.IsLeader() {
		t.Fatal("node took leadership despite an unreadable hard state")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := node.Put(ctx, "k", []byte("v")); err == nil {
		t.Fatal("put succeeded on a node that refused to start")
	}
	if got := st.saves.Load(); got != 0 {
		t.Fatalf("refused node overwrote the unreadable hard state %d times", got)
	}
	node.Stop()
}
