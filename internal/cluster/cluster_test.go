package cluster_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"raftpaxos"
	"raftpaxos/internal/cluster"
	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

func newLiveCluster(t *testing.T, n int, stores []storage.Store) ([]*cluster.Node, func()) {
	t.Helper()
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	net := transport.NewChanNetwork()
	nodes := make([]*cluster.Node, n)
	for i := range peers {
		var st storage.Store
		if stores != nil {
			st = stores[i]
		}
		nodes[i] = cluster.New(cluster.Config{
			Engine: raftstar.New(raftstar.Config{
				ID: peers[i], Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4, Seed: 5,
			}),
			Transport:    net,
			Stable:       st,
			TickInterval: 2 * time.Millisecond,
		})
		net.Listen(peers[i], nodes[i].HandleMessage)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	return nodes, func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		net.Close()
	}
}

func waitLeader(t *testing.T, nodes []*cluster.Node) *cluster.Node {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, nd := range nodes {
			if nd.IsLeader() {
				return nd
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no leader")
	return nil
}

func TestPutGetAcrossNodes(t *testing.T) {
	nodes, stop := newLiveCluster(t, 3, nil)
	defer stop()
	waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := nodes[i%3].Put(ctx, key, []byte(key+"-v")); err != nil {
			t.Fatalf("put: %v", err)
		}
		got, err := nodes[(i+2)%3].Get(ctx, key)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if string(got) != key+"-v" {
			t.Fatalf("get %s = %q", key, got)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	nodes, stop := newLiveCluster(t, 3, nil)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// Before a leader exists, the write parks; the context must free us.
	err := nodes[0].Put(ctx, "k", []byte("v"))
	if err == nil {
		// A leader may have emerged fast enough — that is fine too.
		return
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestStopFailsWaiters(t *testing.T) {
	nodes, stop := newLiveCluster(t, 3, nil)
	waitLeader(t, nodes)
	errCh := make(chan error, 1)
	go func() {
		ctx := context.Background()
		// Repeated puts until Stop lands mid-flight or the loop ends.
		for i := 0; i < 1000; i++ {
			if err := nodes[0].Put(ctx, "k", []byte("v")); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	time.Sleep(20 * time.Millisecond)
	stop()
	select {
	case <-errCh:
		// Either it finished cleanly before the stop or it got ErrStopped;
		// both are acceptable — the point is that it did not hang.
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after Stop")
	}
}

// TestHardStatePersistedAndRestored covers the hard-state bug: the driver
// must persist the engine's real term, vote, and commit index (not a
// zeroed vote), and a restarted node must come back with them so it
// cannot vote twice in a term it already voted in.
func TestHardStatePersistedAndRestored(t *testing.T) {
	stores := []storage.Store{storage.NewMem(), storage.NewMem(), storage.NewMem()}
	nodes, stop := newLiveCluster(t, 3, stores)
	leader := waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leader.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	stop()

	lhs, err := stores[leader.ID()].HardState()
	if err != nil {
		t.Fatal(err)
	}
	if lhs.Term == 0 {
		t.Fatalf("leader hard state lost the term: %+v", lhs)
	}
	if lhs.VotedFor != leader.ID() {
		t.Fatalf("leader hard state lost its vote: VotedFor = %d, want %d", lhs.VotedFor, leader.ID())
	}
	if lhs.Commit < 1 {
		t.Fatalf("leader hard state lost the commit index: %+v", lhs)
	}

	// Restart one replica alone on its old store: the engine must resume
	// at the persisted term with the persisted vote. Passive keeps it from
	// campaigning (which would legitimately advance the term).
	eng := raftstar.New(raftstar.Config{
		ID: leader.ID(), Peers: []protocol.NodeID{0, 1, 2},
		ElectionTicks: 20, HeartbeatTicks: 4, Seed: 5, Passive: true,
	})
	re := cluster.New(cluster.Config{
		Engine:       eng,
		Transport:    transport.NewChanNetwork(),
		Stable:       stores[leader.ID()],
		TickInterval: time.Millisecond,
	})
	re.Start()
	time.Sleep(20 * time.Millisecond)
	re.Stop()
	if eng.Term() != lhs.Term {
		t.Fatalf("restored term = %d, want %d", eng.Term(), lhs.Term)
	}
	if eng.VotedFor() != lhs.VotedFor {
		t.Fatalf("restored vote = %d, want %d", eng.VotedFor(), lhs.VotedFor)
	}
}

// TestClusterRestartPreservesData commits writes on file-backed storage,
// stops the whole cluster, rebuilds every node on its old directory, and
// reads the data back: the restored log and commit index must carry the
// committed state machine across a full restart.
func TestClusterRestartPreservesData(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	open := func() []storage.Store {
		stores := make([]storage.Store, 3)
		for i, d := range dirs {
			fs, err := storage.OpenFile(d)
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = fs
		}
		return stores
	}
	closeAll := func(stores []storage.Store) {
		for _, st := range stores {
			st.Close()
		}
	}

	stores := open()
	nodes, stop := newLiveCluster(t, 3, stores)
	waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := nodes[0].Put(ctx, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every replica must have logged the commits before we pull the plug
	// (the leader replies after a quorum; the slowest follower may lag).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, st := range stores {
			if last, _ := st.LastIndex(); last < 5 {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	closeAll(stores)

	stores = open()
	nodes, stop = newLiveCluster(t, 3, stores)
	defer func() { stop(); closeAll(stores) }()
	waitLeader(t, nodes)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, err := nodes[i%3].Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s after restart: %v", key, err)
		}
		if string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %s after restart = %q", key, got)
		}
	}
	// New writes must extend the restored log, not re-use its indices.
	if err := nodes[0].Put(ctx, "post-restart", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, st := range stores {
		if last, _ := st.LastIndex(); last < 6 {
			t.Fatalf("post-restart write reused restored indices: last = %d", last)
		}
	}
}

// TestSnapshotCompactionBoundsLogAndWAL drives enough writes through a
// snapshotting cluster to cross several snapshot intervals and asserts the
// whole pipeline: snapshots persisted, WAL segments deleted, engine
// in-memory log truncated, and a restart that recovers from snapshot +
// tail instead of full history. It runs every protocol the library builds.
func TestSnapshotCompactionBoundsLogAndWAL(t *testing.T) {
	for _, p := range []raftpaxos.Proto{raftpaxos.ProtoMultiPaxos, raftpaxos.ProtoRaft, raftpaxos.ProtoRaftStar,
		raftpaxos.ProtoRaftStarPQL, raftpaxos.ProtoRaftStarLL, raftpaxos.ProtoRaftStarMencius, raftpaxos.ProtoPaxosPQL} {
		t.Run(p.String(), func(t *testing.T) { snapshotCompaction(t, p) })
	}
}

func snapshotCompaction(t *testing.T, proto raftpaxos.Proto) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	const interval = 50
	open := func() []*storage.File {
		stores := make([]*storage.File, 3)
		for i, d := range dirs {
			fs, err := storage.OpenFileWith(d, storage.Options{SegmentBytes: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = fs
		}
		return stores
	}
	build := func(stores []*storage.File) ([]*cluster.Node, func()) {
		peers := []protocol.NodeID{0, 1, 2}
		net := transport.NewChanNetwork()
		nodes := make([]*cluster.Node, 3)
		for i := range peers {
			nodes[i] = cluster.New(cluster.Config{
				Engine: raftpaxos.NewEngine(raftpaxos.ClusterConfig{
					Protocol: proto, TickInterval: 2 * time.Millisecond,
					ElectionTimeout: 40 * time.Millisecond, HeartbeatInterval: 8 * time.Millisecond, Seed: 5,
				}, peers[i], peers),
				Transport:        net,
				Stable:           stores[i],
				TickInterval:     2 * time.Millisecond,
				SnapshotInterval: interval,
			})
			net.Listen(peers[i], nodes[i].HandleMessage)
		}
		for _, nd := range nodes {
			nd.Start()
		}
		return nodes, func() {
			for _, nd := range nodes {
				nd.Stop()
			}
			net.Close()
		}
	}

	stores := open()
	nodes, stop := build(stores)
	leader := waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const writes = 400
	for i := 0; i < writes; i++ {
		// Recycled keys keep the snapshot small while the log grows.
		if err := leader.Put(ctx, fmt.Sprintf("key-%d", i%16), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the leader's applier to run at least one snapshot round.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := stores[leader.ID()].LatestSnapshot(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot persisted after 400 writes at interval 50")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()

	lst := stores[leader.ID()]
	snap, ok, _ := lst.LatestSnapshot()
	if !ok || snap.Index < interval {
		t.Fatalf("leader snapshot = %+v, ok=%v", snap, ok)
	}
	// Compaction trails the snapshot by one interval of margin.
	if first, _ := lst.FirstIndex(); first != snap.Index-interval+1 {
		t.Fatalf("FirstIndex = %d, want %d (snapshot - interval + 1)", first, snap.Index-interval+1)
	}
	first, _ := lst.FirstIndex()
	last, _ := lst.LastIndex()
	if tail := last - first + 1; tail > 3*interval {
		t.Fatalf("WAL tail = %d entries, want bounded near the interval", tail)
	}
	// The engine drops its prefix when the watermark reaches the event loop
	// over truncCh, after the applier compacted the store; Stop can land in
	// between, so the engine's base may trail the store's by one round.
	eng := leader.Engine().(interface{ LogLen() int })
	if f, ok := eng.(interface{ FirstIndex() int64 }); ok {
		if got := f.FirstIndex(); got < first-interval || got > first {
			t.Fatalf("engine FirstIndex = %d, want within one interval below the storage first %d", got, first)
		}
	}
	if eng.LogLen() > 3*interval {
		t.Fatalf("engine log len = %d after %d writes, want bounded near the interval", eng.LogLen(), writes)
	}
	for _, st := range stores {
		st.Close()
	}

	// Restart: recovery must come from snapshot + tail and serve the data.
	stores = open()
	nodes, stop = build(stores)
	defer func() {
		stop()
		for _, st := range stores {
			st.Close()
		}
	}()
	waitLeader(t, nodes)
	for i := writes - 16; i < writes; i++ {
		key := fmt.Sprintf("key-%d", i%16)
		got, err := nodes[i%3].Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s after restart: %v", key, err)
		}
		if string(got) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("get %s after restart = %q, want val-%d", key, got, i)
		}
	}
	// New writes extend the log above everything restored.
	if err := nodes[0].Put(ctx, "post-restart", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if lastNow, _ := stores[0].LastIndex(); lastNow <= snap.Index {
		t.Fatalf("post-restart write landed below the snapshot: %d <= %d", lastNow, snap.Index)
	}
}

// TestMenciusClusterRestartPreservesData gives the Mencius family the same
// restart guarantee the single-leader engines have (the ROADMAP open
// item): commits on file-backed storage survive a full-cluster restart via
// RestoreHardState/RestoreLog, and new proposals land in fresh slots.
func TestMenciusClusterRestartPreservesData(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	open := func() []storage.Store {
		stores := make([]storage.Store, 3)
		for i, d := range dirs {
			fs, err := storage.OpenFile(d)
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = fs
		}
		return stores
	}
	build := func(stores []storage.Store) ([]*cluster.Node, func()) {
		peers := []protocol.NodeID{0, 1, 2}
		net := transport.NewChanNetwork()
		nodes := make([]*cluster.Node, 3)
		for i := range peers {
			nodes[i] = cluster.New(cluster.Config{
				Engine: mencius.New(mencius.Config{
					ID: peers[i], Peers: peers, HeartbeatTicks: 1, Seed: 5,
				}),
				Transport:    net,
				Stable:       stores[i],
				TickInterval: 2 * time.Millisecond,
			})
			net.Listen(peers[i], nodes[i].HandleMessage)
		}
		for _, nd := range nodes {
			nd.Start()
		}
		return nodes, func() {
			for _, nd := range nodes {
				nd.Stop()
			}
			net.Close()
		}
	}

	stores := open()
	nodes, stop := build(stores)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 6; i++ {
		// Every replica proposes in its own slots — the core Mencius mode.
		if err := nodes[i%3].Put(ctx, fmt.Sprintf("mkey-%d", i), []byte(fmt.Sprintf("mval-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Every store must hold its executed prefix before the plug is pulled.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for i, st := range stores {
			hs, _ := st.HardState()
			if hs.Commit < 6 {
				ok = false
			}
			if last, _ := st.LastIndex(); last < hs.Commit {
				ok = false
			}
			_ = i
		}
		if ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	for _, st := range stores {
		st.Close()
	}

	stores = open()
	nodes, stop = build(stores)
	defer func() {
		stop()
		for _, st := range stores {
			st.Close()
		}
	}()
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("mkey-%d", i)
		got, err := nodes[(i+1)%3].Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s after mencius restart: %v", key, err)
		}
		if string(got) != fmt.Sprintf("mval-%d", i) {
			t.Fatalf("get %s after mencius restart = %q", key, got)
		}
	}
	// Fresh proposals must not collide with restored slots.
	if err := nodes[0].Put(ctx, "post-restart", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := nodes[1].Get(ctx, "post-restart")
	if err != nil || string(got) != "v" {
		t.Fatalf("post-restart write lost: %q, %v", got, err)
	}
}

func TestEntriesPersisted(t *testing.T) {
	stores := []storage.Store{storage.NewMem(), storage.NewMem(), storage.NewMem()}
	nodes, stop := newLiveCluster(t, 3, stores)
	defer stop()
	waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := nodes[0].Put(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Commits reach every store (applied entries are persisted).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, st := range stores {
			if last, _ := st.LastIndex(); last < 5 {
				ok = false
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("entries not persisted on all stores")
}

// testWipedNodeRejoins is the end-to-end acceptance scenario for snapshot
// transfer: a live 3-node cluster commits enough to compact its logs past
// a stopped follower, that follower is rebuilt from nothing (wiped data
// directory → fresh store, fresh engine), and it must rejoin, receive the
// snapshot over the wire, persist it, restore its state machine, and
// converge with the leader — with log replay resuming above the installed
// image rather than from index 1.
func testWipedNodeRejoins(t *testing.T, newEngine func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine) {
	t.Helper()
	const interval = 20
	peers := []protocol.NodeID{0, 1, 2}
	net := transport.NewChanNetwork()
	stores := make([]*storage.Mem, 3)
	nodes := make([]*cluster.Node, 3)
	build := func(i int) {
		stores[i] = storage.NewMem()
		nodes[i] = cluster.New(cluster.Config{
			Engine:           newEngine(peers[i], peers),
			Transport:        net,
			Stable:           stores[i],
			TickInterval:     time.Millisecond,
			SnapshotInterval: interval,
		})
		net.Listen(peers[i], nodes[i].HandleMessage)
	}
	for i := range peers {
		build(i)
		nodes[i].Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
		net.Close()
	}()

	leader := waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := leader.Put(ctx, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	put(0, 100)

	// Stop a follower and record how far its durable log got.
	victim := (leader.ID() + 1) % 3
	nodes[victim].Stop()
	victimLast, _ := stores[victim].LastIndex()

	// Commit until every survivor's compaction base is past the victim's
	// log end: replay alone can no longer catch it up.
	for round := 0; ; round++ {
		put(100+round*50, 100+(round+1)*50)
		stranded := true
		for i, st := range stores {
			if protocol.NodeID(i) == victim {
				continue
			}
			if base, _, _ := st.CompactionBase(); base <= victimLast {
				stranded = false
			}
		}
		if stranded {
			break
		}
		if round > 20 {
			t.Fatal("compaction never passed the stopped follower")
		}
	}

	// Wipe and rebuild the victim: fresh store, fresh engine, same ID.
	build(int(victim))
	nodes[victim].Start()

	// The reborn node must converge to the cluster's applied state.
	deadline := time.Now().Add(30 * time.Second)
	for {
		lead, reborn := leader.Store().AppliedIndex(), nodes[victim].Store().AppliedIndex()
		if reborn >= lead && lead > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reborn node stuck at applied %d, leader at %d", reborn, lead)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// It converged via a wire install, not replay: an image is persisted
	// in the fresh store, the engine's log is anchored above index 1, and
	// the transfer counters saw traffic on both ends.
	if snap, ok, _ := stores[victim].LatestSnapshot(); !ok || snap.Index == 0 {
		t.Fatalf("no snapshot persisted on the reborn node (ok=%v)", ok)
	}
	if base, _, _ := stores[victim].CompactionBase(); base == 0 {
		t.Fatal("reborn node's WAL base never jumped to the installed image")
	}
	if _, _, installs := nodes[victim].SnapshotTransferStats(); installs < 1 {
		t.Fatalf("reborn node reports %d installs, want >= 1", installs)
	}
	var chunks, bytes int64
	for _, nd := range nodes {
		cs, bs, _ := nd.SnapshotTransferStats()
		chunks += cs
		bytes += bs
	}
	if chunks < 1 || bytes < 1 {
		t.Fatalf("no transfer traffic recorded (chunks=%d bytes=%d)", chunks, bytes)
	}

	// Spot-check the replicated data on the reborn node's own store.
	for _, i := range []int{0, 50, 99, 120} {
		want := fmt.Sprintf("val-%d", i)
		got, ok := nodes[victim].Store().Get(fmt.Sprintf("key-%d", i))
		if !ok || string(got) != want {
			t.Fatalf("key-%d on reborn node = %q (ok=%v), want %q", i, got, ok, want)
		}
	}
	// And it participates in new writes.
	if err := leader.Put(ctx, "post-rejoin", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if got, ok := nodes[victim].Store().Get("post-rejoin"); ok && string(got) == "v" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("post-rejoin write never reached the reborn node")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWipedNodeRejoinsRaftStar(t *testing.T) {
	testWipedNodeRejoins(t, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2, Seed: 9,
		})
	})
}

func TestWipedNodeRejoinsRaft(t *testing.T) {
	testWipedNodeRejoins(t, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2, Seed: 9,
		})
	})
}

func TestWipedNodeRejoinsMultiPaxos(t *testing.T) {
	testWipedNodeRejoins(t, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return multipaxos.New(multipaxos.Config{
			ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2, Seed: 9,
		})
	})
}

// lazyTransport breaks the node<->transport construction cycle for the
// TCP test below (the transport needs the node's handler, the node needs
// the transport).
type lazyTransport struct {
	mu sync.RWMutex
	t  transport.Transport
}

func (l *lazyTransport) set(t transport.Transport) { l.mu.Lock(); l.t = t; l.mu.Unlock() }

func (l *lazyTransport) Send(from, to protocol.NodeID, msg protocol.Message) {
	l.mu.RLock()
	t := l.t
	l.mu.RUnlock()
	if t != nil {
		t.Send(from, to, msg)
	}
}

func (l *lazyTransport) Close() error { return nil }

// TestWipedNodeRejoinsOverTCP runs the wiped-node catch-up over the real
// TCP transport: the install messages must survive gob encoding on the
// wire (a registration regression would only show up here, not on the
// in-process channel transport).
func TestWipedNodeRejoinsOverTCP(t *testing.T) {
	cluster.RegisterMessages()
	const interval = 20
	peers := []protocol.NodeID{0, 1, 2}
	addrs := map[protocol.NodeID]string{}
	for _, id := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
	}
	stores := make([]*storage.Mem, 3)
	nodes := make([]*cluster.Node, 3)
	tcps := make([]*transport.TCP, 3)
	build := func(i int) {
		stores[i] = storage.NewMem()
		lazy := &lazyTransport{}
		nodes[i] = cluster.New(cluster.Config{
			Engine: raftstar.New(raftstar.Config{
				ID: peers[i], Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2, Seed: 31,
			}),
			Transport:        lazy,
			Stable:           stores[i],
			TickInterval:     time.Millisecond,
			SnapshotInterval: interval,
		})
		tcp, err := transport.NewTCP(peers[i], addrs, nodes[i].HandleMessage)
		if err != nil {
			t.Fatal(err)
		}
		lazy.set(tcp)
		tcps[i] = tcp
	}
	for i := range peers {
		build(i)
		nodes[i].Start()
	}
	defer func() {
		for i := range nodes {
			nodes[i].Stop()
			tcps[i].Close()
		}
	}()

	leader := waitLeader(t, nodes)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			if err := leader.Put(ctx, fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
	}
	put(0, 80)

	victim := (leader.ID() + 1) % 3
	nodes[victim].Stop()
	tcps[victim].Close()
	victimLast, _ := stores[victim].LastIndex()
	for round := 0; ; round++ {
		put(80+round*40, 80+(round+1)*40)
		base, _, _ := stores[leader.ID()].CompactionBase()
		if base > victimLast {
			break
		}
		if round > 20 {
			t.Fatal("compaction never passed the stopped follower")
		}
	}

	build(int(victim))
	nodes[victim].Start()

	deadline := time.Now().Add(30 * time.Second)
	for {
		lead, reborn := leader.Store().AppliedIndex(), nodes[victim].Store().AppliedIndex()
		if reborn >= lead && lead > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reborn node stuck at applied %d over TCP, leader at %d", reborn, lead)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, installs := nodes[victim].SnapshotTransferStats(); installs < 1 {
		t.Fatalf("reborn node reports %d installs, want >= 1", installs)
	}
	if got, ok := nodes[victim].Store().Get("key-50"); !ok || string(got) != "val-50" {
		t.Fatalf("key-50 on reborn node = %q (ok=%v)", got, ok)
	}
}
