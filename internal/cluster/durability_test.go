package cluster_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftpaxos/internal/cluster"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// filterNet wraps the channel transport with a swappable drop predicate,
// so durability tests can silence specific message types (acks) or cut a
// node off entirely while everything else flows.
type filterNet struct {
	inner *transport.ChanNetwork
	mu    sync.RWMutex
	drop  func(from, to protocol.NodeID, msg protocol.Message) bool
}

func (f *filterNet) SetDrop(fn func(from, to protocol.NodeID, msg protocol.Message) bool) {
	f.mu.Lock()
	f.drop = fn
	f.mu.Unlock()
}

func (f *filterNet) Send(from, to protocol.NodeID, msg protocol.Message) {
	f.mu.RLock()
	drop := f.drop
	f.mu.RUnlock()
	if drop != nil && drop(from, to, msg) {
		return
	}
	f.inner.Send(from, to, msg)
}

func (f *filterNet) Close() error { return nil }

// dropAcks silences every phase-2 acknowledgement, so entries replicate
// and persist on a quorum but can never commit: the classic window where
// commit-time persistence loses quorum-acked data on a full-cluster crash.
func dropAcks(_, _ protocol.NodeID, msg protocol.Message) bool {
	switch msg.(type) {
	case *raft.MsgAppendResp, *raftstar.MsgAppendResp, *multipaxos.MsgAcceptOK:
		return true
	}
	return false
}

// testQuorumAckedSuffixSurvivesCrash is the durability acceptance test for
// accept-time persistence: a suffix that every replica accepted and
// durably logged — but that never committed, because the acks were lost —
// must survive a full-cluster kill-and-restart and then commit. Under
// commit-time persistence nothing reaches any WAL (there are no commits),
// so the pre-crash durability gate below fails: the test demonstrably
// distinguishes the two designs.
func testQuorumAckedSuffixSurvivesCrash(t *testing.T,
	newEngine func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine) {
	t.Helper()
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	peers := []protocol.NodeID{0, 1, 2}
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
	build := func(stores []storage.Store, fn *filterNet) ([]*cluster.Node, func()) {
		nodes := make([]*cluster.Node, 3)
		for i := range peers {
			nodes[i] = cluster.New(cluster.Config{
				Engine:       newEngine(peers[i], peers),
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

	// Acks are dropped from the very first message: leader election
	// succeeds (votes and prepares flow), but nothing ever commits.
	fn := &filterNet{inner: transport.NewChanNetwork()}
	fn.SetDrop(dropAcks)
	stores := open()
	nodes, stop := build(stores, fn)
	leader := waitLeader(t, nodes)

	const writes = 3
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < writes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The put can never be acknowledged (nothing commits); it
			// fails when the cluster is stopped below.
			_ = leader.Put(ctx, fmt.Sprintf("acked-%d", i), []byte(fmt.Sprintf("v-%d", i)))
		}(i)
	}

	// Durability gate: every replica must hold the identical full suffix
	// in its WAL — all logs equal and long enough to contain every write —
	// while the commit index stays at zero: all-acked but uncommitted.
	// (Equality matters: an entry present on the leader alone is not
	// quorum-accepted, and a shorter-log candidate could legally win the
	// post-crash election and discard it.) Commit-time persistence never
	// passes this gate: nothing commits, so nothing reaches any WAL.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lo, hi := int64(1<<62), int64(0)
		for _, st := range stores {
			last, _ := st.LastIndex()
			if last < lo {
				lo = last
			}
			if last > hi {
				hi = last
			}
		}
		if lo == hi && lo >= writes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("accepted suffix never reached the WALs: entries are not persisted at accept time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, st := range stores {
		if hs, _ := st.HardState(); hs.Commit != 0 {
			t.Fatalf("node %d committed %d with all acks dropped — test setup broken", i, hs.Commit)
		}
	}

	// Full-cluster crash: the stores are abandoned WITHOUT Close, so
	// anything still sitting in a write buffer (the leader's own appends
	// stage unsynced until a commit makes them load-bearing) is genuinely
	// lost, exactly as in a process kill. Only what was fsynced — every
	// follower's copy, synced before its ack left — survives into the
	// reopened directories; the guarantee under test is that the
	// followers' durable quorum alone carries the suffix.
	stop()
	wg.Wait()

	// Restart with a healthy network: the restored suffix must commit and
	// every write must be readable.
	fn2 := &filterNet{inner: transport.NewChanNetwork()}
	stores = open()
	nodes, stop = build(stores, fn2)
	defer func() { stop(); closeAll(stores) }()
	waitLeader(t, nodes)
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("acked-%d", i)
		got, err := nodes[i%3].Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s after crash: %v (quorum-acked suffix lost)", key, err)
		}
		if string(got) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("get %s after crash = %q, want v-%d", key, got, i)
		}
	}
}

func TestQuorumAckedSuffixSurvivesCrashRaft(t *testing.T) {
	testQuorumAckedSuffixSurvivesCrash(t, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4, Seed: 11,
		})
	})
}

func TestQuorumAckedSuffixSurvivesCrashRaftStar(t *testing.T) {
	testQuorumAckedSuffixSurvivesCrash(t, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4, Seed: 11,
		})
	})
}

func TestQuorumAckedSuffixSurvivesCrashMultiPaxos(t *testing.T) {
	testQuorumAckedSuffixSurvivesCrash(t, func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
		return multipaxos.New(multipaxos.Config{
			ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4, Seed: 11,
		})
	})
}

// testConflictingSuffixCrash drives the other half of the restart
// contract: a replica that durably logged entries from a deposed leader
// (its own uncommitted tail, in this construction) crashes, restarts with
// that conflicting suffix in its WAL, and must converge by overwriting it
// when the new leader's log arrives — including across a second crash,
// proving the overwrite itself was made durable by the suffix-truncating
// append.
func testConflictingSuffixCrash(t *testing.T,
	newEngine func(id protocol.NodeID, peers []protocol.NodeID, passive bool) protocol.Engine) {
	t.Helper()
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	peers := []protocol.NodeID{0, 1, 2}
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
	build := func(stores []storage.Store, fn *filterNet, active protocol.NodeID) ([]*cluster.Node, func()) {
		nodes := make([]*cluster.Node, 3)
		for i := range peers {
			nodes[i] = cluster.New(cluster.Config{
				Engine:       newEngine(peers[i], peers, peers[i] != active),
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

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Boot with node 0 as the only campaigner; commit a shared prefix.
	fn := &filterNet{inner: transport.NewChanNetwork()}
	stores := open()
	nodes, stop := build(stores, fn, 0)
	leader := waitLeader(t, nodes)
	if leader.ID() != 0 {
		t.Fatalf("leader = %d, want the only active node 0", leader.ID())
	}
	for i := 0; i < 3; i++ {
		if err := leader.Put(ctx, fmt.Sprintf("shared-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Isolate the leader and let it durably log writes nobody else sees:
	// the suffix a deposed leader carries into a crash.
	fn.SetDrop(func(from, to protocol.NodeID, _ protocol.Message) bool {
		return from == 0 || to == 0
	})
	lastBefore, _ := stores[0].LastIndex()
	var wg sync.WaitGroup
	const lost = 2
	for i := 0; i < lost; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = leader.Put(ctx, fmt.Sprintf("lost-%d", i), []byte("doomed"))
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if last, _ := stores[0].LastIndex(); last >= lastBefore+lost {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("isolated leader never persisted its doomed suffix")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop()
	wg.Wait()
	// An isolated leader has no ack or commit to force its fsync, so the
	// doomed suffix is staged but unsynced; sync it explicitly to build
	// the scenario under test — a deposed leader whose conflicting tail
	// DID reach disk (reachable live whenever any committing iteration
	// follows the appends) — then crash without Close, so only fsynced
	// bytes survive into the reopened directories.
	if ds, ok := stores[0].(storage.DeferredSync); ok {
		if err := ds.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// Restart with node 1 campaigning instead: its shorter committed log
	// must depose node 0's longer tail via the suffix overwrite.
	fn = &filterNet{inner: transport.NewChanNetwork()}
	stores = open()
	nodes, stop = build(stores, fn, 1)
	newLeader := waitLeader(t, nodes)
	if newLeader.ID() != 1 {
		t.Fatalf("new leader = %d, want 1", newLeader.ID())
	}
	for i := 0; i < 2; i++ {
		if err := newLeader.Put(ctx, fmt.Sprintf("after-%d", i), []byte("kept")); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 must converge to the new history: new writes present, the
	// doomed suffix overwritten everywhere it could be observed.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if v, ok := nodes[0].Store().Get("after-1"); ok && string(v) == "kept" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deposed node never converged to the new leader's log")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Crash again (again without Close: only fsynced bytes survive) and
	// restart under the same builder: the overwrite must have been made
	// durable by the suffix-truncating append that preceded node 0's
	// acks, not merely applied in memory.
	stop()
	fn = &filterNet{inner: transport.NewChanNetwork()}
	stores = open()
	nodes, stop = build(stores, fn, 1)
	defer func() { stop(); closeAll(stores) }()
	waitLeader(t, nodes)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if v, ok := nodes[0].Store().Get("after-1"); ok && string(v) == "kept" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second restart lost the overwritten suffix state")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := nodes[0].Store().Get("lost-0"); ok {
		t.Fatal("doomed write from the deposed leader resurrected after restart")
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("shared-%d", i)
		if v, ok := nodes[0].Store().Get(key); !ok || string(v) != "v" {
			t.Fatalf("committed prefix %s lost across conflict overwrite: %q, %v", key, v, ok)
		}
	}
}

func TestConflictingSuffixCrashRaft(t *testing.T) {
	testConflictingSuffixCrash(t, func(id protocol.NodeID, peers []protocol.NodeID, passive bool) protocol.Engine {
		return raft.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 13, Passive: passive,
		})
	})
}

func TestConflictingSuffixCrashRaftStar(t *testing.T) {
	testConflictingSuffixCrash(t, func(id protocol.NodeID, peers []protocol.NodeID, passive bool) protocol.Engine {
		return raftstar.New(raftstar.Config{
			ID: id, Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 13, Passive: passive,
		})
	})
}

// flakyStore injects append failures: while failing is set, every Append
// errors (the WAL write path is down); reads and hard state still work.
type flakyStore struct {
	storage.Store
	failing atomic.Bool
	fails   atomic.Int64
}

var errDiskDown = fmt.Errorf("flaky: disk down")

func (f *flakyStore) Append(entries []protocol.Entry) error {
	if f.failing.Load() {
		f.fails.Add(1)
		return errDiskDown
	}
	return f.Store.Append(entries)
}

// TestPersistFailureRetriesAndWithholdsAcks pins the failed-append redo
// path: an engine never re-emits entries it already holds in memory, so
// a batch the store rejected must be carried forward by the driver and
// re-appended until it lands — otherwise a later retransmission's ack
// would release over entries on no disk. While a store is down its
// replica's acks are withheld — the leader's ack to itself included — and
// the cluster keeps committing through the healthy quorum: with a
// follower's WAL down, through the leader's own durable vote; with the
// leader's WAL down, through both followers', and the client is told
// success, because a quorum holds the write durably whether or not the
// leader's own copy ever lands. Once the stores heal, the backlog must
// drain and each store must converge to the full log.
func TestPersistFailureRetriesAndWithholdsAcks(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	flakyLeader := &flakyStore{Store: storage.NewMem()}
	flaky := &flakyStore{Store: storage.NewMem()}
	stores := []storage.Store{flakyLeader, flaky, storage.NewMem()}
	fn := &filterNet{inner: transport.NewChanNetwork()}
	nodes := make([]*cluster.Node, 3)
	for i := range peers {
		nodes[i] = cluster.New(cluster.Config{
			Engine: raftstar.New(raftstar.Config{
				ID: peers[i], Peers: peers, ElectionTicks: 10, HeartbeatTicks: 2, Seed: 17,
				Passive: i != 0,
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
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	leader := waitLeader(t, nodes)

	// Break node 1's WAL and write through the healthy quorum {0, 2}.
	flaky.failing.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if err := leader.Put(ctx, fmt.Sprintf("fk-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for flaky.fails.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("broken store never saw an append attempt")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, total := nodes[1].PersistFailures(); total == 0 {
		t.Fatal("persist failures not observable on the broken replica")
	}

	// Heal node 1 and break the leader's own WAL instead: the writes still
	// succeed, on the followers' durable copies alone.
	flaky.failing.Store(false)
	flakyLeader.failing.Store(true)
	for i := 5; i < 8; i++ {
		if err := leader.Put(ctx, fmt.Sprintf("fk-%d", i), []byte("v")); err != nil {
			t.Fatalf("put with the leader's WAL down: %v", err)
		}
	}
	if _, total := nodes[0].PersistFailures(); total == 0 || flakyLeader.fails.Load() == 0 {
		t.Fatal("persist failures not observable on the leader")
	}

	// Heal. The redo backlogs must drain: both stores converge to the full
	// log even though the engines never re-emitted the failed batches.
	flakyLeader.failing.Store(false)
	if err := leader.Put(ctx, "fk-healed", []byte("v")); err != nil {
		t.Fatal(err)
	}
	want, _ := stores[2].LastIndex()
	deadline = time.Now().Add(10 * time.Second)
	for _, st := range []*flakyStore{flakyLeader, flaky} {
		for {
			last, _ := st.Store.LastIndex()
			if last >= want {
				ents, err := st.Store.Entries(1, last)
				if err != nil {
					t.Fatalf("healed store unreadable: %v", err)
				}
				for i, ent := range ents {
					if ent.Index != int64(i+1) {
						t.Fatalf("healed store has a hole at %d: %+v", i+1, ent)
					}
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("healed store never converged: at %d, healthy follower at %d", last, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
