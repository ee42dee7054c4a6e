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
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/testcluster"
	"raftpaxos/internal/transport"
)

// newHostCluster builds one replica set of a multi-group host cluster:
// n hosts, each running `groups` groups over one shared ChanNetwork
// registration. newEngine builds host i's engine for group g.
func newHostCluster(t *testing.T, n, groups int,
	newEngine func(host, group int, peers []protocol.NodeID) protocol.Engine,
	openStore func(host, group int) (storage.Store, error)) ([]*cluster.Host, func()) {
	t.Helper()
	peers := make([]protocol.NodeID, n)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	net := transport.NewChanNetwork()
	hosts := make([]*cluster.Host, n)
	for i := range peers {
		i := i
		cfg := cluster.HostConfig{
			Groups:       groups,
			Transport:    net,
			TickInterval: 2 * time.Millisecond,
			NewEngine: func(g int) protocol.Engine {
				return newEngine(i, g, peers)
			},
		}
		if openStore != nil {
			cfg.OpenStore = func(g int) (storage.Store, error) { return openStore(i, g) }
		}
		h, err := cluster.NewHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts[i] = h
		net.ListenGroups(peers[i], h.HandleMessage)
	}
	for _, h := range hosts {
		h.Start()
	}
	return hosts, func() {
		for _, h := range hosts {
			h.Stop()
		}
		net.Close()
	}
}

func raftstarEngine(host, group int, peers []protocol.NodeID) protocol.Engine {
	return raftstar.New(raftstar.Config{
		ID: peers[host], Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4,
		Seed: int64(31 + group),
	})
}

func waitGroupLeader(t *testing.T, hosts []*cluster.Host, g int) *cluster.Node {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, h := range hosts {
			if h.Group(g).IsLeader() {
				return h.Group(g)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("group %d: no leader elected", g)
	return nil
}

// TestGroupRouterDeterministic pins the key router: stable across calls,
// always in range, covering every shard given enough keys, and collapsing
// to group 0 for single-group (and degenerate) configurations.
func TestGroupRouterDeterministic(t *testing.T) {
	const groups = 8
	seen := make(map[uint64]int)
	for i := 0; i < 1024; i++ {
		key := fmt.Sprintf("key-%d", i)
		g := cluster.GroupForKey(key, groups)
		if g >= groups {
			t.Fatalf("GroupForKey(%q, %d) = %d, out of range", key, groups, g)
		}
		if again := cluster.GroupForKey(key, groups); again != g {
			t.Fatalf("GroupForKey(%q) unstable: %d then %d", key, g, again)
		}
		seen[g]++
	}
	if len(seen) != groups {
		t.Fatalf("1024 keys hit only %d of %d groups: %v", len(seen), groups, seen)
	}
	for _, n := range []int{1, 0, -3} {
		if g := cluster.GroupForKey("anything", n); g != 0 {
			t.Fatalf("GroupForKey(_, %d) = %d, want 0", n, g)
		}
	}
}

// TestHostMultiGroupPutGet runs 3 hosts x 4 groups — with engine types
// deliberately mixed across groups — and drives routed writes, routed
// reads, and a cross-group PutAll batch. It also pins group isolation:
// a key's entries land only in the owning group's state machine.
func TestHostMultiGroupPutGet(t *testing.T) {
	const groups = 4
	newEngine := func(host, group int, peers []protocol.NodeID) protocol.Engine {
		if group%2 == 1 {
			return multipaxos.New(multipaxos.Config{
				ID: peers[host], Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4,
				Seed: int64(31 + group),
			})
		}
		return raftstarEngine(host, group, peers)
	}
	hosts, stop := newHostCluster(t, 3, groups, newEngine, nil)
	defer stop()
	for g := 0; g < groups; g++ {
		waitGroupLeader(t, hosts, g)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Routed single writes and reads, through different hosts.
	keys := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("kv-%d", i)
		keys = append(keys, key)
		if err := hosts[i%3].Put(ctx, key, []byte(key+"-v")); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
	}
	for i, key := range keys {
		got, err := hosts[(i+1)%3].Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(got) != key+"-v" {
			t.Fatalf("get %s = %q, want %s-v", key, got, key)
		}
	}

	// Cross-group batch: one PutAll spanning every group.
	batch := make([]cluster.KV, 16)
	for i := range batch {
		batch[i] = cluster.KV{Key: fmt.Sprintf("batch-%d", i), Value: []byte("b")}
	}
	if err := hosts[0].PutAll(ctx, batch); err != nil {
		t.Fatalf("PutAll: %v", err)
	}
	for _, kv := range batch {
		got, err := hosts[2].Get(ctx, kv.Key)
		if err != nil || string(got) != "b" {
			t.Fatalf("get %s after PutAll = %q, %v", kv.Key, got, err)
		}
	}

	// Group isolation: each key is applied by its owning group's state
	// machine on every host, and by no other group. A follower applies a
	// commit only when the next append or heartbeat tells it so: give the
	// owner's copy that long to appear.
	for _, key := range keys {
		owner := cluster.GroupForKey(key, groups)
		for hi, h := range hosts {
			for g := 0; g < groups; g++ {
				_, ok := h.Group(g).Store().Get(key)
				for deadline := time.Now().Add(5 * time.Second); uint64(g) == owner && !ok && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
					_, ok = h.Group(g).Store().Get(key)
				}
				if uint64(g) == owner && !ok {
					t.Fatalf("host %d group %d (owner) missing key %s", hi, g, key)
				}
				if uint64(g) != owner && ok {
					t.Fatalf("host %d group %d leaked key %s owned by group %d", hi, g, key, owner)
				}
			}
		}
	}
	if drops := hosts[0].UnknownGroupDrops(); drops != 0 {
		t.Fatalf("healthy cluster recorded %d unknown-group drops", drops)
	}
}

// TestHostUnknownGroupDropped: a record addressed to a group the host
// does not run is dropped and counted, never dispatched — a peer with a
// mismatched -groups cannot corrupt an unrelated group's runtime.
func TestHostUnknownGroupDropped(t *testing.T) {
	hosts, stop := newHostCluster(t, 3, 2, raftstarEngine, nil)
	defer stop()
	waitGroupLeader(t, hosts, 0)

	hosts[0].HandleMessage(7, 1, &raftstar.MsgAppendResp{})
	hosts[0].HandleMessage(2, 1, &raftstar.MsgAppendResp{})
	if drops := hosts[0].UnknownGroupDrops(); drops != 2 {
		t.Fatalf("UnknownGroupDrops = %d, want 2", drops)
	}

	// The cluster still works after the stray records.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hosts[0].Put(ctx, "still-alive", []byte("v")); err != nil {
		t.Fatalf("put after stray records: %v", err)
	}
}

// TestHostGroupCommitUnderConcurrentWriters: with 32 closed-loop writers
// spread over 3 hosts x 4 groups on storage.File, every group's runtime
// group-commits — its replicas together fsync less than once per entry
// they write. A multi-group host must not buy its parallelism by letting
// some group's batching decay to one fsync per entry.
func TestHostGroupCommitUnderConcurrentWriters(t *testing.T) {
	const (
		nHosts  = 3
		groups  = 4
		writers = 32
		puts    = 2000
	)
	stores := make([][]*storage.File, nHosts)
	for i := range stores {
		stores[i] = make([]*storage.File, groups)
		for g := range stores[i] {
			fs, err := storage.OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stores[i][g] = fs
		}
	}
	hosts, stop := newHostCluster(t, nHosts, groups, raftstarEngine,
		func(host, group int) (storage.Store, error) { return stores[host][group], nil })
	defer func() {
		stop()
		for _, hs := range stores {
			for _, st := range hs {
				st.Close()
			}
		}
	}()
	leaders := make([]*cluster.Node, groups)
	for g := range leaders {
		leaders[g] = waitGroupLeader(t, hosts, g)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	value := make([]byte, 16)
	var next atomic.Int64
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := next.Add(1); op <= puts; op = next.Add(1) {
				key := fmt.Sprintf("gc-%d", op)
				if err := leaders[cluster.GroupForKey(key, groups)].Put(ctx, key, value); err != nil {
					errs <- fmt.Errorf("put %s: %w", key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	for g := 0; g < groups; g++ {
		var syncs, entries uint64
		for i := range hosts {
			syncs += stores[i][g].SyncCount()
			entries += stores[i][g].EntryCount()
		}
		if entries == 0 {
			t.Fatalf("group %d wrote no entries", g)
		}
		ratio := float64(syncs) / float64(entries)
		t.Logf("group %d: %d fsyncs for %d entries (%.3f per entry)", g, syncs, entries, ratio)
		if ratio >= 1 {
			t.Fatalf("group %d: %d fsyncs for %d entries (%.3f per entry), group commit lost", g, syncs, entries, ratio)
		}
	}
}

// TestMultiGroupHostCrashRecovery is the multi-group durability
// acceptance test: 3 hosts x 4 groups take concurrent client traffic
// with a per-group linearizability history recording every operation;
// mid-traffic, every host is killed (stores abandoned without Close, so
// only fsynced bytes survive, exactly like a process kill). On restart,
// every group must elect a leader, serve every key, and each group's
// history — acked writes, maybe-lost in-flight writes, and post-restart
// reads — must still linearize.
func TestMultiGroupHostCrashRecovery(t *testing.T) {
	const (
		nHosts  = 3
		groups  = 4
		clients = 4
		nKeys   = 16
	)
	dirs := make([][]string, nHosts)
	for i := range dirs {
		dirs[i] = make([]string, groups)
		for g := range dirs[i] {
			dirs[i][g] = t.TempDir()
		}
	}
	open := func() [][]storage.Store {
		stores := make([][]storage.Store, nHosts)
		for i := range stores {
			stores[i] = make([]storage.Store, groups)
			for g := range stores[i] {
				fs, err := storage.OpenFile(dirs[i][g])
				if err != nil {
					t.Fatal(err)
				}
				stores[i][g] = fs
			}
		}
		return stores
	}

	// Keys are routed exactly as the production router would.
	keysByGroup := make([][]string, groups)
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("key-%d", i)
		g := cluster.GroupForKey(key, groups)
		keysByGroup[g] = append(keysByGroup[g], key)
	}
	for g, ks := range keysByGroup {
		if len(ks) == 0 {
			t.Fatalf("router assigned no keys to group %d; widen the key pool", g)
		}
	}

	// One history per group, each guarded by its own lock (History is not
	// concurrency-safe).
	type groupHist struct {
		mu   sync.Mutex
		hist *testcluster.History
	}
	hists := make([]*groupHist, groups)
	for g := range hists {
		hists[g] = &groupHist{hist: testcluster.NewHistory()}
	}
	var cmdSeq atomic.Uint64

	stores := open()
	hosts, stopHosts := newHostCluster(t, nHosts, groups, raftstarEngine,
		func(host, group int) (storage.Store, error) { return stores[host][group], nil })
	for g := 0; g < groups; g++ {
		waitGroupLeader(t, hosts, g)
	}

	findLeader := func(g uint64) *cluster.Node {
		for _, h := range hosts {
			if h.Group(int(g)).IsLeader() {
				return h.Group(int(g))
			}
		}
		return hosts[0].Group(int(g)) // forwardless engines shed it: Discard
	}

	// Traffic: each client owns a disjoint slice of the key pool and
	// writes unique values round-robin over it, budgeted so no key's
	// sub-history outgrows the checker's 64-op cap. Acked writes Return;
	// definitively shed writes Discard; everything else (including ops
	// cut off by the crash) stays pending, which the checker treats as
	// maybe-lost.
	acked := make([]atomic.Int64, groups)
	stopTraffic := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var keys []string
			for i := c; i < nKeys; i += clients {
				keys = append(keys, fmt.Sprintf("key-%d", i))
			}
			// 14 writes per key + the post-restart read stays under the
			// checker's 64-op cap with room to spare.
			for seq := 0; seq < 14*len(keys); seq++ {
				select {
				case <-stopTraffic:
					return
				default:
				}
				key := keys[seq%len(keys)]
				g := cluster.GroupForKey(key, groups)
				val := fmt.Sprintf("c%d-%d", c, seq)
				id := cmdSeq.Add(1)
				gh := hists[g]
				gh.mu.Lock()
				gh.hist.Invoke(id, c, true, key, val)
				gh.mu.Unlock()
				opCtx, opCancel := context.WithTimeout(ctx, 5*time.Second)
				err := findLeader(g).Put(opCtx, key, []byte(val))
				opCancel()
				switch {
				case err == nil:
					gh.mu.Lock()
					gh.hist.Return(id, "")
					gh.mu.Unlock()
					acked[g].Add(1)
				case errors.Is(err, protocol.ErrNotLeader):
					gh.mu.Lock()
					gh.hist.Discard(id)
					gh.mu.Unlock()
				}
			}
		}(c)
	}

	// Let every group commit real traffic, then kill the hosts while the
	// clients are still writing: whatever was in flight is the crash
	// window under test.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ready := true
		for g := range acked {
			if acked[g].Load() < 3 {
				ready = false
			}
		}
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("groups never accumulated enough acked traffic")
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopHosts() // stores injected via OpenStore stay open: abandoned, not Closed
	close(stopTraffic)
	wg.Wait()

	// Restart from the same directories.
	stores = open()
	hosts, stopHosts = newHostCluster(t, nHosts, groups, raftstarEngine,
		func(host, group int) (storage.Store, error) { return stores[host][group], nil })
	defer func() {
		stopHosts()
		for _, hs := range stores {
			for _, st := range hs {
				st.Close()
			}
		}
	}()
	for g := 0; g < groups; g++ {
		waitGroupLeader(t, hosts, g)
	}

	// Read every key back through its owning group and close out each
	// group's history: recovery must have preserved every acked write for
	// the reads to linearize.
	for g := 0; g < groups; g++ {
		for _, key := range keysByGroup[g] {
			id := cmdSeq.Add(1)
			hists[g].hist.Invoke(id, clients, false, key, "")
			got, err := findLeader(uint64(g)).Get(ctx, key)
			if err != nil {
				t.Fatalf("group %d: get %s after crash: %v", g, key, err)
			}
			hists[g].hist.Return(id, string(got))
		}
	}
	for g := 0; g < groups; g++ {
		if err := hists[g].hist.Check(); err != nil {
			t.Fatalf("group %d history not linearizable after crash: %v", g, err)
		}
		if n := acked[g].Load(); n < 3 {
			t.Fatalf("group %d acked only %d writes", g, n)
		}
	}
}
