package cluster_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raftpaxos/internal/cluster"
	"raftpaxos/internal/lease"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// msgCounter tallies the transport messages it sees, by Go type.
type msgCounter struct {
	mu sync.Mutex
	n  map[string]int
}

// count has filterNet's drop-hook signature and drops nothing.
func (c *msgCounter) count(_, _ protocol.NodeID, msg protocol.Message) bool {
	c.mu.Lock()
	c.n[fmt.Sprintf("%T", msg)]++
	c.mu.Unlock()
	return false
}

// since reports what was counted beyond base, as a printable map.
func (c *msgCounter) since(base map[string]int) map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := make(map[string]int)
	for k, v := range c.n {
		if v != base[k] {
			d[k] = v - base[k]
		}
	}
	return d
}

// TestReadIndexSkipsLogAndFsync is the fast path's acceptance test at
// the storage and transport layers: a burst of reads — at the leader and
// forwarded from a follower — appends zero entries and pays zero WAL
// fsyncs, asserted via the storage counters, while every read returns the
// committed value; a follower read costs exactly two transport messages
// (the forward and the reply — the forwarder is the leader's quorum
// witness, so no confirmation round runs) and a leader read exactly one
// round. The nodes' clocks are injected and stand still while the reads
// run, so every message counted is one a read caused.
func TestReadIndexSkipsLogAndFsync(t *testing.T) {
	peers := []protocol.NodeID{0, 1, 2}
	counter := &msgCounter{n: make(map[string]int)}
	net := &filterNet{inner: transport.NewChanNetwork()}
	net.SetDrop(counter.count)
	defer net.inner.Close()
	stores := make([]*storage.File, 3)
	nodes := make([]*cluster.Node, 3)
	ticks := make([]chan time.Time, 3)
	for i := range peers {
		fs, err := storage.OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		stores[i] = fs
		ticks[i] = make(chan time.Time)
		nodes[i] = cluster.New(cluster.Config{
			Engine: raftstar.New(raftstar.Config{
				ID: peers[i], Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2,
				Seed: 51, ReadIndex: true,
			}),
			Transport: net,
			Stable:    fs,
			Ticks:     ticks[i],
		})
		net.inner.Listen(peers[i], nodes[i].HandleMessage)
	}
	for _, nd := range nodes {
		nd.Start()
	}
	defer func() {
		for _, nd := range nodes {
			nd.Stop()
		}
	}()
	// tickAll advances every node's clock by k ticks, 2 ms apart.
	tickAll := func(k int) {
		for ; k > 0; k-- {
			for _, ch := range ticks {
				ch <- time.Time{}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	var leader, follower *cluster.Node
	for i := 0; leader == nil; i++ {
		if i == 2000 {
			t.Fatal("no leader after 2000 injected ticks")
		}
		tickAll(1)
		for _, nd := range nodes {
			if nd.IsLeader() {
				leader = nd
			} else {
				follower = nd
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := leader.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let heartbeats spread the commit index, then quiesce past the
	// commit-save throttle with the clocks stopped: the only storage and
	// transport activity left is whatever the reads cause.
	tickAll(10)
	time.Sleep(100 * time.Millisecond)
	var entries, syncs, appends uint64
	for _, fs := range stores {
		entries += fs.EntryCount()
		syncs += fs.SyncCount()
		appends += fs.AppendCount()
	}
	sent := counter.since(nil) // everything counted so far

	const reads = 100
	for i := 0; i < reads; i++ {
		at := leader
		if i%2 == 1 {
			at = follower // forwarded to the leader over the transport
		}
		got, err := at.Get(ctx, fmt.Sprintf("k%d", i%3))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i%3); string(got) != want {
			t.Fatalf("read %d = %q, want %s", i, got, want)
		}
	}

	// A leader read completes on its first echo; give the second one time
	// to land before counting.
	time.Sleep(50 * time.Millisecond)
	want := map[string]int{
		"*protocol.MsgReadForward": reads / 2, "*cluster.MsgReply": reads / 2, // follower reads
		"*raftstar.MsgAppendReq": reads, "*raftstar.MsgAppendResp": reads, // leader reads: 2 followers each
	}
	if got := counter.since(sent); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d leader + %d follower reads sent %v, want %v", reads/2, reads/2, got, want)
	}

	var entries2, syncs2, appends2 uint64
	for _, fs := range stores {
		entries2 += fs.EntryCount()
		syncs2 += fs.SyncCount()
		appends2 += fs.AppendCount()
	}
	if entries2 != entries {
		t.Fatalf("reads appended %d log entries, want 0", entries2-entries)
	}
	if appends2 != appends {
		t.Fatalf("reads caused %d append batches, want 0", appends2-appends)
	}
	if syncs2 != syncs {
		t.Fatalf("reads caused %d fsyncs, want 0", syncs2-syncs)
	}
	var fast, logged int64
	for _, nd := range nodes {
		f, l := nd.ReadStats()
		fast += f
		logged += l
	}
	if fast < reads {
		t.Fatalf("fast reads = %d, want >= %d", fast, reads)
	}
	if logged != 0 {
		t.Fatalf("%d reads replicated through the log, want 0", logged)
	}
}

// TestReadsDoNotQueueBehindPersister: a confirmed read depends on nothing
// the persister is making durable, so it must not wait for it. The
// leader's persister is parked inside its store on a write that cannot
// commit (the filter keeps its entries from the followers, so the read
// index stays at what is already applied); Gets at the leader and at a
// follower still complete, while the Put stays blocked until the store
// lets go.
func TestReadsDoNotQueueBehindPersister(t *testing.T) {
	gated := &gateStore{Store: storage.NewMem()}
	stores := []storage.Store{gated, storage.NewMem(), storage.NewMem()}
	fn := &filterNet{inner: transport.NewChanNetwork()}
	nodes, stop := buildPipelineCluster(t, stores, fn, 0)
	defer stop()
	defer gated.Release() // before stop, also when a check below fails
	leader := waitLeader(t, nodes)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := leader.Put(ctx, "warm", []byte("v")); err != nil {
		t.Fatal(err)
	}

	fn.SetDrop(func(_, _ protocol.NodeID, msg protocol.Message) bool {
		m, ok := msg.(*raftstar.MsgAppendReq)
		return ok && len(m.Entries) > 0
	})
	gated.Arm()
	put := make(chan error, 1)
	go func() { put <- leader.Put(ctx, "held", []byte("v")) }()
	waitBlocked(t, gated)

	for i, nd := range nodes[:2] { // the leader, and a follower forwarding to it
		rctx, rcancel := context.WithTimeout(ctx, 5*time.Second)
		got, err := nd.Get(rctx, "warm")
		rcancel()
		if err != nil || string(got) != "v" {
			t.Fatalf("Get at node %d while the leader's persister is parked: %q, %v", i, got, err)
		}
	}
	select {
	case err := <-put:
		t.Fatalf("the gated Put completed (err=%v): the persister was not parked", err)
	default:
	}

	fn.SetDrop(nil)
	gated.Release()
	if err := <-put; err != nil {
		t.Fatal(err)
	}
}

// TestReplyBypassesBackedUpInbox: a MsgReply is for a waiting client, not
// for the engine, so the transport reader completes it directly. With the
// node's event loop held (a persistence round is parked in the store and
// the rounds staged behind it fill the in-flight window) and its inbox
// full, HandleMessage must still hand the reply to its waiter and return,
// instead of blocking the transport reader behind the backlog.
func TestReplyBypassesBackedUpInbox(t *testing.T) {
	gated := &gateStore{Store: storage.NewMem()}
	forwards := make(chan *protocol.MsgReadForward, 1)
	node := cluster.New(cluster.Config{
		Engine: raftstar.New(raftstar.Config{
			ID: 1, Peers: []protocol.NodeID{0, 1, 2}, ElectionTicks: 10, HeartbeatTicks: 2,
			Seed: 81, ReadIndex: true, Passive: true,
		}),
		Transport: sendFunc(func(_, _ protocol.NodeID, msg protocol.Message) {
			if m, ok := msg.(*protocol.MsgReadForward); ok {
				forwards <- m
			}
		}),
		Stable: gated,
		Ticks:  make(chan time.Time),
	})
	node.Start()
	stopped := false
	var pushers sync.WaitGroup
	defer func() {
		if !stopped {
			gated.Release()
			node.Stop()
		}
		pushers.Wait()
	}()

	// Node 0 announces itself leader of term 1; a Get at this follower then
	// forwards, and the captured forward names the command the reply must
	// carry.
	node.HandleMessage(0, &raftstar.MsgAppendReq{Term: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type result struct {
		v   []byte
		err error
	}
	got := make(chan result, 1)
	go func() {
		v, err := node.Get(ctx, "k")
		got <- result{v, err}
	}()
	var fwd *protocol.MsgReadForward
	select {
	case fwd = <-forwards:
	case <-ctx.Done():
		t.Fatal("the follower never forwarded the read")
	}

	// Park the persister: an append whose persistence round waits in the
	// store.
	gated.Arm()
	node.HandleMessage(0, &raftstar.MsgAppendReq{Term: 1, Entries: []protocol.Entry{
		{Index: 1, Term: 1, Bal: 1, Cmd: protocol.Command{ID: 1, Op: protocol.OpPut, Key: "x"}},
	}})
	waitBlocked(t, gated)
	// Hold the loop, then fill the inbox: every heartbeat iteration stages
	// a round for its ack, so the pushed heartbeats fill the in-flight
	// window behind the parked round, the loop blocks staging the next,
	// and the pusher itself blocks once the inbox is full.
	var pushed atomic.Int64
	pushers.Add(1)
	go func() {
		defer pushers.Done()
		for i := 0; i < 1<<20; i++ {
			node.HandleMessage(0, &raftstar.MsgAppendReq{Term: 1})
			pushed.Add(1)
		}
	}()
	for last, still := int64(-1), 0; still < 20; time.Sleep(5 * time.Millisecond) {
		if cur := pushed.Load(); cur == last && cur > 0 {
			still++
		} else {
			last, still = cur, 0
		}
	}

	delivered := make(chan struct{})
	go func() {
		node.HandleMessage(0, &cluster.MsgReply{CmdID: fwd.Cmds[0].ID, Value: []byte("v")})
		close(delivered)
	}()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("HandleMessage blocked on a MsgReply behind a full inbox")
	}
	select {
	case r := <-got:
		if r.err != nil || string(r.v) != "v" {
			t.Fatalf("Get = %q, %v", r.v, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reply did not reach its waiter while the loop was held")
	}

	gated.Release()
	node.Stop()
	stopped = true
}

// sendFunc adapts a function to transport.Transport.
type sendFunc func(from, to protocol.NodeID, msg protocol.Message)

func (f sendFunc) Send(from, to protocol.NodeID, msg protocol.Message) { f(from, to, msg) }
func (f sendFunc) Close() error                                        { return nil }

// TestReadIndexAcrossFullClusterKillRestart reuses the durability
// harness's construction: writes replicate and persist on every node but
// never commit (acks dropped), the whole cluster is killed without
// closing the stores, and the restarted cluster commits the restored
// suffix. ReadIndex reads issued immediately after restart must return
// those restored values — the read index waits out both the new leader's
// election barrier and the applier's replay of the recovered suffix, so
// a read can never observe the pre-crash state machine.
func TestReadIndexAcrossFullClusterKillRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine
	}{
		{"raftstar", func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
			return raftstar.New(raftstar.Config{
				ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4, Seed: 11, ReadIndex: true,
			})
		}},
		{"multipaxos", func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
			return multipaxos.New(multipaxos.Config{
				ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 4, Seed: 11, ReadIndex: true,
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			build := func(stores []storage.Store, fn *filterNet) ([]*cluster.Node, func()) {
				nodes := make([]*cluster.Node, 3)
				for i := range peers {
					nodes[i] = cluster.New(cluster.Config{
						Engine:       tc.mk(peers[i], peers),
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
					_ = leader.Put(ctx, fmt.Sprintf("acked-%d", i), []byte(fmt.Sprintf("v-%d", i)))
				}(i)
			}
			// Wait until the suffix is identically persisted everywhere but
			// committed nowhere (the durability gate from durability_test).
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
					t.Fatal("accepted suffix never reached the WALs")
				}
				time.Sleep(2 * time.Millisecond)
			}

			// Full-cluster kill: abandon the stores without Close.
			stop()
			wg.Wait()

			// Restart healthy and read immediately through the fast path:
			// every restored write must be visible, from any replica.
			fn2 := &filterNet{inner: transport.NewChanNetwork()}
			stores = open()
			nodes, stop = build(stores, fn2)
			defer func() {
				stop()
				for _, st := range stores {
					st.Close()
				}
			}()
			waitLeader(t, nodes)
			for i := 0; i < writes; i++ {
				key := fmt.Sprintf("acked-%d", i)
				got, err := nodes[i%3].Get(ctx, key)
				if err != nil {
					t.Fatalf("get %s after crash: %v", key, err)
				}
				if string(got) != fmt.Sprintf("v-%d", i) {
					t.Fatalf("get %s after crash = %q, want v-%d", key, got, i)
				}
			}
			var logged int64
			for _, nd := range nodes {
				_, l := nd.ReadStats()
				logged += l
			}
			if logged != 0 {
				t.Fatalf("%d post-restart reads replicated through the log, want 0", logged)
			}
		})
	}
}

// TestQuorumLeaseReadsOverTCP proves the lease engines run in the live
// cluster end to end: quorum leases circulate over the real TCP
// transport, and a follower holding a quorum lease serves a strongly
// consistent read locally — observed via its own fast-read counter —
// with zero reads through the log. The nodes' clocks are driven through
// the injected tick source (cluster.Config.Ticks), so progress is
// measured in ticks delivered, not wall time: a loaded machine slows
// the test down but cannot starve the lease circulation into a timeout.
func TestQuorumLeaseReadsOverTCP(t *testing.T) {
	leaseCfg := func(id protocol.NodeID, peers []protocol.NodeID) lease.Config {
		return lease.Config{Self: id, Peers: peers, DurationTicks: 150, RenewTicks: 15}
	}
	for _, tc := range []struct {
		name string
		mk   func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine
	}{
		{"rql", func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
			return lease.NewEngine(leaseCfg(id, peers), lease.QuorumLease, func(h protocol.Hooks) lease.Inner {
				return raftstar.New(raftstar.Config{
					ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2,
					Seed: 61, ReadIndex: true, Hooks: h,
				})
			})
		}},
		{"pql", func(id protocol.NodeID, peers []protocol.NodeID) protocol.Engine {
			return lease.NewEngine(leaseCfg(id, peers), lease.QuorumLease, func(h protocol.Hooks) lease.Inner {
				return multipaxos.New(multipaxos.Config{
					ID: id, Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2,
					Seed: 61, ReadIndex: true, Hooks: h,
				})
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster.RegisterMessages()
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
			nodes := make([]*cluster.Node, 3)
			tcps := make([]*transport.TCP, 3)
			ticks := make([]chan time.Time, 3)
			for i := range peers {
				lazy := &lazyTransport{}
				ticks[i] = make(chan time.Time, 64)
				nodes[i] = cluster.New(cluster.Config{
					Engine:    tc.mk(peers[i], peers),
					Transport: lazy,
					Stable:    storage.NewMem(),
					Ticks:     ticks[i],
				})
				tcp, err := transport.NewTCP(peers[i], addrs, nodes[i].HandleMessage)
				if err != nil {
					t.Fatal(err)
				}
				lazy.set(tcp)
				tcps[i] = tcp
				nodes[i].Start()
			}
			defer func() {
				for i := range nodes {
					nodes[i].Stop()
					tcps[i].Close()
				}
			}()
			// tickAll advances every node's injected clock by k ticks,
			// yielding briefly between ticks so the event loops and TCP
			// links keep up.
			tickAll := func(k int) {
				for j := 0; j < k; j++ {
					for _, ch := range ticks {
						ch <- time.Time{}
					}
					time.Sleep(200 * time.Microsecond)
				}
			}
			var leader *cluster.Node
			for i := 0; i < 400 && leader == nil; i++ {
				tickAll(5)
				for _, nd := range nodes {
					if nd.IsLeader() {
						leader = nd
						break
					}
				}
			}
			if leader == nil {
				t.Fatal("no leader after 2000 injected ticks")
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			// Client calls block on replication progress that needs the
			// clocks to keep moving (heartbeats, lease renewals), so run
			// them concurrently with the tick pump.
			await := func(done <-chan struct{}) {
				for {
					select {
					case <-done:
						return
					default:
						tickAll(1)
					}
				}
			}
			putDone := make(chan struct{})
			var putErr error
			go func() { putErr = leader.Put(ctx, "hot", []byte("v1")); close(putDone) }()
			await(putDone)
			if putErr != nil {
				t.Fatal(putErr)
			}
			var follower *cluster.Node
			for _, nd := range nodes {
				if nd != leader {
					follower = nd
					break
				}
			}
			// Leases need a few renew periods to circulate; keep reading at
			// the follower until one is served locally (before the lease
			// arrives, reads are forwarded — also correct, just not local).
			// Each round injects a full renew period; 200 rounds is 20
			// lease durations — if the lease hasn't circulated by then, it
			// never will.
			for round := 0; ; round++ {
				var (
					got     []byte
					getErr  error
					getDone = make(chan struct{})
				)
				go func() { got, getErr = follower.Get(ctx, "hot"); close(getDone) }()
				await(getDone)
				if getErr != nil {
					t.Fatal(getErr)
				}
				if string(got) != "v1" {
					t.Fatalf("lease read = %q, want v1", got)
				}
				if fast, _ := follower.ReadStats(); fast > 0 {
					break // served from the follower's own store
				}
				if round >= 200 {
					t.Fatal("follower never served a local quorum-lease read")
				}
				tickAll(15)
			}
			var logged int64
			for _, nd := range nodes {
				_, l := nd.ReadStats()
				logged += l
			}
			if logged != 0 {
				t.Fatalf("%d lease-mode reads replicated through the log, want 0", logged)
			}
		})
	}
}
