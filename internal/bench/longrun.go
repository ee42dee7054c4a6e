package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/cluster"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// LongRunConfig configures a sustained-load trial against the live
// runtime. Its point is that with snapshots + segmented-WAL compaction
// enabled, disk usage and engine memory stay bounded, the last window of
// commits is as fast as the first (no degradation with history), and a
// restart replays only the tail above the snapshot.
type LongRunConfig struct {
	// Replicas is the cluster size (default 3).
	Replicas int
	// Groups is the number of consensus groups each replica hosts
	// (default 1). Writes shard across groups by key hash; each group
	// runs its own leader, log, and persister, so aggregate write
	// throughput scales with groups instead of capping at one event
	// loop's drain rate.
	Groups int
	// Clients is the number of closed-loop writers (default 32), shared
	// across all groups — hold it constant when comparing group counts.
	Clients int
	// Ops is the total number of operations (default 50000).
	Ops int
	// ReadRatio is the fraction of ops issued as strongly consistent
	// reads (0..1, default 0). Reads ride the ReadIndex fast path: no log
	// append, no fsync — the result records their rate, latency
	// percentiles, and the (necessarily zero) count that replicated
	// through the log anyway.
	ReadRatio float64
	// ValueSize is the write payload in bytes (default 16).
	ValueSize int
	// KeySpace recycles keys modulo this count so the snapshot stays small
	// while the log grows (default 512).
	KeySpace int
	// SnapshotInterval triggers a snapshot + compaction every this many
	// applied entries (default 1000).
	SnapshotInterval int
	// SegmentBytes is the WAL rotation threshold (default 256KB, small
	// enough that compaction visibly deletes segments during the run).
	SegmentBytes int64
	// Dirs holds one storage directory per replica (required).
	Dirs []string
	// TickInterval drives the engines' logical clocks (default 1ms).
	TickInterval time.Duration
	// WindowOps sizes the first/last throughput windows (default Ops/5).
	WindowOps int
	// UseTCP runs the cluster over the real TCP transport on loopback
	// instead of the in-process channel network, so the trial also
	// measures the wire: length-prefixed framing, snappy compression of
	// large frames, and the raw-vs-wire byte ratio reported in the JSON
	// artifact.
	UseTCP bool
	// FastPath enables the one-RTT fast write path and routes every write
	// through a non-leader replica — the path only exists for commands
	// entering away from the leader, so a leader-routed run would never
	// exercise it.
	FastPath bool
}

func (c *LongRunConfig) withDefaults() LongRunConfig {
	out := *c
	if out.Replicas <= 0 {
		out.Replicas = 3
	}
	if out.Groups <= 0 {
		out.Groups = 1
	}
	if out.Clients <= 0 {
		out.Clients = 32
	}
	if out.Ops <= 0 {
		out.Ops = 50000
	}
	if out.ValueSize <= 0 {
		out.ValueSize = 16
	}
	if out.KeySpace <= 0 {
		out.KeySpace = 512
	}
	if out.SnapshotInterval <= 0 {
		out.SnapshotInterval = 1000
	}
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 256 << 10
	}
	if out.TickInterval <= 0 {
		out.TickInterval = time.Millisecond
	}
	if out.WindowOps <= 0 || out.WindowOps*2 > out.Ops {
		out.WindowOps = out.Ops / 5
	}
	return out
}

// LongRunResult reports one sustained-load trial, JSON-tagged so
// cmd/raftpaxos-bench can emit it as a machine-readable artifact.
type LongRunResult struct {
	Ops int `json:"ops"`
	// Groups is the number of consensus groups each replica hosted;
	// CommitsPerSec is the aggregate write rate across all of them, and
	// GroupCommitsPerSec breaks it down per group (the shard-balance and
	// scaling evidence in one place).
	Groups             int       `json:"groups"`
	GroupCommitsPerSec []float64 `json:"group_commits_per_sec"`
	// GroupFsyncsPerEntry is each group's fsyncs/entry summed over its
	// replicas: multi-group scaling must not come from batching decay
	// (each group's ratio should match the single-group baseline).
	GroupFsyncsPerEntry []float64 `json:"group_fsyncs_per_entry"`
	// GroupWireRecordsSent / GroupWireBytesSent are the per-group
	// transport breakdown summed over replicas (TCP runs only): how much
	// of the shared wire each group consumed.
	GroupWireRecordsSent []int64 `json:"group_wire_records_sent,omitempty"`
	GroupWireBytesSent   []int64 `json:"group_wire_bytes_sent,omitempty"`
	ElapsedMS            float64 `json:"elapsed_ms"`
	CommitsPerSec        float64 `json:"commits_per_sec"`
	// FirstWindowPerSec and LastWindowPerSec are the throughput of the
	// first and last WindowOps commits: flat means no degradation as
	// history accumulates.
	FirstWindowPerSec float64 `json:"first_window_per_sec"`
	LastWindowPerSec  float64 `json:"last_window_per_sec"`
	WindowOps         int     `json:"window_ops"`
	// FsyncsPerEntry is summed over all replicas' stores.
	FsyncsPerEntry float64 `json:"fsyncs_per_entry"`
	// WALBytes / WALSegments are the leader's on-disk totals after the
	// run — the numbers compaction exists to bound.
	WALBytes    int64 `json:"wal_bytes"`
	WALSegments int   `json:"wal_segments"`
	// SnapshotIndex is the leader's last snapshot boundary.
	SnapshotIndex int64 `json:"snapshot_index"`
	// EngineLogLen is the leader engine's in-memory tail after the run.
	EngineLogLen int `json:"engine_log_len"`
	// RestartMS is the wall time to reopen the leader's store, rebuild
	// the node, and reach the pre-shutdown applied index again —
	// O(snapshot + tail), not O(history).
	RestartMS float64 `json:"restart_ms"`
	// RestartAppliedIndex is the applied index recovered on restart.
	RestartAppliedIndex int64 `json:"restart_applied_index"`
	// SnapshotTransfers / SnapshotTransferBytes count wire-level snapshot
	// catch-up traffic (InstallSnapshot chunks and their payload bytes)
	// shipped across all replicas; SnapshotInstalls counts images adopted
	// from peers. All zero on a run where nobody falls behind compaction.
	SnapshotTransfers     int64 `json:"snapshot_transfers"`
	SnapshotTransferBytes int64 `json:"snapshot_transfer_bytes"`
	SnapshotInstalls      int64 `json:"snapshot_installs"`
	// SnapshotFailures is the lifetime count of failed snapshot /
	// compaction rounds across all replicas — non-zero means the snapshot
	// path wedged at some point (it is also logged at transition time).
	SnapshotFailures int64 `json:"snapshot_failures"`
	// Read-mix metrics (present when ReadRatio > 0): reads completed and
	// their rate, latency percentiles, and ReadLogAppends — reads that
	// replicated through the log as entries instead of taking the
	// ReadIndex fast path. The whole point of the fast path is that this
	// stays 0.
	Reads          int     `json:"reads,omitempty"`
	ReadsPerSec    float64 `json:"reads_per_sec,omitempty"`
	ReadP50MS      float64 `json:"read_p50_ms,omitempty"`
	ReadP99MS      float64 `json:"read_p99_ms,omitempty"`
	ReadLogAppends int64   `json:"read_log_appends"`
	// Write latency percentiles over every completed write — the numbers
	// the fast path moves (one WAN round trip instead of two when writes
	// enter at a follower).
	WriteP50MS float64 `json:"write_p50_ms"`
	WriteP99MS float64 `json:"write_p99_ms"`
	// Fast-path counters summed over all replicas and groups (zero unless
	// FastPath): commits that completed on the one-RTT path, commands that
	// fell back to the classic leader path, and the collision rate
	// Conflicts / (FastCommits + ClassicFallbacks).
	FastCommits      int64   `json:"fast_commits"`
	ClassicFallbacks int64   `json:"classic_fallbacks"`
	ConflictRate     float64 `json:"conflict_rate"`
	// Transport framing totals, summed over all replicas' TCP transports
	// (zero on a channel-network run): frames sent, frames that shipped
	// snappy-compressed, pre-compression payload bytes, and bytes actually
	// written to the wire.
	TransportFrames           int64 `json:"transport_frames,omitempty"`
	TransportFramesCompressed int64 `json:"transport_frames_compressed,omitempty"`
	TransportRawBytes         int64 `json:"transport_raw_bytes,omitempty"`
	TransportWireBytes        int64 `json:"transport_wire_bytes,omitempty"`
	// TransportFramesDropped counts sends shed on outbound queue overflow
	// (non-zero means the wire, not the engine, was the bottleneck), and
	// EncodeNSTotal is wall time spent in encode+compress+frame across all
	// writer goroutines — the codec cost the binary wire format exists to
	// shrink.
	TransportFramesDropped int64 `json:"transport_frames_dropped"`
	EncodeNSTotal          int64 `json:"encode_ns_total,omitempty"`
	// AllocBytesPerOp is the process-wide heap allocation per completed
	// operation (runtime.MemStats TotalAlloc delta across the loaded
	// phase). It spans clients, engines, WAL, and transport together: the
	// whole-system allocation churn the zero-allocation codec targets.
	AllocBytesPerOp float64 `json:"alloc_bytes_per_op"`
	// Persistence-pipeline counters, summed over all replicas (see
	// cluster.Node.PersistStats). SyncNSTotal is wall time inside
	// sync/save calls — off the event loop;
	// SyncBatches counts group-committed flushes (rounds-per-batch is the
	// pipeline's coalescing win); LoopStallNS is event-loop time blocked
	// on a full staging window (non-zero means the disk, not the loop, is
	// the ceiling); PersistInflightMax is the deepest the staged window
	// got on any replica.
	SyncNSTotal        int64 `json:"sync_ns_total"`
	SyncBatches        int64 `json:"sync_batches"`
	LoopStallNS        int64 `json:"loop_stall_ns"`
	PersistInflightMax int64 `json:"persist_inflight_max"`
}

// lazyTransport breaks the host<->transport construction cycle when
// running over TCP (the transport needs the host's inbound handler, the
// host needs the transport).
type lazyTransport struct {
	mu sync.RWMutex
	t  transport.GroupTransport
}

func (l *lazyTransport) set(t transport.GroupTransport) { l.mu.Lock(); l.t = t; l.mu.Unlock() }

func (l *lazyTransport) get() transport.GroupTransport {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.t
}

func (l *lazyTransport) Send(from, to protocol.NodeID, msg protocol.Message) {
	if t := l.get(); t != nil {
		t.Send(from, to, msg)
	}
}

func (l *lazyTransport) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	if t := l.get(); t != nil {
		t.SendGroup(group, from, to, msg)
	}
}

func (l *lazyTransport) Close() error { return nil }

// RunLongRun drives cfg.Ops closed-loop writes through a snapshotting
// multi-group Raft* cluster (cfg.Groups groups per replica, keys sharded
// across them by hash), reports the boundedness metrics plus per-group
// throughput, then restarts one replica's whole host from disk and times
// recovery across every group.
func RunLongRun(raw LongRunConfig) (*LongRunResult, error) {
	cfg := raw.withDefaults()
	if len(cfg.Dirs) != cfg.Replicas {
		return nil, fmt.Errorf("bench: %d dirs for %d replicas", len(cfg.Dirs), cfg.Replicas)
	}

	peers := make([]protocol.NodeID, cfg.Replicas)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
	}
	newHost := func(i int, tr transport.GroupTransport, passive bool) (*cluster.Host, error) {
		return cluster.NewHost(cluster.HostConfig{
			Groups:    cfg.Groups,
			Transport: tr,
			DataDir:   cfg.Dirs[i],
			StorageOptions: storage.Options{
				SegmentBytes: cfg.SegmentBytes,
			},
			TickInterval:     cfg.TickInterval,
			SnapshotInterval: cfg.SnapshotInterval,
			NewEngine: func(g int) protocol.Engine {
				return raftstar.New(raftstar.Config{
					ID: peers[i], Peers: peers, ElectionTicks: 20, HeartbeatTicks: 2,
					Seed: int64(7 + g), ReadIndex: true, Passive: passive,
					FastPath: cfg.FastPath,
				})
			},
		})
	}

	var (
		hosts    = make([]*cluster.Host, cfg.Replicas)
		tcps     []*transport.TCP
		closeNet func()
		err      error
	)
	if cfg.UseTCP {
		cluster.RegisterMessages()
		// Every transport listens on :0 first, then the shared address map
		// is filled from the live listeners before any node starts — no
		// reserve-close-rebind window another process could steal a port
		// in. Dials read the map only from writer goroutines spawned after
		// the first Send, which happens after Start below.
		addrs := map[protocol.NodeID]string{}
		for _, id := range peers {
			addrs[id] = "127.0.0.1:0"
		}
		tcps = make([]*transport.TCP, cfg.Replicas)
		for i := range peers {
			lazy := &lazyTransport{}
			if hosts[i], err = newHost(i, lazy, false); err != nil {
				return nil, err
			}
			tcp, err := transport.NewTCPGroups(peers[i], addrs, hosts[i].HandleMessage, transport.TCPOptions{})
			if err != nil {
				return nil, err
			}
			lazy.set(tcp)
			tcps[i] = tcp
		}
		for i, id := range peers {
			addrs[id] = tcps[i].Addr()
		}
		closeNet = func() {
			for _, tcp := range tcps {
				tcp.Close()
			}
		}
	} else {
		chnet := transport.NewChanNetwork()
		for i := range peers {
			if hosts[i], err = newHost(i, chnet, false); err != nil {
				return nil, err
			}
			chnet.ListenGroups(peers[i], hosts[i].HandleMessage)
		}
		closeNet = func() { chnet.Close() }
	}
	for _, h := range hosts {
		h.Start()
	}

	// Every group elects its own leader; clients route each key to its
	// group's leader directly (the closed loop is the client, not a proxy).
	leaders := make([]*cluster.Node, cfg.Groups)
	for g := range leaders {
		if leaders[g], err = awaitGroupLeader(hosts, g, 10*time.Second); err != nil {
			return nil, err
		}
	}

	// Fast-path runs submit writes at a non-leader replica; classic runs
	// keep routing them to the leader.
	writers := leaders
	if cfg.FastPath {
		writers = make([]*cluster.Node, cfg.Groups)
		for g := range writers {
			writers[g] = leaders[g]
			for _, h := range hosts {
				if nd := h.Group(g); !nd.IsLeader() {
					writers[g] = nd
					break
				}
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()
	value := make([]byte, cfg.ValueSize)
	var next, completed atomic.Int64
	var tFirstWindow, tLastWindowStart atomic.Int64 // UnixNano marks
	groupWrites := make([]atomic.Int64, cfg.Groups)
	errCh := make(chan error, cfg.Clients)
	var wg sync.WaitGroup
	// Per-client latency samples, merged after the run (no shared state on
	// the hot path).
	readDurs := make([][]time.Duration, cfg.Clients)
	writeDurs := make([][]time.Duration, cfg.Clients)

	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*997 + 1))
			for {
				op := next.Add(1)
				if op > int64(cfg.Ops) {
					return
				}
				key := fmt.Sprintf("bench-%d", op%int64(cfg.KeySpace))
				g := cluster.GroupForKey(key, cfg.Groups)
				if cfg.ReadRatio > 0 && rng.Float64() < cfg.ReadRatio {
					t0 := time.Now()
					if _, err := leaders[g].Get(ctx, key); err != nil {
						errCh <- err
						return
					}
					readDurs[c] = append(readDurs[c], time.Since(t0))
				} else {
					t0 := time.Now()
					if err := writers[g].Put(ctx, key, value); err != nil {
						errCh <- err
						return
					}
					writeDurs[c] = append(writeDurs[c], time.Since(t0))
					groupWrites[g].Add(1)
				}
				done := completed.Add(1)
				switch {
				case done == int64(cfg.WindowOps):
					tFirstWindow.Store(time.Now().UnixNano())
				case done == int64(cfg.Ops-cfg.WindowOps):
					tLastWindowStart.Store(time.Now().UnixNano())
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	close(errCh)
	if err := <-errCh; err != nil {
		for _, h := range hosts {
			h.Stop()
		}
		closeNet()
		return nil, err
	}

	// Read-mix metrics first: CommitsPerSec must count only the writes —
	// reads commit nothing, and diluting the commit rate with them would
	// make runs at different -reads ratios incomparable. (The first/last
	// window rates intentionally count all ops: they exist to compare the
	// run against itself for degradation, and both windows carry the same
	// mix.)
	var allReads []time.Duration
	for _, durs := range readDurs {
		allReads = append(allReads, durs...)
	}
	res := &LongRunResult{
		Ops:           cfg.Ops,
		Groups:        cfg.Groups,
		ElapsedMS:     float64(elapsed.Microseconds()) / 1e3,
		CommitsPerSec: float64(cfg.Ops-len(allReads)) / elapsed.Seconds(),
		WindowOps:     cfg.WindowOps,
	}
	res.AllocBytesPerOp = float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / float64(cfg.Ops)
	if ns := tFirstWindow.Load(); ns > 0 {
		res.FirstWindowPerSec = float64(cfg.WindowOps) / time.Unix(0, ns).Sub(start).Seconds()
	}
	if ns := tLastWindowStart.Load(); ns > 0 {
		res.LastWindowPerSec = float64(cfg.WindowOps) / time.Since(time.Unix(0, ns)).Seconds()
	}
	// Fsyncs/entry both in aggregate and per group: the scaling claim
	// requires each group's batching to stay as effective as the
	// single-group baseline, not just the total to grow.
	groupStore := func(i, g int) *storage.File {
		return hosts[i].GroupStore(g).(*storage.File)
	}
	res.GroupCommitsPerSec = make([]float64, cfg.Groups)
	res.GroupFsyncsPerEntry = make([]float64, cfg.Groups)
	var syncs, entries uint64
	for g := 0; g < cfg.Groups; g++ {
		res.GroupCommitsPerSec[g] = float64(groupWrites[g].Load()) / elapsed.Seconds()
		var gs, ge uint64
		for i := range hosts {
			gs += groupStore(i, g).SyncCount()
			ge += groupStore(i, g).EntryCount()
		}
		if ge > 0 {
			res.GroupFsyncsPerEntry[g] = float64(gs) / float64(ge)
		}
		syncs += gs
		entries += ge
	}
	if entries > 0 {
		res.FsyncsPerEntry = float64(syncs) / float64(entries)
	}

	// Merged read samples plus the per-node fast/log read counters —
	// ReadLogAppends is the count the fast path exists to keep at zero.
	if len(allReads) > 0 {
		sort.Slice(allReads, func(i, j int) bool { return allReads[i] < allReads[j] })
		res.Reads = len(allReads)
		res.ReadsPerSec = float64(len(allReads)) / elapsed.Seconds()
		res.ReadP50MS = float64(allReads[len(allReads)/2].Microseconds()) / 1e3
		res.ReadP99MS = float64(allReads[len(allReads)*99/100].Microseconds()) / 1e3
	}
	var allWrites []time.Duration
	for _, durs := range writeDurs {
		allWrites = append(allWrites, durs...)
	}
	if len(allWrites) > 0 {
		sort.Slice(allWrites, func(i, j int) bool { return allWrites[i] < allWrites[j] })
		res.WriteP50MS = float64(allWrites[len(allWrites)/2].Microseconds()) / 1e3
		res.WriteP99MS = float64(allWrites[len(allWrites)*99/100].Microseconds()) / 1e3
	}
	eachNode := func(fn func(nd *cluster.Node)) {
		for _, h := range hosts {
			for g := 0; g < cfg.Groups; g++ {
				fn(h.Group(g))
			}
		}
	}
	eachNode(func(nd *cluster.Node) {
		_, logged := nd.ReadStats()
		res.ReadLogAppends += logged
		syncNS, batches, stallNS, inflight := nd.PersistStats()
		res.SyncNSTotal += syncNS
		res.SyncBatches += batches
		res.LoopStallNS += stallNS
		if inflight > res.PersistInflightMax {
			res.PersistInflightMax = inflight
		}
		chunks, bytes, installs := nd.SnapshotTransferStats()
		res.SnapshotTransfers += chunks
		res.SnapshotTransferBytes += bytes
		res.SnapshotInstalls += installs
		_, total := nd.SnapshotFailures()
		res.SnapshotFailures += total
	})
	for _, tcp := range tcps {
		st := tcp.Stats()
		res.TransportFrames += st.FramesSent
		res.TransportFramesCompressed += st.FramesCompressed
		res.TransportRawBytes += st.RawBytes
		res.TransportWireBytes += st.WireBytes
		res.TransportFramesDropped += st.DroppedFrames
		res.EncodeNSTotal += st.EncodeNanos
	}
	if len(tcps) > 0 {
		res.GroupWireRecordsSent = make([]int64, cfg.Groups)
		res.GroupWireBytesSent = make([]int64, cfg.Groups)
		for _, tcp := range tcps {
			for g, st := range tcp.GroupStats() {
				if g < uint64(cfg.Groups) {
					res.GroupWireRecordsSent[g] += st.RecordsSent
					res.GroupWireBytesSent[g] += st.BytesSent
				}
			}
		}
	}

	// The restart trial targets the replica that led group 0; snapshot the
	// per-group applied indexes it must recover to before stopping it.
	leaderID := leaders[0].ID()
	appliedBefore := make([]int64, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		appliedBefore[g] = hosts[leaderID].Group(g).Store().AppliedIndex()
	}
	for _, h := range hosts {
		h.Stop()
	}
	closeNet()

	// Fast-path counters are engine state, read after the event loops stop.
	var conflicts int64
	for _, h := range hosts {
		for g := 0; g < cfg.Groups; g++ {
			fs := h.Group(g).FastPathStats()
			res.FastCommits += fs.FastCommits
			res.ClassicFallbacks += fs.ClassicFallbacks
			conflicts += fs.Conflicts
		}
	}
	if t := res.FastCommits + res.ClassicFallbacks; t > 0 {
		res.ConflictRate = float64(conflicts) / float64(t)
	}

	// Boundedness figures come from group 0's store on that replica (the
	// single-group numbers, unchanged in meaning when Groups is 1); the
	// counters are plain in-memory reads, valid after close.
	lst := groupStore(int(leaderID), 0)
	res.WALBytes = lst.WALBytes()
	res.WALSegments = lst.SegmentCount()
	if snap, ok, _ := lst.LatestSnapshot(); ok {
		res.SnapshotIndex = snap.Index
	}
	if ll, ok := hosts[leaderID].Group(0).Engine().(interface{ LogLen() int }); ok {
		res.EngineLogLen = ll.LogLen()
	}

	// Restart that replica's whole host from its directory and time how
	// long until every group's state machine is back at its pre-shutdown
	// applied index: with compaction this is snapshot-load + tail-replay
	// per group, however long the run was.
	restartStart := time.Now()
	renet := transport.NewChanNetwork()
	defer renet.Close()
	re, err := newHost(int(leaderID), renet, true)
	if err != nil {
		return nil, err
	}
	renet.ListenGroups(leaderID, re.HandleMessage)
	re.Start()
	defer re.Stop()
	targets := make([]int64, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		hs, _ := re.GroupStore(g).HardState()
		targets[g] = hs.Commit
		if targets[g] > appliedBefore[g] {
			targets[g] = appliedBefore[g]
		}
	}
	deadline := time.Now().Add(time.Minute)
	for g := 0; g < cfg.Groups; g++ {
		for re.Group(g).Store().AppliedIndex() < targets[g] {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("bench: restart never reached group %d applied %d (at %d)",
					g, targets[g], re.Group(g).Store().AppliedIndex())
			}
			time.Sleep(time.Millisecond)
		}
	}
	res.RestartMS = float64(time.Since(restartStart).Microseconds()) / 1e3
	res.RestartAppliedIndex = re.Group(0).Store().AppliedIndex()
	return res, nil
}

// awaitGroupLeader waits for some host's replica of group g to observe
// itself leader.
func awaitGroupLeader(hosts []*cluster.Host, g int, timeout time.Duration) (*cluster.Node, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, h := range hosts {
			if h.Group(g).IsLeader() {
				return h.Group(g), nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: group %d never elected a leader", g)
		}
		time.Sleep(time.Millisecond)
	}
}
