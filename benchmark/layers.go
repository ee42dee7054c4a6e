package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"raftpaxos"
	"raftpaxos/internal/cluster"
	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/snappy"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
	"raftpaxos/internal/wire"
)

// The isolated layer drives time calls into one module's public functions
// with nothing else running, on inputs drawn from the same seeded
// keyspace the workloads use. They do not depend on the workload, so a
// process runs them once and every traced workload reports the same
// numbers.

// driveFor calls step (which does n units of work) until about d has
// passed and returns the mean nanoseconds per unit.
func driveFor(d time.Duration, n int, step func()) float64 {
	start := time.Now()
	units := 0
	for time.Since(start) < d {
		step()
		units += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

// benchEntries builds n log entries as the workloads write them.
func benchEntries(ks *keyspace, rng *rand.Rand, first int64, n int) []protocol.Entry {
	ents := make([]protocol.Entry, n)
	for i := range ents {
		key := ks.zipf.next(rng)
		val := make([]byte, valueSize)
		encodeValue(val, uint32(key), uint64(i+1), uint64(first)+uint64(i))
		copy(val[valueHeader:], ks.filler)
		ents[i] = protocol.Entry{
			Index: first + int64(i), Term: 1, Bal: 1,
			Cmd: protocol.Command{ID: uint64(first) + uint64(i), Client: 0, Op: protocol.OpPut, Key: ks.names[key], Value: val},
		}
	}
	return ents
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// driveWire times the codec on the message that carries nearly all
// replicated bytes: a raftstar append of 64 entries with 64 B values.
// It also returns the encoded record for the snappy drive.
func driveWire(ks *keyspace, seed int64, d time.Duration, out map[string]float64) ([]byte, error) {
	const batch = 64
	rng := rand.New(rand.NewSource(seed))
	msg := &raftstar.MsgAppendReq{Term: 1, PrevIndex: 1000, PrevTerm: 1, Commit: 1000,
		Entries: benchEntries(ks, rng, 1001, batch)}
	buf, err := wire.AppendMessage(nil, 0, msg)
	if err != nil {
		return nil, err
	}
	out["wire.bytes_per_entry"] = float64(len(buf)) / batch
	out["wire.encode_ns_per_entry"] = driveFor(d, batch, func() {
		buf, _ = wire.AppendMessage(buf[:0], 0, msg)
	})
	var rd wire.Reader
	var derr error
	out["wire.decode_ns_per_entry"] = driveFor(d, batch, func() {
		rd.Reset(buf)
		if _, _, err := wire.DecodeMessage(&rd); err != nil {
			derr = err
		}
	})
	if derr != nil {
		return nil, derr
	}
	const rounds = 200
	before := mallocs()
	for i := 0; i < rounds; i++ {
		buf, _ = wire.AppendMessage(buf[:0], 0, msg)
		rd.Reset(buf)
		_, _, _ = wire.DecodeMessage(&rd) // checked above on the same bytes
	}
	out["wire.allocs_per_msg"] = float64(mallocs()-before) / rounds
	return buf, nil
}

// driveSnappy compresses the bytes driveWire produced, as the TCP writer
// would for a frame above its compression threshold.
func driveSnappy(raw []byte, d time.Duration, out map[string]float64) error {
	dst := make([]byte, 0, snappy.MaxEncodedLen(len(raw)))
	enc := snappy.Encode(dst, raw)
	dec, err := snappy.Decode(nil, enc)
	if err != nil || string(dec) != string(raw) {
		return fmt.Errorf("snappy round trip failed: %v", err)
	}
	out["snappy.ratio"] = float64(len(raw)) / float64(len(enc))
	nsPerByte := driveFor(d, len(raw), func() { dst = snappy.Encode(dst[:0], raw) })
	out["snappy.encode_mb_per_s"] = 1e9 / nsPerByte / 1e6
	return nil
}

func driveKVStore(ks *keyspace, seed int64, d time.Duration, out map[string]float64) error {
	rng := rand.New(rand.NewSource(seed))
	ents := benchEntries(ks, rng, 1, 8192)
	st := kvstore.New()
	out["kvstore.apply_ns_per_op"] = driveFor(d, len(ents), func() {
		for i := range ents {
			st.Apply(ents[i])
		}
	})
	big := kvstore.New()
	for i := 0; i < 10000; i++ {
		e := ents[i%len(ents)]
		e.Index = int64(i + 1)
		e.Cmd.Key = fmt.Sprintf("%s-%d", e.Cmd.Key, i)
		big.Apply(e)
	}
	var serr error
	out["kvstore.snapshot_ms_per_10k_keys"] = driveFor(d, 1, func() {
		if _, err := big.Snapshot(); err != nil {
			serr = err
		}
	}) / 1e6
	return serr
}

// driveStorage measures the disk under the store (a bare 4 KB write and
// fsync: a canary for a noisy device, not for the program), WAL replay
// and a snapshot save, in a scratch directory under dir.
func driveStorage(ks *keyspace, seed int64, dir string, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	f, err := os.Create(filepath.Join(dir, "canary"))
	if err != nil {
		return err
	}
	block := make([]byte, 4096)
	var syncs []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		syncs = append(syncs, float64(time.Since(start))/float64(time.Millisecond))
	}
	if err := f.Close(); err != nil {
		return err
	}
	sort.Float64s(syncs)
	out["storage.device_fsync_ms_p50"] = percentile(syncs, 50)

	const logLen = 20000
	rng := rand.New(rand.NewSource(seed))
	walDir := filepath.Join(dir, "wal")
	st, err := storage.OpenFile(walDir)
	if err != nil {
		return err
	}
	for first := int64(1); first <= logLen; first += 64 {
		if err := st.AppendBuffered(benchEntries(ks, rng, first, 64)); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	var replays []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		st, err = storage.OpenFile(walDir)
		if err != nil {
			return err
		}
		replays = append(replays, float64(time.Since(start))/float64(time.Millisecond))
		if last, _ := st.LastIndex(); last < logLen {
			st.Close()
			return fmt.Errorf("replay recovered %d of %d entries", last, logLen)
		}
		if i < 4 {
			if err := st.Close(); err != nil {
				return err
			}
		}
	}
	out["storage.replay_ms_per_10k"] = median(replays) * 10000 / logLen

	kv := kvstore.New()
	for _, e := range benchEntries(ks, rng, 1, 4*keyCount) {
		kv.Apply(e)
	}
	image, err := kv.Snapshot()
	if err != nil {
		st.Close()
		return err
	}
	var saves []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := st.SaveSnapshot(storage.Snapshot{Index: int64(100 + i), Term: 1, State: image}); err != nil {
			st.Close()
			return err
		}
		saves = append(saves, float64(time.Since(start))/float64(time.Millisecond))
	}
	out["storage.snapshot_save_ms"] = median(saves)
	return st.Close()
}

// driveTransport bounces one small message between two transport.TCP
// endpoints on loopback, one round trip at a time: the floor under
// stage.leader_append_to_follower_append_ms.
func driveTransport(out map[string]float64) error {
	cluster.RegisterMessages()
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	pong := make(chan struct{}, 1) // one round trip in flight at a time
	a, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) { pong <- struct{}{} })
	if err != nil {
		return err
	}
	defer a.Close()
	var echo atomic.Pointer[transport.TCP] // b's handler needs b
	b, err := transport.NewTCP(1, addrs, func(_ protocol.NodeID, m protocol.Message) { echo.Load().Send(1, 0, m) })
	if err != nil {
		return err
	}
	defer b.Close()
	echo.Store(b)
	addrs[0], addrs[1] = a.Addr(), b.Addr()
	msg := &cluster.MsgReply{CmdID: 1}
	var rtts []float64
	for i := 0; i < 2200; i++ {
		start := time.Now()
		a.Send(0, 1, msg)
		select {
		case <-pong:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("loopback ping %d lost", i)
		}
		if i >= 200 { // connections dialled and warm
			rtts = append(rtts, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	sort.Float64s(rtts)
	out["transport.loopback_rtt_us_p50"] = percentile(rtts, 50)
	return nil
}

// driveEngine wires three raftstar engines together by direct calls in
// one goroutine — no disk, no sockets, no clock — and times a batch of 64
// writes from SubmitBatch to commit at the leader.
func driveEngine(ks *keyspace, seed int64, d time.Duration, out map[string]float64) error {
	peers := []protocol.NodeID{0, 1, 2}
	engines := make([]protocol.Engine, len(peers))
	for i, id := range peers {
		engines[i] = raftpaxos.NewEngine(raftpaxos.ClusterConfig{Protocol: raftpaxos.ProtoRaftStar, Nodes: 3}, id, peers)
	}
	leader, commits := -1, 0
	var queue []protocol.Envelope
	deliver := func(at int, o protocol.Output) {
		for {
			if at == leader {
				commits += len(o.Commits)
			}
			queue = append(queue, o.Msgs...)
			if len(queue) == 0 {
				return
			}
			env := queue[0]
			queue = queue[1:]
			at, o = int(env.To), engines[env.To].Step(env.From, env.Msg)
		}
	}
	for tick := 0; tick < 1000 && leader < 0; tick++ {
		for i, e := range engines {
			deliver(i, e.Tick())
			if e.IsLeader() {
				leader = i
			}
		}
	}
	if leader < 0 {
		return fmt.Errorf("engine drive: no leader after 1000 ticks")
	}
	// Commands are built before the clock starts; only their IDs change
	// from batch to batch.
	const batch = 64
	pool := benchEntries(ks, rand.New(rand.NewSource(seed)), 1, 256*batch)
	cmds := make([]protocol.Command, batch)
	commits = 0
	submitted := 0
	ns := driveFor(d, batch, func() {
		for i := range cmds {
			cmds[i] = pool[(submitted+i)%len(pool)].Cmd
			cmds[i].ID = uint64(submitted + i + 1)
		}
		submitted += batch
		deliver(leader, protocol.SubmitAll(engines[leader], cmds))
	})
	if commits < submitted {
		return fmt.Errorf("engine drive: %d of %d writes committed", commits, submitted)
	}
	out["engine.step_ns_per_op"] = ns
	return nil
}

// driveSingleNode runs one replica alone — event loop and fsync, no
// network hop — with one closed-loop writer: the baseline under
// write_p50_ms.
func driveSingleNode(ks *keyspace, dir string, d time.Duration, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := startRig(dir, 1, nil)
	if err != nil {
		return err
	}
	defer r.stop()
	ctx, cancel := context.WithTimeout(context.Background(), d+opTimeout)
	defer cancel()
	lr := &loadRun{rig: r, ks: ks, t0: time.Now(), measure: d}
	res := lr.runClosed(ctx, stream{clients: 1}, 1)
	if res.failed > 0 || len(res.writes) == 0 {
		return fmt.Errorf("single-node drive: %d of %d writes failed", res.failed, res.attempted)
	}
	lat := make([]float64, len(res.writes))
	for i, s := range res.writes {
		lat[i] = float64(s.latency) / float64(time.Millisecond)
	}
	sort.Float64s(lat)
	out["cluster.single_node_write_p50_ms"] = percentile(lat, 50)
	return nil
}

// runLayerDrives runs every isolated drive once, each for about d.
func runLayerDrives(seed int64, dir string, d time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	ks := newKeyspace(seed)
	raw, err := driveWire(ks, seed, d, out)
	if err != nil {
		return nil, err
	}
	if err := driveSnappy(raw, d, out); err != nil {
		return nil, err
	}
	if err := driveKVStore(ks, seed, d, out); err != nil {
		return nil, err
	}
	if err := driveStorage(ks, seed, filepath.Join(dir, "storage-drive"), out); err != nil {
		return nil, err
	}
	if err := driveTransport(out); err != nil {
		return nil, err
	}
	if err := driveEngine(ks, seed, d, out); err != nil {
		return nil, err
	}
	if err := driveSingleNode(ks, filepath.Join(dir, "single-node"), 2*d, out); err != nil {
		return nil, err
	}
	return out, nil
}
