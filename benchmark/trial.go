package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"raftpaxos"
	"raftpaxos/internal/cluster"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/transport"
)

// workload is one named set of inputs. The three live workloads drive the
// rig; wan-sim runs the paper's simulated WAN instead (see wansim.go).
type workload struct {
	name    string
	why     string
	streams []stream
}

// readProbe rides on the write workloads: a trickle of linearizable reads
// spread over all replicas, so that read latency under write load is
// measured everywhere a write-side change could starve it.
var readProbe = stream{rate: 200, readShare: 1}

var liveWorkloads = []workload{
	{
		name: "steady-write",
		why:  "open loop 6000 writes/s, CPU mostly idle: latency is the blocking chain of wake-ups, peer hop and fsync; CPU savings should not show",
		streams: []stream{
			{rate: 6000},
			readProbe,
		},
	},
	{
		name: "saturate-write",
		why:  "closed loop 32 writers at the leader: batching hides fsync, per-op CPU sets throughput; fsync time should not show",
		streams: []stream{
			{clients: 32},
			readProbe,
		},
	},
	{
		name: "read-mix",
		why:  "open loop 8000 ops/s, 90% ReadIndex Gets over all replicas + 10% Puts: reads share loop and transport but bypass the WAL",
		streams: []stream{
			{rate: 8000, readShare: 0.9},
		},
	},
}

const wanSimName = "wan-sim"

const wanSimWhy = "raftstar on the paper's 5-site WAN in seeded virtual time: message delay dominates, so protocol rounds show and CPU/disk changes do not"

func findWorkload(name string) (workload, bool) {
	for _, w := range liveWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// trialTiming is how long each phase of a live trial lasts.
type trialTiming struct {
	warmup, measure time.Duration
}

// Validity limits: a trial whose open-loop generator ran later than this
// (p99 in the median window), or during which leadership moved,
// measured the generator or an election and not the workload; it is rerun
// once. A workload with a closed-loop stream saturates the cores it
// shares with the generator by design, so its probe's lateness is
// reported but not held against the trial.
const maxLateP99Ms = 5.0

// trialResult is one live trial: the end-to-end numbers, the failure
// accounting, and the raw material the per-layer reduction needs.
type trialResult struct {
	setup     time.Duration
	e2e       map[string]float64
	attempted int64
	failed    int64  // errors, timeouts and check violations
	invalid   string // why the trial should be rerun; "" when valid

	t0      time.Time
	leader  int
	measure time.Duration
	writes  [][]float64 // windows of write latencies, ms
	reads   [][]float64
	late    [][]float64 // windows of generator lateness, ms
	backlog int

	// Traced trials only.
	wsamp          []sample // measured writes with their op ids
	probe          *probe
	termChanges    uint64
	restartCatchup time.Duration
}

// latencyMetrics reduces windows of write and read latencies to the
// end-to-end numbers (see quietPercentile for why the quietest window).
func latencyMetrics(writes, reads [][]float64) map[string]float64 {
	return map[string]float64{
		"write_p50_ms":  quietPercentile(writes, 50),
		"write_p90_ms":  quietPercentile(writes, 90),
		"commits_per_s": quietRate(writes, windowWidth),
		"read_p50_ms":   quietPercentile(reads, 50),
	}
}

// runTrial runs one trial of a live workload in dir (created and removed
// here): fresh directories, fresh cluster, preload, warm-up, measured
// interval, output checks, teardown.
func runTrial(dir string, wl workload, seed int64, tm trialTiming, tr *tracer) (*trialResult, error) {
	begin := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r, err := startRig(dir, 3, tr)
	if err != nil {
		return nil, err
	}
	defer r.stop()

	lr := &loadRun{rig: r, ks: newKeyspace(seed), warmup: tm.warmup, measure: tm.measure}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lr.t0 = time.Now() // preload latencies are not reported; any base will do
	if err := lr.preload(ctx); err != nil {
		return nil, err
	}
	lr.t0 = time.Now().Add(tm.warmup)
	end := lr.t0.Add(tm.measure)
	// One deadline for the whole trial replaces a timer per operation: an
	// operation still outstanding opTimeout after the interval fails here,
	// and one that returns later than opTimeout is counted failed by its
	// caller.
	ctx, cancelRun := context.WithDeadline(ctx, end.Add(opTimeout))
	defer cancelRun()

	res := &trialResult{t0: lr.t0, leader: r.leader, measure: tm.measure}
	var termAtStart uint64
	startMarks := make(chan struct{})
	go func() {
		defer close(startMarks)
		time.Sleep(time.Until(lr.t0))
		termAtStart = r.term()
		if tr != nil {
			res.probe = startProbe(r, tr, end)
		}
	}()
	streams := lr.run(ctx, wl.streams, seed)
	<-startMarks
	res.setup = lr.t0.Sub(begin)
	if res.probe != nil {
		res.probe.finish()
	}
	if res.termChanges = r.term() - termAtStart; res.termChanges != 0 {
		res.invalid = fmt.Sprintf("term moved by %d during the measured interval", res.termChanges)
	}

	var writes, reads, late []sample
	closed := false
	for i := range streams {
		s := &streams[i]
		writes = append(writes, s.writes...)
		reads = append(reads, s.reads...)
		late = append(late, s.late...)
		res.attempted += s.attempted
		res.failed += s.failed + s.stale
		if s.backlogMax > res.backlog {
			res.backlog = s.backlogMax
		}
		closed = closed || wl.streams[i].rate == 0
	}
	res.late = windowed(late, windowWidth, tm.measure)
	if p99 := median(perWindow(res.late, 99)); p99 > maxLateP99Ms && !closed && res.invalid == "" {
		res.invalid = fmt.Sprintf("load generator ran %.2f ms late at p99", p99)
	}
	violations, err := r.checkFinalState(lr.ks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "check:", err)
	}
	res.failed += violations

	res.writes = windowed(writes, windowWidth, tm.measure)
	res.reads = windowed(reads, windowWidth, tm.measure)
	res.e2e = latencyMetrics(res.writes, res.reads)
	res.e2e["setup_s"] = res.setup.Seconds()
	if tr != nil {
		for _, s := range writes {
			if s.due >= 0 && s.due < tm.measure {
				res.wsamp = append(res.wsamp, s)
			}
		}
		applied := r.leaderHost().Group(0).Store().AppliedIndex()
		r.stop()
		if res.restartCatchup, err = restartCatchup(dir, r.leader, applied); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// restartCatchup restarts one replica alone from its directory and times
// how long its state machine takes to get back to where it was: snapshot
// load plus replay of the WAL tail above it.
func restartCatchup(dir string, replica int, applied int64) (time.Duration, error) {
	start := time.Now()
	net := transport.NewChanNetwork()
	defer net.Close()
	id := protocol.NodeID(replica)
	h, err := cluster.NewHost(cluster.HostConfig{
		Groups:           1,
		Transport:        net,
		SnapshotInterval: snapshotInterval,
		DataDir:          replicaDir(dir, replica),
		NewEngine: func(int) protocol.Engine {
			return raftpaxos.NewEngine(raftpaxos.ClusterConfig{Protocol: raftpaxos.ProtoRaftStar, Nodes: 3},
				id, []protocol.NodeID{0, 1, 2})
		},
	})
	if err != nil {
		return 0, err
	}
	net.ListenGroups(id, h.HandleMessage)
	h.Start()
	defer h.Stop()
	// The durable commit index trails the applied index by at most one
	// throttled hard-state save; a lone replica cannot commit past it.
	target := applied
	if hs, err := h.GroupStore(0).HardState(); err == nil && hs.Commit < target {
		target = hs.Commit
	}
	deadline := start.Add(30 * time.Second)
	for h.Group(0).Store().AppliedIndex() < target {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("restarted replica %d stuck at applied index %d of %d",
				replica, h.Group(0).Store().AppliedIndex(), target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start), nil
}

// runValidTrial runs a trial and, if it comes back invalid, runs it once
// more; the second result stands either way.
func runValidTrial(dir string, wl workload, seed int64, tm trialTiming, traced bool) (*trialResult, *tracer, error) {
	for attempt := 0; ; attempt++ {
		var tr *tracer
		if traced {
			tr = newTracer(3)
		}
		res, err := runTrial(dir, wl, seed, tm, tr)
		if err != nil {
			return nil, nil, err
		}
		if res.invalid == "" {
			return res, tr, nil
		}
		if attempt == 1 {
			fmt.Fprintf(os.Stderr, "%s: trial still invalid after a rerun (%s); keeping it\n", wl.name, res.invalid)
			return res, tr, nil
		}
		fmt.Fprintf(os.Stderr, "%s: invalid trial (%s); rerunning once\n", wl.name, res.invalid)
	}
}
