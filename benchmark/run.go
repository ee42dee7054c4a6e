package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, traced or not. The JSON form is
// the line a run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// spread is (max-min)/median over the trials behind each end-to-end
	// metric; kept for the result-set file, not printed on the last line.
	spread map[string]float64
}

func newRunResult() *runResult {
	return &runResult{Metrics: make(map[string]metricValue), spread: make(map[string]float64)}
}

func (r *runResult) set(name string, value, spread float64) {
	spec, ok := specOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = metricValue{Value: value, Unit: spec.Unit}
	r.spread[name] = spread
}

// complete checks that the run reports exactly the metrics of table and
// settles Correct.
func (r *runResult) complete(table []metricSpec) error {
	if len(r.Metrics) != len(table) {
		return fmt.Errorf("run reports %d metrics, the table has %d", len(r.Metrics), len(table))
	}
	for _, m := range table {
		if _, ok := r.Metrics[m.Name]; !ok {
			return fmt.Errorf("run does not report %s", m.Name)
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}

// session holds what one process needs across workloads: the options and
// the workload-independent measurements, taken once.
type session struct {
	seed    int64
	seconds int           // measured seconds per run, split evenly over the trials
	trials  int           // live trials per untraced run
	warmup  time.Duration // per live trial
	drive   time.Duration // per isolated layer drive
	dataDir string        // trial directories are made and removed under here
	outDir  string        // trace files

	layers *sharedLayers
}

// sharedLayers is the part of a traced run that does not depend on the
// workload: the isolated drives and the wan-sim protocol suite.
type sharedLayers struct {
	metrics    map[string]float64
	violations int64
	wan        wanNumbers // totals over the suite
	wanRuntime map[string]float64
}

func (s *session) perTrial() time.Duration {
	return time.Duration(s.seconds) * time.Second / time.Duration(s.trials)
}

func (s *session) trialDir(wl workload, tag string) string {
	return filepath.Join(s.dataDir, wl.name+"-"+tag)
}

// run runs one workload by name, untraced (end-to-end metrics, wrappers
// off) or traced (per-layer metrics).
func (s *session) run(name string, traced bool) (*runResult, error) {
	var res *runResult
	var err error
	wl, live := findWorkload(name)
	switch {
	case live && traced:
		res, err = s.runLiveTraced(wl)
	case live:
		res, err = s.runLive(wl)
	case name == wanSimName && traced:
		res, err = s.runWanSimTraced()
	case name == wanSimName:
		res, err = runWanSim(s.seed, time.Duration(s.seconds)*time.Second)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	return res, res.complete(table)
}

// runLive runs the untraced trials of a live workload — fresh
// directories and cluster each, seed+trial — and reports every latency
// and rate over the windows of all trials together, and the median of
// the trials' set-up times. The trials' own values give each metric's
// spread.
func (s *session) runLive(wl workload) (*runResult, error) {
	res := newRunResult()
	perTrial := make(map[string][]float64)
	var writes, reads [][]float64
	for t := 0; t < s.trials; t++ {
		tr, _, err := runValidTrial(s.trialDir(wl, fmt.Sprint(t)), wl, s.seed+int64(t),
			trialTiming{warmup: s.warmup, measure: s.perTrial()}, false)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		writes, reads = append(writes, tr.writes...), append(reads, tr.reads...)
		for k, v := range tr.e2e {
			perTrial[k] = append(perTrial[k], v)
		}
	}
	for k, v := range latencyMetrics(writes, reads) {
		res.set(k, v, spread(perTrial[k]))
	}
	res.set("setup_s", median(perTrial["setup_s"]), spread(perTrial["setup_s"]))
	return res, nil
}

func count(wins [][]float64) float64 {
	n := 0
	for _, w := range wins {
		n += len(w)
	}
	return float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runLiveTraced runs an untraced reference trial and a traced trial on
// the same inputs, reduces the traced one to the per-layer table, and
// adds the workload-independent layers.
func (s *session) runLiveTraced(wl workload) (*runResult, error) {
	tm := trialTiming{warmup: s.warmup, measure: s.perTrial()}
	ref, _, err := runValidTrial(s.trialDir(wl, "ref"), wl, s.seed, tm, false)
	if err != nil {
		return nil, err
	}
	t, tc, err := runValidTrial(s.trialDir(wl, "traced"), wl, s.seed, tm, true)
	if err != nil {
		return nil, err
	}
	shared, err := s.sharedLayers()
	if err != nil {
		return nil, err
	}
	res := newRunResult()
	res.Attempted = ref.attempted + t.attempted
	res.Failed = ref.failed + t.failed + shared.violations
	for k, v := range shared.metrics {
		res.set(k, v, 0)
	}

	writes, reads := count(t.writes), count(t.reads)
	ops := writes + reads
	secs := t.measure.Seconds()
	b, a := t.probe.before, t.probe.after

	res.set("loadgen.late_p50_ms", median(perWindow(t.late, 50)), 0)
	res.set("loadgen.late_p99_ms", median(perWindow(t.late, 99)), 0)
	res.set("loadgen.backlog_max", float64(t.backlog), 0)

	allWrites, allReads := flatten(t.writes), flatten(t.reads)
	res.set("client.write_p99_ms", percentile(allWrites, 99), 0)
	res.set("client.write_p999_ms", percentile(allWrites, 99.9), 0)
	res.set("client.read_p90_ms", quietPercentile(t.reads, 90), 0)
	res.set("client.read_p99_ms", percentile(allReads, 99), 0)
	stalls := stallWindows(t.writes)
	if n := stallWindows(t.reads); n > stalls {
		stalls = n
	}
	res.set("client.stall_windows", float64(stalls), 0)

	st, spans := tc.reduce(t.wsamp, t.t0, t.leader, 2000)
	res.set("stage.submit_to_leader_append_ms", st.submitToLeaderAppend, 0)
	res.set("stage.leader_append_to_follower_append_ms", st.leaderToFollowerAppend, 0)
	res.set("stage.follower_append_to_synced_ms", st.followerAppendToSynced, 0)
	res.set("stage.quorum_synced_to_reply_ms", st.quorumSyncedToReply, 0)
	res.set("stage.sum_vs_e2e_share", st.sumVsE2E, 0)
	_, byType := tc.messagesSent()
	if err := writeTraceFile(s.outDir, traceFile{
		Workload: wl.name, Seed: s.seed, Leader: t.leader, TracedOps: st.ops,
		MessagesSent: byType, MessagesReceived: tc.messagesReceived(), Spans: spans,
	}); err != nil {
		return nil, err
	}

	batches := float64(a.leaderBatches - b.leaderBatches)
	res.set("cluster.ops_per_batch", ratio(writes, batches), 0)
	res.set("cluster.sync_batches_per_s", batches/secs, 0)
	res.set("cluster.persist_stall_ms", float64(a.stallNs-b.stallNs)/1e6, 0)
	res.set("cluster.persist_inflight_max", float64(a.inflightMax), 0)
	res.set("cluster.follower_lag_p99_entries", percentile(t.probe.lag, 99), 0)
	fast, logged := float64(a.readsFast-b.readsFast), float64(a.readsLog-b.readsLog)
	res.set("cluster.reads_fast_share", ratio(fast, fast+logged), 0)
	res.set("cluster.read_log_appends", logged, 0)
	res.set("cluster.term_changes", float64(t.termChanges), 0)
	res.set("cluster.restart_catchup_ms", float64(t.restartCatchup)/float64(time.Millisecond), 0)

	syncMs, appendUs := tc.syncStats(t.t0, t.t0.Add(t.measure))
	res.set("storage.fsyncs_per_op", ratio(float64(a.fileSyncs-b.fileSyncs), writes), 0)
	res.set("storage.sync_ms_p50", percentile(syncMs, 50), 0)
	res.set("storage.sync_ms_p99", percentile(syncMs, 99), 0)
	res.set("storage.append_us_per_entry", appendUs, 0)
	res.set("storage.wal_bytes_per_op", ratio(float64(t.probe.walGrowth), writes), 0)

	frames := float64(a.tcp.FramesSent - b.tcp.FramesSent)
	res.set("transport.msgs_per_op", ratio(float64(a.traced-b.traced), ops), 0)
	res.set("transport.frames_per_op", ratio(frames, ops), 0)
	res.set("transport.wire_bytes_per_op", ratio(float64(a.tcp.WireBytes-b.tcp.WireBytes), ops), 0)
	res.set("transport.compressed_frame_share", ratio(float64(a.tcp.FramesCompressed-b.tcp.FramesCompressed), frames), 0)
	res.set("transport.encode_ns_per_op", ratio(float64(a.tcp.EncodeNanos-b.tcp.EncodeNanos), ops), 0)
	res.set("transport.dropped_frames", float64(a.tcp.DroppedFrames-b.tcp.DroppedFrames), 0)

	res.set("runtime.cpu_ms_per_kop", ratio(float64(a.cpu-b.cpu)/float64(time.Millisecond), ops/1000), 0)
	res.set("runtime.alloc_bytes_per_op", ratio(float64(a.allocBytes-b.allocBytes), ops), 0)
	res.set("runtime.gc_pause_ms", float64(a.gcPauseNs-b.gcPauseNs)/1e6, 0)
	res.set("runtime.heap_mb_max", float64(t.probe.heapMax)/1e6, 0)

	res.set("trace.overhead_share", ratio(ref.e2e["commits_per_s"]-t.e2e["commits_per_s"], ref.e2e["commits_per_s"]), 0)
	return res, nil
}

// runWanSimTraced reports the per-layer table for wan-sim. The simulator
// has no loopback sockets, WAL or event loop, so the layers it never
// enters report 0; the engines and the Go runtime are what it exercises.
func (s *session) runWanSimTraced() (*runResult, error) {
	shared, err := s.sharedLayers()
	if err != nil {
		return nil, err
	}
	res := newRunResult()
	res.Attempted, res.Failed = shared.wan.ops, shared.violations
	for _, m := range perLayer {
		res.set(m.Name, 0, 0)
	}
	for k, v := range shared.metrics {
		res.set(k, v, 0)
	}
	for k, v := range shared.wanRuntime {
		res.set(k, v, 0)
	}
	return res, nil
}

// sharedLayers runs the isolated drives and the wan-sim suite the first
// time a traced run asks for them.
func (s *session) sharedLayers() (*sharedLayers, error) {
	if s.layers != nil {
		return s.layers, nil
	}
	drives, err := runLayerDrives(s.seed, s.dataDir, s.drive)
	if err != nil {
		return nil, err
	}
	var before, after counters
	readRuntime(&before)
	wan, total, violations, err := wanSuite(s.seed, time.Duration(s.seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	readRuntime(&after)
	heap := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(heap)
	kops := float64(total.ops) / 1000
	sl := &sharedLayers{metrics: drives, violations: violations, wan: total, wanRuntime: map[string]float64{
		"runtime.cpu_ms_per_kop":     ratio(float64(after.cpu-before.cpu)/float64(time.Millisecond), kops),
		"runtime.alloc_bytes_per_op": ratio(float64(after.allocBytes-before.allocBytes), float64(total.ops)),
		"runtime.gc_pause_ms":        float64(after.gcPauseNs-before.gcPauseNs) / 1e6,
		"runtime.heap_mb_max":        float64(heap[0].Value.Uint64()) / 1e6,
	}}
	for k, v := range wan {
		sl.metrics[k] = v
	}
	s.layers = sl
	return sl, nil
}
