package main

import "strings"

// metricSpec names one metric. BENCHMARK.json carries the same table;
// TestBenchmarkJSONMatchesSpec keeps the two from drifting apart.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the old median a metric may worsen by
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; on wan-sim the times are virtual. The bounds are as
// wide as the contract allows because the shared disk is as noisy as it
// is: ten runs of one binary spread (interquartile, over their median) by
// up to 18% on the live workloads (3-9% while the disk is quiet).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "commits_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is measured in the traced run; the prefix is the module. A
// layer a workload never enters reports 0 for that workload.
var perLayer = []metricSpec{
	{Name: "loadgen.late_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},

	{Name: "client.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.stall_windows", Unit: "count", Better: "lower"},

	{Name: "stage.submit_to_leader_append_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.leader_append_to_follower_append_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.follower_append_to_synced_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.quorum_synced_to_reply_ms", Unit: "ms", Better: "lower"},
	{Name: "stage.sum_vs_e2e_share", Unit: "share", Better: "higher"},

	{Name: "cluster.ops_per_batch", Unit: "count", Better: "higher"},
	{Name: "cluster.sync_batches_per_s", Unit: "1/s", Better: "lower"},
	{Name: "cluster.persist_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.persist_inflight_max", Unit: "count", Better: "lower"},
	{Name: "cluster.follower_lag_p99_entries", Unit: "count", Better: "lower"},
	{Name: "cluster.reads_fast_share", Unit: "share", Better: "higher"},
	{Name: "cluster.read_log_appends", Unit: "count", Better: "lower"},
	{Name: "cluster.term_changes", Unit: "count", Better: "lower"},
	{Name: "cluster.single_node_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.restart_catchup_ms", Unit: "ms", Better: "lower"},

	{Name: "storage.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "storage.sync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.sync_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "storage.append_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "storage.wal_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "storage.device_fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.replay_ms_per_10k", Unit: "ms", Better: "lower"},
	{Name: "storage.snapshot_save_ms", Unit: "ms", Better: "lower"},

	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.compressed_frame_share", Unit: "share", Better: "higher"},
	{Name: "transport.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "transport.dropped_frames", Unit: "count", Better: "lower"},
	{Name: "transport.loopback_rtt_us_p50", Unit: "us", Better: "lower"},

	{Name: "wire.encode_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "snappy.ratio", Unit: "ratio", Better: "higher"},
	{Name: "snappy.encode_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "kvstore.apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "kvstore.snapshot_ms_per_10k_keys", Unit: "ms", Better: "lower"},

	{Name: "engine.multipaxos.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.multipaxos.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.raft.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.raft.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.raftstar.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.raftstar.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.raftstar-pql.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.raftstar-pql.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.raftstar-ll.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.raftstar-ll.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.raftstar-mencius.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.raftstar-mencius.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.paxos-pql.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.paxos-pql.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "engine.fast_commit_share", Unit: "share", Better: "higher"},
	{Name: "engine.conflict_rate", Unit: "ratio", Better: "lower"},
	{Name: "engine.step_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "engine.sim_events_per_s", Unit: "1/s", Better: "higher"},

	// Virtual-time results of the other protocols on the simulated WAN.
	// Seeded and exact, so -compare reports any change at all.
	{Name: "wan_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wan_lease_read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wan_lease_write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wan_mencius_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wan_fast_write_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.cpu_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_mb_max", Unit: "MB", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// exactMetric reports whether a per-layer metric is a function of the
// seed alone (wan-sim counts and virtual times): two runs of one commit
// at one seed must agree on it to the last digit.
func exactMetric(name string) bool {
	switch name {
	case "engine.step_ns_per_op", "engine.sim_events_per_s":
		return false
	}
	return strings.HasPrefix(name, "wan_") || strings.HasPrefix(name, "engine.")
}

func specOf(name string) (metricSpec, bool) {
	for _, table := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range table {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}
