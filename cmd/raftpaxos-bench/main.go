// Command raftpaxos-bench regenerates the paper's evaluation figures on
// the simulated 5-region deployment and prints paper-style tables, or —
// with -live — runs the sustained-load trial against the real runtime
// (snapshots + segmented-WAL compaction) and emits a machine-readable
// BENCH_<ops>.json so CI can record the perf trajectory.
//
// Usage:
//
//	raftpaxos-bench -figure all          # every figure (slow)
//	raftpaxos-bench -figure 9a           # one figure
//	raftpaxos-bench -figure 10b -quick   # CI-sized run
//	raftpaxos-bench -live -ops 50000 -snapshot-interval 1000
//	raftpaxos-bench -live -ops 5000 -json out/BENCH_5000.json
//	raftpaxos-bench -fast-wan -json out/FASTWAN.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"raftpaxos"
	"raftpaxos/internal/bench"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 9a 9b 9c 9d 10a 10b 10c 10d all")
	quick := flag.Bool("quick", false, "shrink client counts and windows")
	seed := flag.Int64("seed", 1, "simulation seed")
	live := flag.Bool("live", false, "run the live longevity benchmark instead of simulated figures")
	ops := flag.Int("ops", 50000, "total commits for -live")
	snapInterval := flag.Int("snapshot-interval", 1000, "applied entries between snapshots for -live")
	segmentBytes := flag.Int64("segment-bytes", 256<<10, "WAL segment rotation threshold for -live")
	clients := flag.Int("clients", 32, "closed-loop client goroutines for -live")
	jsonPath := flag.String("json", "", "output path for the -live JSON result (default BENCH_<ops>.json)")
	useTCP := flag.Bool("tcp", false, "run -live over the real TCP transport on loopback (adds framing/compression stats)")
	reads := flag.Float64("reads", 0, "fraction of -live ops issued as ReadIndex reads (0..1)")
	groups := flag.Int("groups", 1, "consensus groups per replica for -live (keys shard across groups by hash)")
	fastPath := flag.Bool("fast-path", false, "run -live with one-RTT fast-path writes submitted at a follower")
	fastWAN := flag.Bool("fast-wan", false, "run the WAN fast-vs-classic latency comparison and emit JSON")
	flag.Parse()
	if *fastWAN {
		if err := runFastWAN(*seed, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *live {
		if err := runLive(*ops, *snapInterval, *segmentBytes, *clients, *groups, *jsonPath, *useTCP, *reads, *fastPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*figure, raftpaxos.EvalOptions{Quick: *quick, Seed: *seed}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runFastWAN runs the conflict-free vs high-conflict WAN-5 profiles for
// every fast-path engine and writes the paired fast-vs-classic commit
// latencies as JSON (the artifact CI tracks build over build).
func runFastWAN(seed int64, jsonPath string) error {
	results, err := bench.RunFastWAN(seed)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%-10s %-13s WAN-%d: fast p50 %.1fms p99 %.1fms vs classic p50 %.1fms p99 %.1fms (%.2fx), %d fast, %d fallback, conflict rate %.3f\n",
			r.Protocol, r.Profile, r.Nodes, r.FastP50, r.FastP99, r.ClassP50, r.ClassP99,
			r.Ratio, r.FastCommits, r.ClassicFallbacks, r.ConflictRate)
	}
	if jsonPath == "" {
		jsonPath = "FASTWAN.json"
	}
	if dir := filepath.Dir(jsonPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

// runLive drives the sustained-load trial on temp storage and writes the
// result JSON (commits/s, fsyncs/entry, restart-ms, wal-bytes, …).
func runLive(ops, snapInterval int, segmentBytes int64, clients, groups int, jsonPath string, useTCP bool, readRatio float64, fastPath bool) error {
	dirs := make([]string, 3)
	for i := range dirs {
		d, err := os.MkdirTemp("", fmt.Sprintf("raftpaxos-bench-%d-", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	res, err := bench.RunLongRun(bench.LongRunConfig{
		Ops:              ops,
		Clients:          clients,
		Groups:           groups,
		SnapshotInterval: snapInterval,
		SegmentBytes:     segmentBytes,
		Dirs:             dirs,
		UseTCP:           useTCP,
		ReadRatio:        readRatio,
		FastPath:         fastPath,
	})
	if err != nil {
		return err
	}
	fmt.Printf("live longevity: %d ops, %.0f write-commits/s (first window %.0f ops/s, last %.0f ops/s)\n",
		res.Ops, res.CommitsPerSec, res.FirstWindowPerSec, res.LastWindowPerSec)
	if res.Groups > 1 {
		fmt.Printf("  %d groups:", res.Groups)
		for g, rate := range res.GroupCommitsPerSec {
			fmt.Printf(" g%d %.0f/s (%.3f fsyncs/entry)", g, rate, res.GroupFsyncsPerEntry[g])
		}
		fmt.Println()
	}
	fmt.Printf("  %.3f fsyncs/entry, WAL %d bytes in %d segments, snapshot@%d, engine tail %d\n",
		res.FsyncsPerEntry, res.WALBytes, res.WALSegments, res.SnapshotIndex, res.EngineLogLen)
	fmt.Printf("  restart %.1fms to applied %d\n", res.RestartMS, res.RestartAppliedIndex)
	fmt.Printf("  snapshot transfers %d (%d bytes, %d installs), snapshot failures %d\n",
		res.SnapshotTransfers, res.SnapshotTransferBytes, res.SnapshotInstalls, res.SnapshotFailures)
	if res.Reads > 0 {
		fmt.Printf("  reads: %d at %.0f/s, p50 %.2fms p99 %.2fms, %d through the log\n",
			res.Reads, res.ReadsPerSec, res.ReadP50MS, res.ReadP99MS, res.ReadLogAppends)
	}
	if res.FastCommits+res.ClassicFallbacks > 0 {
		fmt.Printf("  fast path: %d fast commits, %d classic fallbacks, conflict rate %.3f, write p50 %.2fms p99 %.2fms\n",
			res.FastCommits, res.ClassicFallbacks, res.ConflictRate, res.WriteP50MS, res.WriteP99MS)
	}
	if res.TransportFrames > 0 {
		fmt.Printf("  transport: %d frames (%d compressed, %d dropped), %d raw -> %d wire bytes, encode %.1fms\n",
			res.TransportFrames, res.TransportFramesCompressed, res.TransportFramesDropped,
			res.TransportRawBytes, res.TransportWireBytes, float64(res.EncodeNSTotal)/1e6)
	}
	fmt.Printf("  persist pipeline: %d sync batches in %.1fms, loop stalled %.1fms, inflight max %d\n",
		res.SyncBatches, float64(res.SyncNSTotal)/1e6, float64(res.LoopStallNS)/1e6, res.PersistInflightMax)
	fmt.Printf("  alloc churn: %.0f bytes/op\n", res.AllocBytesPerOp)

	if jsonPath == "" {
		jsonPath = fmt.Sprintf("BENCH_%d.json", ops)
	}
	if dir := filepath.Dir(jsonPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

func run(figure string, opt raftpaxos.EvalOptions) error {
	want := func(name string) bool { return figure == "all" || figure == name }
	printed := false
	show := func(tabs ...*raftpaxos.EvalTable) {
		for _, t := range tabs {
			fmt.Println(t)
		}
		printed = true
	}

	if want("9a") || want("9b") {
		tabs, err := raftpaxos.EvaluateFigure9Latency(opt)
		if err != nil {
			return err
		}
		if want("9a") {
			show(tabs[0])
		}
		if want("9b") {
			show(tabs[1])
		}
	}
	if want("9c") {
		tab, err := raftpaxos.EvaluateFigure9cPeak(opt)
		if err != nil {
			return err
		}
		show(tab)
	}
	if want("9d") {
		tab, err := raftpaxos.EvaluateFigure9dSpeedup(opt)
		if err != nil {
			return err
		}
		show(tab)
	}
	if want("10a") {
		tab, err := raftpaxos.EvaluateFigure10Throughput(opt, 8)
		if err != nil {
			return err
		}
		show(tab)
	}
	if want("10b") {
		tab, err := raftpaxos.EvaluateFigure10Throughput(opt, 4096)
		if err != nil {
			return err
		}
		show(tab)
	}
	if want("10c") {
		tab, err := raftpaxos.EvaluateFigure10Latency(opt, 8)
		if err != nil {
			return err
		}
		show(tab)
	}
	if want("10d") {
		tab, err := raftpaxos.EvaluateFigure10Latency(opt, 4096)
		if err != nil {
			return err
		}
		show(tab)
	}
	if !printed {
		return fmt.Errorf("unknown figure %q (want 9a 9b 9c 9d 10a 10b 10c 10d all)", figure)
	}
	return nil
}
