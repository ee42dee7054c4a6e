// Command benchmark is the repository's one measurement rig: four named
// workloads, end-to-end and per-layer metrics, output checks and a
// from-outside stage trace. See README.md in this directory.
//
//	go run ./benchmark                                   every workload, untraced then traced; writes benchmark/out/BENCH.json
//	go run ./benchmark --workload steady-write --seed 1 --seconds 24 --trace 0
//	                                                     one run; the last line of output is its JSON result
//	go run ./benchmark -compare old.json new.json        one verdict per (metric, workload)
//	go run ./benchmark -smoke                            1 trial x 1 s per workload, all checks on
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Defaults of a full-length run; BENCHMARK.json records run_seconds.
const (
	defaultSeconds = 24
	defaultTrials  = 3
	defaultWarmup  = 2 * time.Second
	defaultDrive   = 500 * time.Millisecond
)

func main() {
	workloadName := flag.String("workload", "", "run this one workload and print its JSON result last (default: run all and write -out)")
	seed := flag.Int64("seed", 1, "seeds keys, order, values and the simulator; never rates or counts")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per run, split evenly over the trials (virtual seconds on wan-sim)")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
	doCompare := flag.Bool("compare", false, "compare two result sets: -compare old.json new.json")
	smoke := flag.Bool("smoke", false, "1 trial x 1 s per workload, untraced, all checks on")
	out := flag.String("out", filepath.Join("benchmark", "out", "BENCH.json"), "where a full run writes its result set")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace, *doCompare, *smoke, *out, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errChecksFailed = fmt.Errorf("output checks failed")

func run(workloadName string, seed int64, seconds, trace int, doCompare, smoke bool, out string, args []string) error {
	if doCompare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return runCompare(args[0], args[1])
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	outDir := filepath.Join("benchmark", "out")
	s := &session{
		seed: seed, seconds: seconds, trials: defaultTrials, warmup: defaultWarmup, drive: defaultDrive,
		dataDir: filepath.Join(outDir, fmt.Sprintf("data-%d", os.Getpid())), outDir: outDir,
	}
	defer os.RemoveAll(s.dataDir)
	switch {
	case smoke:
		return runSmoke(s)
	case workloadName != "":
		return runOne(s, workloadName, trace == 1)
	}
	set, ok, err := s.runAll(os.Stdout)
	if err != nil {
		return err
	}
	if err := writeResultSet(out, set); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if !ok {
		return errChecksFailed
	}
	return nil
}

// runOne is the form the benchmark driver calls: one workload, one mode,
// the JSON result on the last line of standard output.
func runOne(s *session, name string, traced bool) error {
	res, err := s.run(name, traced)
	if err != nil {
		return err
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	printRun(os.Stdout, name, table, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

// runSmoke runs every workload once, briefly, with every output check on.
func runSmoke(s *session) error {
	s.seconds, s.trials, s.warmup = 1, 1, 250*time.Millisecond
	ok := true
	for _, wl := range liveWorkloads {
		res, err := s.run(wl.name, false)
		if err != nil {
			return err
		}
		printRun(os.Stdout, wl.name, endToEnd, res)
		ok = ok && res.Correct
	}
	res, err := s.run(wanSimName, false)
	if err != nil {
		return err
	}
	printRun(os.Stdout, wanSimName, endToEnd, res)
	if !ok || !res.Correct {
		return errChecksFailed
	}
	return nil
}

func runCompare(oldPath, newPath string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-compare reads bounds and directions from BENCHMARK.json in the current directory: %w", err)
	}
	old, err := readResultSet(oldPath)
	if err != nil {
		return err
	}
	new, err := readResultSet(newPath)
	if err != nil {
		return err
	}
	if !compare(os.Stdout, bf, old, new) {
		return fmt.Errorf("%s is worse than %s", newPath, oldPath)
	}
	return nil
}
