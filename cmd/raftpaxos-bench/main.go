// Command raftpaxos-bench regenerates the paper's evaluation figures
// (Figures 9a–d and 10a–d) on the simulated 5-region deployment and
// prints them as paper-style tables. The live runtime is measured by the
// rig in benchmark/ (go run ./benchmark), not here.
//
// Usage:
//
//	raftpaxos-bench -figure all          # every figure (slow)
//	raftpaxos-bench -figure 9a           # one figure
//	raftpaxos-bench -figure 10b -quick   # CI-sized run
//	raftpaxos-bench -figure all -seed 7  # another simulation seed
package main

import (
	"flag"
	"fmt"
	"os"

	"raftpaxos"
)

func main() {
	figure := flag.String("figure", "all", "figure to regenerate: 9a 9b 9c 9d 10a 10b 10c 10d all")
	quick := flag.Bool("quick", false, "shrink client counts and windows")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	if err := run(*figure, raftpaxos.EvalOptions{Quick: *quick, Seed: *seed}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
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
