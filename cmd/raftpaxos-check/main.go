// Command raftpaxos-check runs the repository's formal verification
// suite: exhaustive bounded model checking of the Appendix B specs'
// invariants, the Raft* ⇒ MultiPaxos refinement (the paper's central
// claim), the Raft ⇏ MultiPaxos counterexample, and the Figure 5
// obligations of both generated ported protocols.
//
// With -campaign it instead runs the seeded adversarial campaign: a
// randomized mixed put/get workload against the runnable engines under a
// composed fault schedule (kills, torn restarts, disk-write faults,
// partitions, message drops, clock skew and freezes), with every client
// history checked for linearizability. Any failure prints the exact
// flags that replay it deterministically.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"raftpaxos"
	"raftpaxos/internal/core"
	"raftpaxos/internal/engines"
	"raftpaxos/internal/mc"
	"raftpaxos/internal/specs"
	"raftpaxos/internal/testcluster"
)

func main() {
	maxStates := flag.Int("max-states", 100000, "state cap per check")
	campaign := flag.Bool("campaign", false, "run the adversarial campaign instead of the model checks")
	campOps := flag.Int("campaign-ops", 20000, "client operations per campaign run")
	campSeed := flag.Int64("campaign-seed", 1, "base campaign seed (runs use seed, seed+1, ...)")
	campRuns := flag.Int("campaign-runs", 1, "seeded runs per engine")
	campSecs := flag.Int("campaign-seconds", 0, "wall-clock budget; 0 = unbounded (runs may stop early mid-engine)")
	campEngines := flag.String("campaign-engines", strings.Join(testcluster.CampaignEngines, ","),
		"comma-separated engine list")
	campReport := flag.String("campaign-report", "", "write the campaign report JSON here")
	campSabotage := flag.Bool("campaign-sabotage", false,
		"disable the lease guard band: the campaign must then FIND a violation (exit 0 only if it does)")
	flag.Parse()
	if *campaign {
		if err := runCampaign(*campEngines, *campSeed, *campRuns, *campOps, *campSecs, *campSabotage, *campReport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(*maxStates); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// campaignReport is the JSON artifact a campaign invocation writes: one
// entry per run, replayable by seed.
type campaignReport struct {
	Sabotage bool                         `json:"sabotage"`
	Runs     []testcluster.CampaignResult `json:"runs"`
}

func runCampaign(engineCSV string, seed int64, runs, ops, seconds int, sabotage bool, reportPath string) error {
	var names []string
	for _, e := range strings.Split(engineCSV, ",") {
		if e = strings.TrimSpace(e); e != "" {
			if _, err := engines.Parse(e); err != nil {
				return err
			}
			names = append(names, e)
		}
	}
	deadline := time.Time{}
	if seconds > 0 {
		deadline = time.Now().Add(time.Duration(seconds) * time.Second)
	}
	report := campaignReport{Sabotage: sabotage}
	violations := 0
	timedOut := false
	for r := 0; r < runs && !timedOut; r++ {
		for _, eng := range names {
			if !deadline.IsZero() && time.Now().After(deadline) {
				timedOut = true
				fmt.Printf("wall budget exhausted after %d runs\n", len(report.Runs))
				break
			}
			start := time.Now()
			res := testcluster.RunCampaign(testcluster.CampaignConfig{
				Engine: eng, Seed: seed + int64(r), Ops: ops, Sabotage: sabotage,
			})
			report.Runs = append(report.Runs, res)
			status := "ok"
			if res.Violation != "" {
				violations++
				status = "VIOLATION"
			}
			fmt.Printf("%-16s seed=%-6d ops=%-7d steps=%-8d open=%-4d %5.1fs  %s\n",
				eng, res.Seed, res.Ops, res.Steps, res.Outstanding, time.Since(start).Seconds(), status)
			if res.Violation != "" {
				fmt.Printf("  %s\n  replay: raftpaxos-check -campaign -campaign-engines %s -campaign-seed %d -campaign-ops %d%s\n",
					res.Violation, res.Engine, res.Seed, ops, map[bool]string{true: " -campaign-sabotage", false: ""}[sabotage])
			}
		}
	}
	if reportPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if sabotage {
		if violations == 0 {
			return fmt.Errorf("sabotage campaign found no violation in %d runs — the harness has lost its teeth", len(report.Runs))
		}
		fmt.Printf("\nsabotage campaign surfaced %d violation(s), as the reverted guard band predicts\n", violations)
		return nil
	}
	if violations > 0 {
		return fmt.Errorf("%d campaign run(s) found linearizability violations", violations)
	}
	fmt.Printf("\nall %d campaign runs linearizable\n", len(report.Runs))
	return nil
}

type step struct {
	name string
	fn   func(maxStates int) (mc.Result, bool) // result, expectViolation
}

func run(maxStates int) error {
	bounds := specs.TinyConsensus()
	negBounds := bounds
	negBounds.MaxIndex = 2
	pqlCfg := specs.TinyPQL()
	menCfg := specs.TinyMencius()

	steps := []step{
		{"MultiPaxos invariants (Agreement, OneValuePerBallot)", func(ms int) (mc.Result, bool) {
			return mc.Check(specs.MultiPaxos(bounds), []mc.Invariant{
				{Name: "Agreement", Fn: specs.Agreement(bounds)},
				{Name: "OneValuePerBallot", Fn: specs.OneValuePerBallot(bounds)},
			}, mc.Options{MaxStates: ms}), false
		}},
		{"Raft* invariants", func(ms int) (mc.Result, bool) {
			return mc.Check(specs.RaftStar(bounds), []mc.Invariant{
				{Name: "Agreement", Fn: specs.Agreement(bounds)},
			}, mc.Options{MaxStates: ms}), false
		}},
		{"Raft* refines MultiPaxos (Section 3, Appendix C)", func(ms int) (mc.Result, bool) {
			return mc.CheckRefinement(specs.RaftStarToMultiPaxos(bounds), nil,
				mc.Options{MaxStates: ms, MaxHops: 4}), false
		}},
		{"Raft does NOT refine MultiPaxos (Section 3)", func(ms int) (mc.Result, bool) {
			return mc.CheckRefinement(specs.RaftToMultiPaxosAttempt(negBounds), nil,
				mc.Options{MaxStates: ms, MaxHops: 4}), true
		}},
		{"PQL invariants (LeaseInv)", func(ms int) (mc.Result, bool) {
			sp, err := specs.PQL(pqlCfg).Build()
			if err != nil {
				panic(err)
			}
			return mc.Check(sp, []mc.Invariant{
				{Name: "LeaseInv", Fn: specs.LeaseInv(pqlCfg)},
			}, mc.Options{MaxStates: ms / 4}), false
		}},
		{"Mencius invariants (ExecutableNopSafe)", func(ms int) (mc.Result, bool) {
			sp, err := specs.Mencius(menCfg).Build()
			if err != nil {
				panic(err)
			}
			return mc.Check(sp, []mc.Invariant{
				{Name: "ExecutableNopSafe", Fn: specs.ExecutableNopSafe(menCfg)},
				{Name: "SkipTagsAreNops", Fn: specs.SkipTagsAreNops(menCfg)},
			}, mc.Options{MaxStates: ms}), false
		}},
		{"generated Raft*-PQL: B∆ ⇒ A∆ and B∆ ⇒ B (Figure 5)", func(ms int) (mc.Result, bool) {
			ported, err := raftpaxos.NewPortedPQL()
			if err != nil {
				panic(err)
			}
			res := mc.CheckRefinement(ported.ToOptimizedHigh, nil, mc.Options{MaxStates: ms / 8, MaxHops: 4})
			if res.Violation != nil {
				return res, false
			}
			return mc.CheckRefinement(ported.ToBase, nil, mc.Options{MaxStates: ms / 8}), false
		}},
		{"generated Coordinated Raft*: B∆ ⇒ A∆ and B∆ ⇒ B (Figure 5)", func(ms int) (mc.Result, bool) {
			ported, err := raftpaxos.NewPortedMencius()
			if err != nil {
				panic(err)
			}
			res := mc.CheckRefinement(ported.ToOptimizedHigh, nil, mc.Options{MaxStates: ms, MaxHops: 4})
			if res.Violation != nil {
				return res, false
			}
			return mc.CheckRefinement(ported.ToBase, nil, mc.Options{MaxStates: ms}), false
		}},
		{"non-mutating classification (PQL, Mencius accepted; mutant rejected)", func(ms int) (mc.Result, bool) {
			pqlOpt := specs.PQL(pqlCfg)
			sp, _ := pqlOpt.Build()
			if err := pqlOpt.VerifyNonMutating([]core.State{sp.Init()}); err != nil {
				panic(err)
			}
			menOpt := specs.Mencius(menCfg)
			sp2, _ := menOpt.Build()
			if err := menOpt.VerifyNonMutating([]core.State{sp2.Init()}); err != nil {
				panic(err)
			}
			bad := specs.ToyMutatingOpt(specs.ToyConfig{Keys: 2, Values: 2})
			sp3, _ := bad.Build()
			if err := bad.VerifyNonMutating([]core.State{sp3.Init()}); err == nil {
				panic("mutating optimization not rejected")
			}
			return mc.Result{}, false
		}},
	}

	failed := 0
	for _, s := range steps {
		start := time.Now()
		res, expectViolation := s.fn(maxStates)
		status := "ok"
		switch {
		case expectViolation && res.Violation == nil:
			status = "FAIL (expected counterexample, found none)"
			failed++
		case expectViolation:
			status = "ok (counterexample found, as the paper predicts)"
		case res.Violation != nil:
			status = "FAIL\n" + res.Violation.Error()
			failed++
		}
		fmt.Printf("%-62s %8d states %6.2fs  %s\n",
			s.name, res.States, time.Since(start).Seconds(), status)
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	fmt.Println("\nall checks passed")
	return nil
}
