// Command dikebench regenerates the paper's tables and figures.
//
// Usage:
//
//	dikebench -exp all                 # every experiment
//	dikebench -exp fig6                # one experiment (fig6 = 6a+6b+Table III)
//	dikebench -exp fig1,fig7 -scale 1  # several, at full workload scale
//	dikebench -list                    # list experiment ids
//
// Output is plain text tables; add -csv DIR to also dump each table as a
// CSV file under DIR. -cpuprofile FILE and -memprofile FILE write
// runtime/pprof profiles of the whole command.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dike/internal/cli"
	"dike/internal/harness"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		listFlag   = flag.Bool("list", false, "list experiment ids and exit")
		seedFlag   = flag.Uint64("seed", 42, "simulation seed")
		scaleFlag  = flag.Float64("scale", 0.5, "workload scale for headline experiments")
		sweepFlag  = flag.Float64("sweep-scale", 0.25, "workload scale for 32-configuration sweeps")
		workerFlag = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		quickFlag  = flag.Bool("quick", false, "shrink everything for a fast smoke run")
		csvFlag    = flag.String("csv", "", "directory to write per-table CSV files into")
		benchOut   = flag.String("bench-out", "BENCH_scale.json", "file the scale experiment writes raw measurements to")
		benchBase  = flag.String("bench-baseline", "", "baseline BENCH_scale.json to compare against; exit 1 if ns/quantum regresses >25% or allocs/quantum >10%")
		sloOut     = flag.String("slo-out", "BENCH_slo.json", "file the slo experiment writes raw measurements to")
		sloBase    = flag.String("slo-baseline", "", "baseline BENCH_slo.json to compare against; exit 1 if worst-tenant p99 regresses >25%")
		tourOut    = flag.String("tournament-out", "BENCH_tournament.json", "file the tournament experiment writes its leaderboard to")
		tourBase   = flag.String("tournament-baseline", "", "baseline BENCH_tournament.json; exit 1 if any cell's p99 regresses >25% or the meta policy misses its regret bar")
		tourRegret = flag.Float64("tournament-regret", 0.10, "max meta-policy regret vs per-load oracle-best when gating against -tournament-baseline")
		tourStore  = flag.String("tournament-store", "", "durable store directory caching tournament cells by run digest")
		tourServer = flag.String("tournament-server", "", "dikeserved/dikecoord base URL to submit tournament cells to instead of simulating locally")
		energyOut  = flag.String("energy-out", "BENCH_energy.json", "file the energy experiment writes raw measurements to")
		energyBase = flag.String("energy-baseline", "", "baseline BENCH_energy.json; exit 1 if any cell's EDP regresses >10% or the fairness governor fails its gate")
		profiling  = cli.ProfileFlags()
	)
	flag.Parse()
	if err := profiling.Start(); err != nil {
		cli.Fatal(err)
	}
	defer profiling.Stop()

	if *listFlag {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.Options{
		Seed:             *seedFlag,
		Scale:            *scaleFlag,
		SweepScale:       *sweepFlag,
		Workers:          *workerFlag,
		Quick:            *quickFlag,
		BenchOut:         *benchOut,
		SLOOut:           *sloOut,
		TournamentOut:    *tourOut,
		TournamentStore:  *tourStore,
		TournamentServer: *tourServer,
		EnergyOut:        *energyOut,
	}

	var ids []string
	if *expFlag == "all" {
		ids = harness.ExperimentIDs()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		e, err := harness.Lookup(id)
		if err != nil {
			cli.Fatal(err)
		}
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: ", id)
			cli.Fatal(err)
		}
		if err := rep.Render(os.Stdout); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvFlag != "" {
			if err := writeCSVs(*csvFlag, rep); err != nil {
				cli.Fatal(err)
			}
		}
		if rep.ID == "scale" && *benchBase != "" {
			if err := checkBenchBaseline(*benchOut, *benchBase); err != nil {
				cli.Fatal(err)
			}
		}
		if rep.ID == "slo" && *sloBase != "" {
			if err := checkSLOBaseline(*sloOut, *sloBase); err != nil {
				cli.Fatal(err)
			}
		}
		if rep.ID == "tournament" && *tourBase != "" {
			if err := checkTournamentBaseline(*tourOut, *tourBase, *tourRegret); err != nil {
				cli.Fatal(err)
			}
		}
		if rep.ID == "energy" && *energyBase != "" {
			if err := checkEnergyBaseline(*energyOut, *energyBase); err != nil {
				cli.Fatal(err)
			}
		}
	}
}

// checkEnergyBaseline gates the energy grid two ways: per-cell EDP
// drift against a committed baseline (EDP is simulated, so any trip is
// a real scheduling/governing change), and the absolute bar that the
// fairness-coupled governor beats ondemand on fairness-per-J·s at the
// tightest cap.
func checkEnergyBaseline(current, baseline string) error {
	cur, err := harness.LoadBenchEnergy(current)
	if err != nil {
		return err
	}
	base, err := harness.LoadBenchEnergy(baseline)
	if err != nil {
		return err
	}
	problems := harness.CompareBenchEnergy(cur, base, 0.10)
	problems = append(problems, harness.GateBenchEnergy(cur)...)
	if len(problems) == 0 {
		fmt.Printf("EDP within 10%% of baseline %s; fairness governor beats ondemand at the tightest cap\n", baseline)
		return nil
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "energy gate: "+p)
	}
	return fmt.Errorf("%d energy gate violation(s) vs %s", len(problems), baseline)
}

// checkTournamentBaseline gates the tournament leaderboard two ways:
// per-cell p99 drift against a committed baseline (like the slo gate),
// and the absolute meta-scheduling bars — meta beats the worst fixed
// policy and stays within regretMax of the per-load oracle-best.
func checkTournamentBaseline(current, baseline string, regretMax float64) error {
	cur, err := harness.LoadBenchTournament(current)
	if err != nil {
		return err
	}
	base, err := harness.LoadBenchTournament(baseline)
	if err != nil {
		return err
	}
	problems := harness.CompareBenchTournament(cur, base, 0.25)
	problems = append(problems, harness.GateBenchTournament(cur, regretMax)...)
	if len(problems) == 0 {
		fmt.Printf("leaderboard within 25%% of baseline %s; meta within %.0f%% of oracle-best at every load\n",
			baseline, 100*regretMax)
		return nil
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "tournament gate: "+p)
	}
	return fmt.Errorf("%d tournament gate violation(s) vs %s", len(problems), baseline)
}

// checkSLOBaseline compares the slo experiment's fresh measurements
// against a committed baseline and fails on a >25% worst-tenant p99
// sojourn regression at any (load, policy) point both files measured.
// Sojourns are simulated time, so a trip is a real scheduling change,
// not wall-clock noise.
func checkSLOBaseline(current, baseline string) error {
	cur, err := harness.LoadBenchSLO(current)
	if err != nil {
		return err
	}
	base, err := harness.LoadBenchSLO(baseline)
	if err != nil {
		return err
	}
	regressions := harness.CompareBenchSLO(cur, base, 0.25)
	if len(regressions) == 0 {
		fmt.Printf("tail latency within 25%% of baseline %s\n", baseline)
		return nil
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "tail latency regression: "+r)
	}
	return fmt.Errorf("%d tail-latency regression(s) vs %s", len(regressions), baseline)
}

// checkBenchBaseline compares the scale experiment's fresh measurements
// against a committed baseline and fails on a >25% per-policy decision
// cost regression, allocations per quantum above the baseline by more
// than harness.AllocsTolerance, or contention-solver passes per tick
// above it by more than harness.SolveItersTolerance, at any machine
// point both files measured.
func checkBenchBaseline(current, baseline string) error {
	cur, err := harness.LoadBenchScale(current)
	if err != nil {
		return err
	}
	base, err := harness.LoadBenchScale(baseline)
	if err != nil {
		return err
	}
	regressions := harness.CompareBenchScale(cur, base, 0.25)
	if len(regressions) == 0 {
		fmt.Printf("decision cost within 25%%, allocations within %.0f%% and solver passes within %.0f%% of baseline %s\n",
			100*harness.AllocsTolerance, 100*harness.SolveItersTolerance, baseline)
		return nil
	}
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "scale regression: "+r)
	}
	return fmt.Errorf("%d scale regression(s) vs %s", len(regressions), baseline)
}

// writeCSVs dumps each table of rep as DIR/<exp>_<n>.csv.
func writeCSVs(dir string, rep *harness.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rep.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
