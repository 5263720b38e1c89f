// Command dikesim runs a single workload under one scheduling policy and
// prints the run's metrics: per-benchmark thread-runtime dispersion,
// fairness (Eqn 4), completion times, swap counts and — for the Dike
// policies — prediction accuracy.
//
// Usage:
//
//	dikesim -wl 6 -policy dike                  # WL6 under Dike
//	dikesim -wl 15 -policy dio -scale 1         # full-length WL15 under DIO
//	dikesim -wl 7 -policy dike-af -seed 7       # adaptive, different seed
//	dikesim -apps jacobi,srad -policy dike      # custom two-app workload
//	dikesim -wl 6 -machine big.json             # topology-driven machine spec
//	dikesim -traffic colo.json -policy dike-af  # open-loop traffic scenario
//	dikesim -traffic colo.json -load 0.8        # same, at 80% offered load
//
// With -traffic the run is open-loop: requests arrive, execute and
// depart per the scenario's arrival processes, and the output is
// per-tenant sojourn-time percentiles, SLO violations and fairness
// instead of benchmark completion times. -wl/-apps/-scale are ignored.
//
// Record/replay:
//
//	dikesim -wl 6 -policy dike -record run.log  # record the platform stream
//	dikesim -replay run.log                     # re-run decisions from the log
//	dikesim -replay run.log -digest             # print the decision digest
//
// A replay rebuilds the recorded policy over the log — no machine model
// runs — and verifies every decision against the recording, failing on
// the first divergence. With -digest the only output is the run's
// deterministic decision digest (per-quantum fairness numbers in exact
// round-trip form), so `dikesim -record` and `dikesim -replay` outputs
// can be compared byte-for-byte.
//
// Profiling: -cpuprofile FILE and -memprofile FILE write runtime/pprof
// profiles of the command (read them with `go tool pprof`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dike/internal/cli"
	"dike/internal/fault"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/tournament"
	"dike/internal/traffic"
	"dike/internal/workload"
)

func main() {
	var (
		wlFlag     = flag.Int("wl", 1, "Table II workload number (1-16); ignored when -apps is set")
		appsFlag   = flag.String("apps", "", "comma-separated application list for a custom workload")
		policyFlag = flag.String("policy", "dike", "cfs | dio | dike | dike-af | dike-ap | dike-ea | rotate | oracle")
		seedFlag   = flag.Uint64("seed", 42, "simulation seed")
		scaleFlag  = flag.Float64("scale", 0.5, "workload scale")
		kmeansFlag = flag.Bool("kmeans", true, "include the kmeans contention app in custom workloads")
		traceFlag  = flag.String("trace", "", "write a CSV time-series trace (memory utilisation, alive threads, swaps, progress dispersion) to this file")
		faultsFlag = flag.String("faults", "", "fault classes to inject: 'all', 'none', or a comma list of "+fault.ClassNames())
		frateFlag  = flag.Float64("fault-rate", 1, "multiplier on all fault-class base probabilities")
		fseedFlag  = flag.Uint64("fault-seed", 1, "fault injector seed (same seed = identical fault schedule)")
		machFlag   = flag.String("machine", "", "JSON machine spec file (core types, sockets, memory controllers, distance matrix); default is the Table I machine")
		trafFlag   = flag.String("traffic", "", "JSON open-loop traffic spec file; replaces -wl/-apps with arrival-driven requests")
		loadFlag   = flag.Float64("load", 0, "override the traffic spec's offered-load multiplier (requires -traffic)")
		recordFlag = flag.String("record", "", "write a replay log of the run to this file")
		replayFlag = flag.String("replay", "", "re-run a recorded log instead of simulating; other run flags are ignored")
		digestFlag = flag.Bool("digest", false, "print only the deterministic decision digest")
		metaFlag   = flag.String("meta", "", "JSON tournament config file overriding the meta policy's defaults (requires -policy meta)")
		govFlag    = flag.String("governor", "", "power governor to interpose: "+strings.Join(power.Names(), " | "))
		capFlag    = flag.Float64("power-cap", 0, "per-socket watt budget for the ondemand/fairness governors")
		listFlag   = flag.Bool("list-policies", false, "list registered scheduling policies and power governors, then exit")
		profiling  = cli.ProfileFlags()
	)
	flag.Parse()
	if err := profiling.Start(); err != nil {
		cli.Fatal(err)
	}
	defer profiling.Stop()

	if *listFlag {
		for _, p := range harness.Policies() {
			tag := ""
			if p.MetaCandidate {
				tag = " [meta-eligible]"
			}
			fmt.Printf("%-8s %s%s\n", p.Name, p.Description, tag)
		}
		fmt.Println("\npower governors (-governor):")
		for _, g := range power.Governors() {
			fmt.Printf("%-8s %s\n", g.Name, g.Description)
		}
		return
	}

	if *replayFlag != "" {
		replayRun(*replayFlag, *digestFlag)
		return
	}

	var spec harness.RunSpec
	if *trafFlag != "" {
		ts, err := traffic.LoadSpec(*trafFlag)
		if err != nil {
			cli.Fatal(err)
		}
		if *loadFlag != 0 {
			ts.Load = *loadFlag
		}
		spec = harness.RunSpec{Traffic: ts, Policy: *policyFlag, Seed: *seedFlag}
	} else {
		if *loadFlag != 0 {
			cli.Fatal(fmt.Errorf("-load requires -traffic"))
		}
		var w *workload.Workload
		var err error
		if *appsFlag != "" {
			w, err = customWorkload(*appsFlag, *kmeansFlag)
		} else {
			w, err = workload.Table2(*wlFlag)
		}
		if err != nil {
			cli.Fatal(err)
		}
		spec = harness.RunSpec{
			Workload: w, Policy: *policyFlag, Seed: *seedFlag, Scale: *scaleFlag,
		}
	}
	if *metaFlag != "" {
		if *policyFlag != harness.PolicyMeta {
			cli.Fatal(fmt.Errorf("-meta requires -policy %s", harness.PolicyMeta))
		}
		mc, err := loadMetaConfig(*metaFlag)
		if err != nil {
			cli.Fatal(err)
		}
		spec.Meta = mc
	}
	if *govFlag != "" {
		spec.Power = &power.Config{Governor: *govFlag, CapWatts: *capFlag}
	} else if *capFlag != 0 {
		cli.Fatal(fmt.Errorf("-power-cap requires -governor"))
	}
	if *machFlag != "" {
		ms, err := platform.LoadMachineSpec(*machFlag)
		if err != nil {
			cli.Fatal(err)
		}
		mcfg := machine.DefaultConfig()
		mcfg.Spec = ms
		spec.MachineConfig = &mcfg
	}
	if *traceFlag != "" {
		spec.TraceEvery = 250
	}
	if *faultsFlag != "" {
		classes, err := fault.ParseClasses(*faultsFlag)
		if err != nil {
			cli.Fatal(err)
		}
		if classes != 0 {
			fc := fault.DefaultConfig()
			fc.Classes = classes
			fc.Rate = *frateFlag
			fc.Seed = *fseedFlag
			spec.Faults = &fc
		}
	}
	var recFile *os.File
	if *recordFlag != "" {
		f, err := os.Create(*recordFlag)
		if err != nil {
			cli.Fatal(err)
		}
		recFile = f
		spec.Record = f
	}
	out, err := harness.Run(context.Background(), spec)
	if err != nil {
		cli.Fatal(err)
	}
	if recFile != nil {
		if err := recFile.Close(); err != nil {
			cli.Fatal(err)
		}
	}
	if *digestFlag {
		fmt.Print(harness.RunDigest(spec.Policy, out.History, out.MetaStats, out.Power))
		return
	}

	writeTrace := func() {
		if *traceFlag == "" || out.Trace == nil {
			return
		}
		f, err := os.Create(*traceFlag)
		if err != nil {
			cli.Fatal(err)
		}
		if err := out.Trace.WriteCSV(f); err != nil {
			f.Close()
			cli.Fatal(err)
		}
		f.Close()
		fmt.Printf("trace      %s\n", *traceFlag)
	}

	if out.Traffic != nil {
		printTraffic(spec.Policy, out)
		printMeta(out.MetaStats)
		writeTrace()
		return
	}

	r := out.Result
	fmt.Printf("workload   %s (%s)\npolicy     %s\n", r.Workload, r.Type, r.Policy)
	fmt.Printf("fairness   %.4f (Eqn 4)\n", r.Fairness)
	fmt.Printf("makespan   %.1fs   mean main-bench time %.1fs\n", r.Makespan/1000, r.AvgTime/1000)
	fmt.Printf("swaps      %d (%d migrations)\n", r.Swaps, r.Migrations)
	printEnergy(out)
	if out.History != nil {
		fmt.Printf("prediction error: min %+.1f%% avg %+.1f%% max %+.1f%%\n",
			out.PredMin*100, out.PredAvg*100, out.PredMax*100)
	}
	if out.FaultStats != nil {
		fmt.Printf("faults     %d injected: %s\n", out.FaultStats.Total(), out.FaultStats)
		if out.History != nil {
			fmt.Printf("hardening  samples dropped %d rejected %d clamped %d; failed swaps %d; watchdog trips %d\n",
				out.Sanitized.Dropped, out.Sanitized.Rejected, out.Sanitized.Clamped,
				out.FailedSwaps, out.WatchdogTrips)
		}
	}
	printMeta(out.MetaStats)
	writeTrace()
	fmt.Println()
	fmt.Printf("%-15s %-6s %10s %10s %8s\n", "benchmark", "class", "time", "mean", "cv")
	for _, b := range r.Benches {
		tag := ""
		if b.Extra {
			tag = " (extra)"
		}
		fmt.Printf("%-15s %-6s %9.1fs %9.1fs %8.4f%s\n",
			b.Name, classOf(b.Name), b.Time/1000, b.MeanThreadTime/1000, b.CV, tag)
	}
}

// printTraffic reports an open-loop run: totals, fairness and the
// per-tenant sojourn/SLO table.
func printTraffic(policy string, out *harness.RunOutput) {
	tr := out.Traffic
	fmt.Printf("scenario   %s (open-loop, load %.2f)\npolicy     %s\n", tr.Name, tr.Load, policy)
	fmt.Printf("arrivals   %d admitted %d rejected %d completed %d killed %d\n",
		tr.Arrivals, tr.Admitted, tr.Rejected, tr.Completed, tr.Killed)
	fmt.Printf("fairness   jain %.4f  min/max %.4f (weight-normalized inverse slowdown)\n",
		tr.FairnessJain, tr.FairnessMinMax)
	fmt.Printf("drained    %.1fs\n", float64(tr.DrainedAtMs)/1000)
	printEnergy(out)
	if out.History != nil {
		fmt.Printf("prediction error: min %+.1f%% avg %+.1f%% max %+.1f%%\n",
			out.PredMin*100, out.PredAvg*100, out.PredMax*100)
	}
	fmt.Println()
	fmt.Printf("%-12s %8s %8s %8s %8s %8s %8s %9s %9s\n",
		"class", "complete", "p50", "p95", "p99", "max", "slowdown", "slo", "viol%")
	for _, c := range tr.Classes {
		slo := "-"
		viol := "-"
		if c.SLOMs > 0 {
			slo = fmt.Sprintf("%.0fms", c.SLOMs)
			viol = fmt.Sprintf("%.1f", 100*c.ViolationRate)
		}
		fmt.Printf("%-12s %8d %7.0fms %7.0fms %7.0fms %7.0fms %8.2f %9s %9s\n",
			c.Name, c.Completed, c.P50Ms, c.P95Ms, c.P99Ms, c.MaxMs, c.Slowdown, slo, viol)
	}
}

// printEnergy reports the run's power-model outcome and, for governed
// runs, the governor's decision totals.
func printEnergy(out *harness.RunOutput) {
	fmt.Printf("energy     %.0f J (EDP %.1f J·s)\n", out.EnergyJ, out.EDP)
	if out.Power != nil {
		fmt.Printf("governor   %s: %d invocation(s), %d DVFS actuation(s)\n",
			out.Power.Governor, len(out.Power.Invocations), out.Power.Actions())
	}
}

// printMeta reports the meta policy's tournament record: switch count,
// shadow work, and the live-policy timeline (one entry per change).
func printMeta(ms *tournament.Stats) {
	if ms == nil {
		return
	}
	fmt.Printf("meta       %d epoch(s), %d switch(es), %d shadow quanta, objective %s\n",
		len(ms.Epochs), ms.Switches, ms.ShadowQuanta, ms.Objective)
	var tl strings.Builder
	cur := ""
	for _, ep := range ms.Epochs {
		if ep.Live != cur {
			fmt.Fprintf(&tl, " %dms:%s", ep.TimeMs, ep.Live)
			cur = ep.Live
		}
	}
	fmt.Printf("live       %s ->%s (final %s)\n", ms.Candidates[0], tl.String(), ms.FinalPolicy)
}

// loadMetaConfig reads a tournament config JSON file, rejecting unknown
// fields so a typo'd key fails loudly instead of silently running the
// defaults.
func loadMetaConfig(path string) (*tournament.Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var cfg tournament.Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("meta config %s: %w", path, err)
	}
	return &cfg, nil
}

// replayRun re-executes a recorded log and reports the verified run.
func replayRun(path string, digest bool) {
	f, err := os.Open(path)
	if err != nil {
		cli.Fatal(err)
	}
	defer f.Close()
	out, err := harness.Replay(f)
	if err != nil {
		cli.Fatal(err)
	}
	if digest {
		fmt.Print(harness.RunDigest(out.Policy, out.History, out.MetaStats, out.Power))
		return
	}
	fmt.Printf("replayed   %s (seed %d)\n", out.Policy, out.Seed)
	fmt.Printf("quanta     %d, last event at %.1fs\n", out.Quanta, float64(out.CompletedAt)/1000)
	fmt.Println("verified   every decision matched the recording")
	if out.Power != nil {
		fmt.Printf("governor   %s: %d invocation(s), %d DVFS actuation(s) replayed\n",
			out.Power.Governor, len(out.Power.Invocations), out.Power.Actions())
	}
	if out.History != nil {
		fmt.Printf("prediction error: min %+.1f%% avg %+.1f%% max %+.1f%%\n",
			out.PredMin*100, out.PredAvg*100, out.PredMax*100)
		last := out.History[len(out.History)-1]
		fmt.Printf("final gate %.4f (swap=%d quanta=%dms)\n", last.Fairness, last.SwapSize, int64(last.Quanta))
	}
}

// classOf returns the ground-truth class letter for a builtin app.
func classOf(app string) string {
	p, err := workload.LookupProfile(app)
	if err != nil {
		return "?"
	}
	return p.Class.String()
}

// customWorkload builds a workload from a comma-separated app list.
func customWorkload(list string, kmeans bool) (*workload.Workload, error) {
	w := &workload.Workload{Name: "custom"}
	for _, app := range strings.Split(list, ",") {
		p, err := workload.LookupProfile(strings.TrimSpace(app))
		if err != nil {
			return nil, err
		}
		w.Benchmarks = append(w.Benchmarks, workload.Benchmark{Profile: p, Threads: workload.ThreadsPerBenchmark})
	}
	if kmeans {
		p, err := workload.LookupProfile("kmeans")
		if err != nil {
			return nil, err
		}
		w.Benchmarks = append(w.Benchmarks, workload.Benchmark{Profile: p, Threads: workload.ThreadsPerBenchmark, Extra: true})
	}
	return w, w.Validate()
}
