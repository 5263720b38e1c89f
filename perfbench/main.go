// Command perfbench is the repository's benchmark. It runs one named
// workload from a single process, measures it for a fixed time, checks
// every output, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	perfbench --workload paper-40 --seed 42 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it alternates untraced and traced iterations and
// reports per-layer metrics and the tracing overhead. --heldout runs
// every workload at the held-out seed. See README.md for the workloads,
// the metrics and the measured baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

const (
	// pinnedSeed is the default seed, whose results are pinned in
	// expected.json.
	pinnedSeed = 42
	// heldoutSeed was never used while tuning the benchmark; --heldout
	// runs every workload at it so later claims can be checked on a
	// fresh seed.
	heldoutSeed = 977
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps = 25
	// minIters is the fewest iterations a run makes, so that every run
	// can check repeats against each other.
	minIters = 2
)

// workloadRunner runs one workload under cfg. It returns the report and
// the workload's results in pinnable form.
type workloadRunner func(ctx context.Context, cfg runConfig) (*report, *pinnedWorkload, error)

// workloads maps each workload name to its runner.
// Each workload's op_tail_ms percentile is fixed, chosen by the tail
// rule for the operation count a run makes, so that the metric means
// the same thing on every run.
var workloads = map[string]workloadRunner{
	"paper-40":   (&simWorkload{specs: paperSpecs, tailPct: 90}).run,
	"scale-1024": (&simWorkload{specs: scaleSpecs, tailPct: 50}).run,
	"colo-meta":  (&simWorkload{specs: coloSpecs, record: true, tailPct: 75}).run,
	"served":     runServed,
}

// workloadNames returns the workload names in a fixed order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runConfig parameterises one workload run.
type runConfig struct {
	name     string
	seed     uint64
	duration time.Duration
	trace    bool
	workDir  string
	// pinned holds the expected results when seed is the pinned seed.
	pinned *pinnedWorkload
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", pinnedSeed, "workload seed")
		seconds = flag.Float64("seconds", 30, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		heldout = flag.Bool("heldout", false, "run every workload at the held-out seed")
		workDir = flag.String("work-dir", ".bench_build/perfbench", "directory for the served workload's stores and the span files")
		update  = flag.String("update-expected", "", "write the default-seed results to this file instead of measuring")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, workDir: *workDir}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fail(err)
	}
	ctx := context.Background()
	switch {
	case *update != "":
		fail(updateExpected(ctx, cfg, *update))
	case *heldout:
		cfg.seed = heldoutSeed
		fail(runHeldout(ctx, cfg))
	default:
		r, err := runOne(ctx, *name, cfg)
		if err != nil {
			fail(err)
		}
		fail(emit(r))
	}
}

// fail exits non-zero with err, or returns when err is nil.
func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne runs a workload and checks its report against the declared
// metric set.
func runOne(ctx context.Context, name string, cfg runConfig) (*report, error) {
	run, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if cfg.seed == pinnedSeed {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		cfg.pinned = exp.Workloads[name]
		if cfg.pinned == nil {
			return nil, fmt.Errorf("no pinned results for workload %q", name)
		}
	}
	cfg.name = name
	logf("workload %s, seed %d, %v, trace %v", name, cfg.seed, cfg.duration, cfg.trace)
	r, _, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	if err := conform(r, defs); err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		logf("  %-32s %14.6g %s", d.name, r.Metrics[d.name].Value, d.unit)
	}
	logf("attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
	return r, nil
}

// emit prints r as the last line of standard output.
func emit(r any) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", blob)
	return err
}

// runHeldout runs every workload at the held-out seed, printing one
// line per workload and, last, every metric prefixed by its workload.
func runHeldout(ctx context.Context, cfg runConfig) error {
	all := newReport()
	all.Correct = true
	for _, name := range workloadNames() {
		r, err := runOne(ctx, name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := emit(map[string]any{"workload": name, "seed": cfg.seed, "result": r}); err != nil {
			return err
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, m := range r.Metrics {
			all.Metrics[name+"."+k] = m
		}
	}
	return emit(all)
}
