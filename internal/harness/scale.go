package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/workload"
)

func init() {
	register(Experiment{ID: "scale", Title: "Scale sweep: 40→1024 logical cores, per-policy decision cost and fairness", Run: runScale})
}

// BenchScaleSchema tags BENCH_scale.json so downstream tooling can
// reject files written by other generations of the benchmark.
const BenchScaleSchema = "dike/bench-scale/v1"

// BenchScaleEntry is one (machine point, policy) measurement of the
// scale sweep. NsPerQuantum is wall-clock time inside policy.Quantum per
// quantum; WallMs is the whole run's wall-clock time. AllocsPerQuantum
// and RunsPerSec are additive v1 fields: heap allocations per scheduling
// quantum over the whole run and whole simulations per wall-clock
// second, both measured on serial runs so concurrent simulations cannot
// attribute each other's work. SolveItersPerTick is an additive v1
// field: the contention solver's fixed-point passes per engine tick,
// summed over controller domains — a count fixed by (spec, seed).
type BenchScaleEntry struct {
	Point             string  `json:"point"`
	Logical           int     `json:"logical"`
	Sockets           int     `json:"sockets"`
	CoreTypes         int     `json:"core_types"`
	Policy            string  `json:"policy"`
	NsPerQuantum      float64 `json:"ns_per_quantum"`
	Quanta            int     `json:"quanta"`
	Fairness          float64 `json:"fairness"`
	Swaps             int     `json:"swaps"`
	WallMs            float64 `json:"wall_ms"`
	AllocsPerQuantum  float64 `json:"allocs_per_quantum"`
	RunsPerSec        float64 `json:"runs_per_sec"`
	SolveItersPerTick float64 `json:"solve_iters_per_tick"`
}

// BenchScale is the BENCH_scale.json document.
type BenchScale struct {
	Schema  string            `json:"schema"`
	Seed    uint64            `json:"seed"`
	Scale   float64           `json:"scale"`
	Quick   bool              `json:"quick"`
	Entries []BenchScaleEntry `json:"entries"`
}

// LoadBenchScale reads a BENCH_scale.json document (e.g. the committed
// CI baseline).
func LoadBenchScale(path string) (*BenchScale, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchScale
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if b.Schema != BenchScaleSchema {
		return nil, fmt.Errorf("harness: %s: schema %q, want %q", path, b.Schema, BenchScaleSchema)
	}
	return &b, nil
}

// AllocsTolerance bounds how far allocs_per_quantum may rise above the
// baseline in CompareBenchScale. Heap allocations per quantum are fixed
// by (spec, seed) up to runtime noise well under 1%, so the bound is
// tight: one allocation per engine tick adds 100+ per quantum.
const AllocsTolerance = 0.10

// SolveItersTolerance bounds how far solve_iters_per_tick may rise
// above the baseline in CompareBenchScale. Solver passes are an exact
// count fixed by (spec, seed), so the bound only absorbs rounding of
// the recorded ratio.
const SolveItersTolerance = 0.01

// CompareBenchScale reports every (point, policy) present in both
// documents whose decision cost regressed by more than tolerance
// (0.25 = 25%), whose allocations per quantum rose by more than
// AllocsTolerance, or whose solver passes per tick rose by more than
// SolveItersTolerance. Points only one side measured (e.g. a quick run
// against a full baseline), and metrics the baseline does not record,
// are skipped.
func CompareBenchScale(cur, base *BenchScale, tolerance float64) []string {
	baseline := make(map[string]BenchScaleEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseline[e.Point+"/"+e.Policy] = e
	}
	var regressions []string
	check := func(e BenchScaleEntry, metric string, got, want, tol float64, prec int) {
		if want > 0 && got > want*(1+tol) {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: %.*f %s vs baseline %.*f (+%.0f%%)",
				e.Point, e.Policy, prec, got, metric, prec, want, 100*(got/want-1)))
		}
	}
	for _, e := range cur.Entries {
		b, ok := baseline[e.Point+"/"+e.Policy]
		if !ok {
			continue
		}
		check(e, "ns/quantum", e.NsPerQuantum, b.NsPerQuantum, tolerance, 0)
		check(e, "allocs/quantum", e.AllocsPerQuantum, b.AllocsPerQuantum, AllocsTolerance, 0)
		check(e, "solve iters/tick", e.SolveItersPerTick, b.SolveItersPerTick, SolveItersTolerance, 2)
	}
	return regressions
}

// scalePoint is one machine of the 40→1024 sweep grid.
type scalePoint struct {
	name      string
	logical   int
	sockets   int
	coreTypes int
	cfg       machine.Config
}

// ringDistance builds an n-socket distance matrix with ring hop counts
// — the interconnect shape of most multi-die parts.
func ringDistance(n int) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			hops := i - j
			if hops < 0 {
				hops = -hops
			}
			if n-hops < hops {
				hops = n - hops
			}
			d[i][j] = float64(hops)
		}
	}
	return d
}

// scaleMachine builds a spec-driven machine: `sockets` identical sockets,
// each carrying the given core groups, each with its own controller
// sized to its core count, over a ring distance matrix.
func scaleMachine(sockets int, types []platform.CoreTypeSpec, groups []platform.CoreGroup) machine.Config {
	logicalPerSocket := 0
	for _, g := range groups {
		for _, t := range types {
			if t.Name == g.Type {
				logicalPerSocket += g.Physical * t.SMTWays
			}
		}
	}
	spec := &platform.MachineSpec{CoreTypes: types, Distance: ringDistance(sockets)}
	for s := 0; s < sockets; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: groups,
			// Table I provisions 80 misses/ms for 40 logical cores; keep
			// the same 2 misses/ms/core ratio per socket.
			Mem: platform.MemSpec{Capacity: 2 * float64(logicalPerSocket), BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	return cfg
}

// scaleGrid is the sweep: the legacy 40-core Table I machine, then
// spec-driven machines up to 1024 logical cores across 2–8 sockets and
// 2–4 core types. Quick mode trims to the ≤128-core points CI can
// afford.
func scaleGrid(quick bool) []scalePoint {
	two := []platform.CoreTypeSpec{
		{Name: "fast", Speed: 2.33, SMTWays: 2, DVFS: []float64{1, 0.85, 0.7}},
		{Name: "slow", Speed: 1.21, SMTWays: 2},
	}
	three := []platform.CoreTypeSpec{
		{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75},
		{Name: "mid", Speed: 1.8, SMTWays: 2, SMTPenalty: 0.8},
		{Name: "little", Speed: 1.0, SMTWays: 1},
	}
	four := []platform.CoreTypeSpec{
		{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75, DVFS: []float64{1, 0.8, 0.6}},
		{Name: "perf", Speed: 2.2, SMTWays: 2},
		{Name: "mid", Speed: 1.6, SMTWays: 2, SMTPenalty: 0.8},
		{Name: "little", Speed: 1.0, SMTWays: 1},
	}
	fourGroups := []platform.CoreGroup{
		{Type: "big", Physical: 8}, {Type: "perf", Physical: 16},
		{Type: "mid", Physical: 16}, {Type: "little", Physical: 48},
	}
	points := []scalePoint{
		{name: "t1-40", logical: 40, sockets: 2, coreTypes: 2, cfg: machine.DefaultConfig()},
		{name: "2s2t-128", logical: 128, sockets: 2, coreTypes: 2,
			cfg: scaleMachine(2, two, []platform.CoreGroup{{Type: "fast", Physical: 16}, {Type: "slow", Physical: 16}})},
	}
	if quick {
		return points
	}
	return append(points,
		scalePoint{name: "4s3t-256", logical: 256, sockets: 4, coreTypes: 3,
			cfg: scaleMachine(4, three, []platform.CoreGroup{{Type: "big", Physical: 8}, {Type: "mid", Physical: 16}, {Type: "little", Physical: 16}})},
		scalePoint{name: "4s4t-512", logical: 512, sockets: 4, coreTypes: 4,
			cfg: scaleMachine(4, four, fourGroups)},
		scalePoint{name: "8s4t-1024", logical: 1024, sockets: 8, coreTypes: 4,
			cfg: scaleMachine(8, four, fourGroups)},
	)
}

// scaleWorkload sizes a generated workload to the machine: one
// 10-thread application per 10 logical cores, half memory-intensive.
func scaleWorkload(logical int, seed uint64) (*workload.Workload, error) {
	n := logical / workload.ThreadsPerBenchmark
	if n < 2 {
		n = 2
	}
	return workload.Generate(workload.GeneratorSpec{
		Name:         fmt.Sprintf("scale%d", logical),
		Benchmarks:   n,
		ThreadsPer:   workload.ThreadsPerBenchmark,
		MemoryApps:   n / 2,
		AllowRepeats: true,
	}, sim.NewRNG(seed))
}

// scalePolicies are the policies the sweep measures decision cost for.
var scalePolicies = []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF, PolicyDikeAP}

// runScale sweeps the grid and reports, per machine point and policy,
// the wall-clock decision cost (ns per scheduling quantum) alongside
// fairness and swap counts — the roadmap's perf trajectory. When
// Options.BenchOut is set, the raw measurements are also written there
// as a BENCH_scale.json document.
func runScale(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	points := scaleGrid(opts.Quick)
	// The sweep measures decision cost, not workload completion: a small
	// work scale keeps runs to a few hundred quanta per point.
	benchScale := opts.SweepScale * 0.2

	bench := &BenchScale{Schema: BenchScaleSchema, Seed: opts.Seed, Scale: benchScale, Quick: opts.Quick}
	t := &Table{
		Title:  "Decision cost and fairness across the 40→1024-core grid",
		Header: []string{"machine", "logical", "sockets", "types", "policy", "ns/quantum", "quanta", "fairness", "swaps", "allocs/quantum", "runs/sec", "solve iters/tick"},
	}
	// Runs are serial (not RunAll) so the per-run heap and wall-clock
	// measurements are attributable to one simulation.
	for _, p := range points {
		w, err := scaleWorkload(p.logical, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, pol := range scalePolicies {
			cfg := p.cfg
			spec := RunSpec{
				Workload: w, Policy: pol, Seed: opts.Seed, Scale: benchScale,
				MachineConfig: &cfg,
			}
			out, cost, err := measuredRun(context.Background(), spec)
			if err != nil {
				return nil, fmt.Errorf("scale %s/%s: %w", p.name, pol, err)
			}
			nsq := 0.0
			if out.Decisions > 0 {
				nsq = float64(out.DecisionTime.Nanoseconds()) / float64(out.Decisions)
			}
			iters := 0.0
			if st := out.SolveStats; st.Ticks > 0 {
				iters = float64(st.Iterations) / float64(st.Ticks)
			}
			bench.Entries = append(bench.Entries, BenchScaleEntry{
				Point: p.name, Logical: p.logical, Sockets: p.sockets, CoreTypes: p.coreTypes,
				Policy: pol, NsPerQuantum: nsq, Quanta: out.Decisions,
				Fairness: out.Result.Fairness, Swaps: out.Result.Swaps,
				WallMs:           float64(cost.Wall.Microseconds()) / 1000,
				AllocsPerQuantum: cost.AllocsPerQuantum, RunsPerSec: cost.RunsPerSec,
				SolveItersPerTick: iters,
			})
			t.AddRow(p.name, p.logical, p.sockets, p.coreTypes, pol,
				fmt.Sprintf("%.0f", nsq), out.Decisions,
				fmt.Sprintf("%.4f", out.Result.Fairness), out.Result.Swaps,
				fmt.Sprintf("%.0f", cost.AllocsPerQuantum), fmt.Sprintf("%.2f", cost.RunsPerSec),
				fmt.Sprintf("%.2f", iters))
		}
	}
	if opts.BenchOut != "" {
		blob, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opts.BenchOut, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, work scale %.3f; ns/quantum is wall-clock inside policy.Quantum", opts.Seed, benchScale),
		"runs are serial so allocs/quantum and runs/sec attribute cleanly",
	}
	if opts.BenchOut != "" {
		notes = append(notes, "raw measurements written to "+opts.BenchOut)
	}
	if opts.Quick {
		notes = append(notes, "quick mode: grid trimmed to points ≤128 logical cores")
	}
	return &Report{ID: "scale", Title: "Scale sweep (40→1024 logical cores)", Tables: []*Table{t}, Notes: notes}, nil
}
