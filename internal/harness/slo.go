package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"dike/internal/traffic"
)

func init() {
	register(Experiment{ID: "slo", Title: "Open-loop SLO sweep: offered load 0.3→0.95, tail latency and per-tenant fairness", Run: runSLO})
}

// BenchSLOSchema tags BENCH_slo.json so downstream tooling can reject
// files written by other generations of the benchmark.
const BenchSLOSchema = "dike/bench-slo/v1"

// SLOClassEntry is one tenant class's outcome at one (load, policy)
// point.
type SLOClassEntry struct {
	Name          string  `json:"name"`
	SLOMs         float64 `json:"slo_ms,omitempty"`
	Arrivals      int     `json:"arrivals"`
	Rejected      int     `json:"rejected,omitempty"`
	Completed     int     `json:"completed"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MeanMs        float64 `json:"mean_ms"`
	Slowdown      float64 `json:"slowdown"`
	ViolationRate float64 `json:"violation_rate"`
}

// BenchSLOEntry is one (offered load, policy) measurement of the
// open-loop sweep. The headline P*Ms fields are the worst tenant's
// percentiles across the latency-critical classes — the number an SLO
// is judged on; per-class detail is in Classes. Sojourn times are
// simulated, so they are bit-stable across hosts; NsPerQuantum,
// AllocsPerQuantum and RunsPerSec are wall-clock/heap measurements.
type BenchSLOEntry struct {
	Load             float64         `json:"load"`
	Policy           string          `json:"policy"`
	Arrivals         int             `json:"arrivals"`
	Admitted         int             `json:"admitted"`
	Rejected         int             `json:"rejected"`
	Completed        int             `json:"completed"`
	P50Ms            float64         `json:"p50_ms"`
	P95Ms            float64         `json:"p95_ms"`
	P99Ms            float64         `json:"p99_ms"`
	ViolationRate    float64         `json:"violation_rate"`
	FairnessJain     float64         `json:"fairness_jain"`
	FairnessMinMax   float64         `json:"fairness_minmax"`
	DrainedAtMs      int64           `json:"drained_at_ms"`
	Quanta           int             `json:"quanta"`
	NsPerQuantum     float64         `json:"ns_per_quantum"`
	AllocsPerQuantum float64         `json:"allocs_per_quantum"`
	RunsPerSec       float64         `json:"runs_per_sec"`
	Classes          []SLOClassEntry `json:"classes"`
}

// BenchSLO is the BENCH_slo.json document.
type BenchSLO struct {
	Schema    string          `json:"schema"`
	Seed      uint64          `json:"seed"`
	HorizonMs int64           `json:"horizon_ms"`
	Quick     bool            `json:"quick"`
	Entries   []BenchSLOEntry `json:"entries"`
}

// LoadBenchSLO reads a BENCH_slo.json document (e.g. the committed CI
// baseline).
func LoadBenchSLO(path string) (*BenchSLO, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchSLO
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if b.Schema != BenchSLOSchema {
		return nil, fmt.Errorf("harness: %s: schema %q, want %q", path, b.Schema, BenchSLOSchema)
	}
	return &b, nil
}

// CompareBenchSLO reports every (load, policy) point present in both
// documents whose worst-tenant p99 sojourn regressed by more than
// tolerance (0.25 = 25%). Sojourns are simulated time, so this gate is
// deterministic — unlike the wall-clock scale gate, a trip means the
// scheduler actually serves the tail worse, not that CI was noisy.
func CompareBenchSLO(cur, base *BenchSLO, tolerance float64) []string {
	key := func(e BenchSLOEntry) string { return fmt.Sprintf("%.2f/%s", e.Load, e.Policy) }
	baseline := make(map[string]BenchSLOEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseline[key(e)] = e
	}
	var regressions []string
	for _, e := range cur.Entries {
		b, ok := baseline[key(e)]
		if !ok || b.P99Ms <= 0 {
			continue
		}
		if e.P99Ms > b.P99Ms*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: p99 %.0f ms vs baseline %.0f (+%.0f%%)",
				key(e), e.P99Ms, b.P99Ms, 100*(e.P99Ms/b.P99Ms-1)))
		}
	}
	return regressions
}

// sloCapacity is the Table I machine's aggregate single-lane compute
// rate in work units/ms (10 fast × 2.33 + 10 slow × 1.21): the
// denominator that turns an offered-load fraction into arrival rates.
const sloCapacity = 35.4

// sloTraffic is the sweep's colocation scenario: two latency-critical
// tenants (a bursty MMPP web frontend with an admission cap and a
// steady Poisson API) sharing the machine with a diurnal batch tenant.
// Rates are sized so load=1 offers the machine its full compute
// capacity; the batch class carries 40% of the bytes in requests 10×
// longer than web's.
func sloTraffic(load float64, horizonMs int64) *traffic.Spec {
	rate := func(share, meanWork float64) float64 { return share * sloCapacity * 1000 / meanWork }
	return &traffic.Spec{
		Name:      "colo",
		HorizonMs: horizonMs,
		Load:      load,
		Classes: []traffic.ClassSpec{
			{
				Name: "web", Profile: "hotspot", MeanWork: 600, SLOMs: 900, MaxInSystem: 24,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessMMPP, RatePerSec: rate(0.40, 600)},
			},
			{
				Name: "api", Profile: "srad", MeanWork: 300, SLOMs: 500,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessPoisson, RatePerSec: rate(0.20, 300)},
			},
			{
				Name: "batch", Profile: "jacobi", MeanWork: 6000,
				Arrival: traffic.ArrivalSpec{Process: traffic.ProcessDiurnal, RatePerSec: rate(0.40, 6000)},
			},
		},
	}
}

// sloLoads returns the offered-load grid.
func sloLoads(quick bool) []float64 {
	if quick {
		return []float64{0.30, 0.80}
	}
	return []float64{0.30, 0.50, 0.70, 0.85, 0.95}
}

// sloPolicies returns the policy set the sweep compares.
func sloPolicies(quick bool) []string {
	if quick {
		return []string{PolicyCFS, PolicyDikeAF}
	}
	return []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF}
}

// runSLO sweeps offered load × policy over the colocation scenario and
// reports worst-tenant tail latency, SLO violations, admission behaviour
// and per-tenant fairness. When Options.SLOOut is set the raw
// measurements are written there as a BENCH_slo.json document.
func runSLO(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	horizon := int64(12_000)
	if opts.Quick {
		horizon = 4_000
	}
	bench := &BenchSLO{Schema: BenchSLOSchema, Seed: opts.Seed, HorizonMs: horizon, Quick: opts.Quick}
	t := &Table{
		Title:  "Open-loop colocation: worst-tenant tail latency and per-tenant fairness",
		Header: []string{"load", "policy", "arrivals", "rejected", "p50", "p95", "p99", "viol%", "jain", "minmax", "ns/quantum", "allocs/quantum"},
	}
	for _, load := range sloLoads(opts.Quick) {
		for _, pol := range sloPolicies(opts.Quick) {
			spec := RunSpec{
				Traffic: sloTraffic(load, horizon),
				Policy:  pol,
				Seed:    opts.Seed,
			}
			out, cost, err := measuredRun(context.Background(), spec)
			if err != nil {
				return nil, fmt.Errorf("slo %.2f/%s: %w", load, pol, err)
			}
			e := sloEntry(load, pol, out)
			e.AllocsPerQuantum = cost.AllocsPerQuantum
			e.RunsPerSec = cost.RunsPerSec
			bench.Entries = append(bench.Entries, e)
			t.AddRow(fmt.Sprintf("%.2f", load), pol, e.Arrivals, e.Rejected,
				fmt.Sprintf("%.0f", e.P50Ms), fmt.Sprintf("%.0f", e.P95Ms), fmt.Sprintf("%.0f", e.P99Ms),
				fmt.Sprintf("%.1f", 100*e.ViolationRate),
				fmt.Sprintf("%.4f", e.FairnessJain), fmt.Sprintf("%.4f", e.FairnessMinMax),
				fmt.Sprintf("%.0f", e.NsPerQuantum), fmt.Sprintf("%.0f", e.AllocsPerQuantum))
		}
	}
	if opts.SLOOut != "" {
		blob, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opts.SLOOut, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, arrival horizon %dms; p50/p95/p99 are the worst latency-critical tenant's sojourn percentiles (ms, simulated)", opts.Seed, horizon),
		"runs are serial so allocs/quantum and runs/sec attribute cleanly",
	}
	if opts.SLOOut != "" {
		notes = append(notes, "raw measurements written to "+opts.SLOOut)
	}
	if opts.Quick {
		notes = append(notes, "quick mode: loads {0.30, 0.80} on cfs and dike-af only")
	}
	return &Report{ID: "slo", Title: "Open-loop SLO sweep (offered load 0.3→0.95)", Tables: []*Table{t}, Notes: notes}, nil
}

// sloEntry folds one run's traffic result into a bench entry: headline
// percentiles are the worst latency-critical tenant's, the violation
// rate pools all SLO-carrying completions.
func sloEntry(load float64, policy string, out *RunOutput) BenchSLOEntry {
	tr := out.Traffic
	e := BenchSLOEntry{
		Load: load, Policy: policy,
		Arrivals: tr.Arrivals, Admitted: tr.Admitted, Rejected: tr.Rejected, Completed: tr.Completed,
		FairnessJain: tr.FairnessJain, FairnessMinMax: tr.FairnessMinMax,
		DrainedAtMs: tr.DrainedAtMs, Quanta: out.Decisions,
	}
	if out.Decisions > 0 {
		e.NsPerQuantum = float64(out.DecisionTime.Nanoseconds()) / float64(out.Decisions)
	}
	violations, sloCompleted := 0, 0
	for _, c := range tr.Classes {
		e.Classes = append(e.Classes, SLOClassEntry{
			Name: c.Name, SLOMs: c.SLOMs, Arrivals: c.Arrivals, Rejected: c.Rejected,
			Completed: c.Completed, P50Ms: c.P50Ms, P95Ms: c.P95Ms, P99Ms: c.P99Ms,
			MeanMs: c.MeanMs, Slowdown: c.Slowdown, ViolationRate: c.ViolationRate,
		})
		if c.SLOMs > 0 {
			violations += c.Violations
			sloCompleted += c.Completed
			if c.P50Ms > e.P50Ms {
				e.P50Ms = c.P50Ms
			}
			if c.P95Ms > e.P95Ms {
				e.P95Ms = c.P95Ms
			}
			if c.P99Ms > e.P99Ms {
				e.P99Ms = c.P99Ms
			}
		}
	}
	if sloCompleted > 0 {
		e.ViolationRate = float64(violations) / float64(sloCompleted)
	}
	return e
}
