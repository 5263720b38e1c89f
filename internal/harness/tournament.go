package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"dike/internal/serve/api"
	"dike/internal/store"
	"dike/internal/tournament"
)

func init() {
	register(Experiment{
		ID:    "tournament",
		Title: "Meta-scheduling tournament: policy × load leaderboard with per-cell regret vs oracle-best",
		Run:   runTournament,
	})
}

// BenchTournamentSchema tags BENCH_tournament.json documents.
const BenchTournamentSchema = "dike/bench-tournament/v1"

// TournamentMeasure is one grid cell's deterministic measurement: the
// worst latency-critical tenant's sojourn percentiles under one policy
// at one offered load, plus the meta policy's switching record. It is
// a pure function of the cell's RunSpec, so it is also the payload the
// content-addressed cell cache stores under the spec digest.
type TournamentMeasure struct {
	Load            float64 `json:"load"`
	Policy          string  `json:"policy"`
	Arrivals        int     `json:"arrivals"`
	Rejected        int     `json:"rejected"`
	Completed       int     `json:"completed"`
	P50Ms           float64 `json:"p50_ms"`
	P95Ms           float64 `json:"p95_ms"`
	P99Ms           float64 `json:"p99_ms"`
	ViolationRate   float64 `json:"violation_rate"`
	FairnessJain    float64 `json:"fairness_jain"`
	MetaSwitches    int     `json:"meta_switches,omitempty"`
	MetaFinalPolicy string  `json:"meta_final_policy,omitempty"`
	// AllocsPerQuantum and RunsPerSec are wall-clock/heap measurements
	// (measuredRun), populated only in plain local mode: a store-cached
	// or served cell must stay a pure function of the spec digest, so
	// those modes leave both fields zero and omitted — cached and served
	// documents keep their historical bytes.
	AllocsPerQuantum float64 `json:"allocs_per_quantum,omitempty"`
	RunsPerSec       float64 `json:"runs_per_sec,omitempty"`
}

// BenchTournamentCell is a measured cell with its leaderboard
// placement. Digest is the underlying run's content address — the same
// value a dikeserved digest lookup resolves, so any cell can be audited
// against a served or replayed run.
type BenchTournamentCell struct {
	TournamentMeasure
	Digest string  `json:"digest"`
	Oracle bool    `json:"oracle"`
	Rank   int     `json:"rank"`
	Regret float64 `json:"regret"`
	Winner bool    `json:"winner,omitempty"`
}

// BenchTournament is the BENCH_tournament.json document. Every field
// except the plain-local throughput columns (allocs_per_quantum,
// runs_per_sec) is derived from simulated time and the grid definition,
// so two store-cached or served runs of the same grid write
// byte-identical documents; plain local runs add the wall-clock/heap
// columns on top of the identical deterministic core.
type BenchTournament struct {
	Schema    string                `json:"schema"`
	Seed      uint64                `json:"seed"`
	HorizonMs int64                 `json:"horizon_ms"`
	Quick     bool                  `json:"quick"`
	Policies  []string              `json:"policies"`
	Loads     []float64             `json:"loads"`
	Cells     []BenchTournamentCell `json:"cells"`
}

// LoadBenchTournament reads a BENCH_tournament.json document.
func LoadBenchTournament(path string) (*BenchTournament, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BenchTournament
	if err := json.Unmarshal(blob, &b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if b.Schema != BenchTournamentSchema {
		return nil, fmt.Errorf("harness: %s: schema %q, want %q", path, b.Schema, BenchTournamentSchema)
	}
	return &b, nil
}

// CompareBenchTournament reports every (load, policy) cell present in
// both documents whose p99 regressed by more than tolerance. Like the
// SLO gate, sojourns are simulated time: a trip means the scheduler
// actually serves the tail worse.
func CompareBenchTournament(cur, base *BenchTournament, tolerance float64) []string {
	key := func(c BenchTournamentCell) string { return fmt.Sprintf("%.2f/%s", c.Load, c.Policy) }
	baseline := make(map[string]BenchTournamentCell, len(base.Cells))
	for _, c := range base.Cells {
		baseline[key(c)] = c
	}
	var regressions []string
	for _, c := range cur.Cells {
		b, ok := baseline[key(c)]
		if !ok || b.P99Ms <= 0 {
			continue
		}
		if c.P99Ms > b.P99Ms*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: p99 %.0f ms vs baseline %.0f (+%.0f%%)",
				key(c), c.P99Ms, b.P99Ms, 100*(c.P99Ms/b.P99Ms-1)))
		}
	}
	return regressions
}

// GateBenchTournament checks the document's absolute meta-scheduling
// acceptance properties at every load: the meta policy must beat the
// worst fixed policy's p99 and stay within regretMax of the per-load
// oracle-best. Violations are returned as human-readable strings.
func GateBenchTournament(b *BenchTournament, regretMax float64) []string {
	var violations []string
	for _, load := range b.Loads {
		var meta *BenchTournamentCell
		worstFixed := 0.0
		for i := range b.Cells {
			c := &b.Cells[i]
			if c.Load != load {
				continue
			}
			if c.Policy == PolicyMeta {
				meta = c
			} else if c.P99Ms > worstFixed {
				worstFixed = c.P99Ms
			}
		}
		if meta == nil {
			violations = append(violations, fmt.Sprintf("load %.2f: no meta cell", load))
			continue
		}
		if worstFixed > 0 && meta.P99Ms >= worstFixed {
			violations = append(violations, fmt.Sprintf(
				"load %.2f: meta p99 %.0f ms does not beat worst fixed policy (%.0f)",
				load, meta.P99Ms, worstFixed))
		}
		if meta.Regret > regretMax {
			violations = append(violations, fmt.Sprintf(
				"load %.2f: meta regret %.1f%% exceeds %.0f%% of oracle-best",
				load, 100*meta.Regret, 100*regretMax))
		}
	}
	return violations
}

// tournamentLoads returns the offered-load grid.
func tournamentLoads(quick bool) []float64 {
	if quick {
		return []float64{0.30, 0.95}
	}
	return []float64{0.30, 0.50, 0.70, 0.85, 0.95}
}

// tournamentPolicies returns the grid's entrants: the fixed comparison
// policies (the oracle-eligible pool) plus the meta policy competing on
// the same cells.
func tournamentPolicies(quick bool) []string {
	if quick {
		return []string{PolicyDIO, PolicyDikeAF, PolicyMeta}
	}
	return []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF, PolicyMeta}
}

// tournamentMeasure folds one local run into a cell measurement.
func tournamentMeasure(load float64, policy string, out *RunOutput) TournamentMeasure {
	e := sloEntry(load, policy, out)
	m := TournamentMeasure{
		Load: load, Policy: policy,
		Arrivals: e.Arrivals, Rejected: e.Rejected, Completed: e.Completed,
		P50Ms: e.P50Ms, P95Ms: e.P95Ms, P99Ms: e.P99Ms,
		ViolationRate: e.ViolationRate, FairnessJain: e.FairnessJain,
	}
	if ms := out.MetaStats; ms != nil {
		m.MetaSwitches = ms.Switches
		m.MetaFinalPolicy = ms.FinalPolicy
	}
	return m
}

// tournamentMeasureFromAPI folds a served run result into the same cell
// measurement a local run produces: worst SLO-carrying class
// percentiles, pooled violation rate.
func tournamentMeasureFromAPI(load float64, policy string, res *api.RunResult) (TournamentMeasure, error) {
	if res.Traffic == nil {
		return TournamentMeasure{}, fmt.Errorf("harness: served %s run has no traffic result", policy)
	}
	tr := res.Traffic
	m := TournamentMeasure{
		Load: load, Policy: policy,
		Arrivals: tr.Arrivals, Rejected: tr.Rejected, Completed: tr.Completed,
		FairnessJain:    tr.FairnessJain,
		MetaSwitches:    res.MetaSwitches,
		MetaFinalPolicy: res.MetaFinalPolicy,
	}
	violations, sloCompleted := 0.0, 0
	for _, c := range tr.Classes {
		if c.SLOMs <= 0 {
			continue
		}
		violations += c.ViolationRate * float64(c.Completed)
		sloCompleted += c.Completed
		if c.P50Ms > m.P50Ms {
			m.P50Ms = c.P50Ms
		}
		if c.P95Ms > m.P95Ms {
			m.P95Ms = c.P95Ms
		}
		if c.P99Ms > m.P99Ms {
			m.P99Ms = c.P99Ms
		}
	}
	if sloCompleted > 0 {
		m.ViolationRate = violations / float64(sloCompleted)
	}
	return m, nil
}

// tournamentCellRunner executes grid cells in one of three modes:
// locally, locally with a content-addressed durable cell cache, or
// against a running dikeserved/dikecoord instance (whose own digest
// cache and store then dedup the work).
type tournamentCellRunner struct {
	store  *store.Store
	server string
	client *http.Client
	// hits/misses count cell-cache outcomes in store mode.
	hits, misses int
}

func (r *tournamentCellRunner) run(ctx context.Context, spec RunSpec, load float64) (TournamentMeasure, string, error) {
	if r.server != "" {
		return r.runServed(ctx, spec, load)
	}
	digest, err := spec.Digest()
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	if r.store != nil {
		if blob, ok := r.store.Get(digest); ok {
			var m TournamentMeasure
			if err := json.Unmarshal(blob, &m); err == nil && m.Policy == spec.Policy {
				r.hits++
				return m, digest, nil
			}
		}
		r.misses++
	}
	// Plain local mode (no store, no server) measures throughput around
	// the run; the store path must keep the cached blob a pure function
	// of the digest, so it runs unmeasured.
	var m TournamentMeasure
	if r.store == nil {
		out, cost, err := measuredRun(ctx, spec)
		if err != nil {
			return TournamentMeasure{}, "", err
		}
		m = tournamentMeasure(load, spec.Policy, out)
		m.AllocsPerQuantum = cost.AllocsPerQuantum
		m.RunsPerSec = cost.RunsPerSec
		return m, digest, nil
	}
	out, err := Run(ctx, spec)
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	m = tournamentMeasure(load, spec.Policy, out)
	if r.store != nil {
		meta, _ := json.Marshal(map[string]any{"load": load, "policy": spec.Policy, "seed": spec.Seed})
		blob, err := json.Marshal(m)
		if err == nil {
			if err := r.store.Put(digest, meta, blob); err != nil {
				return TournamentMeasure{}, "", fmt.Errorf("harness: tournament store: %w", err)
			}
		}
	}
	return m, digest, nil
}

// runServed submits the cell to the server and polls the job to its
// terminal state. The server resolves the request to the same RunSpec
// digest BuildRunSpec computes locally, so repeated grids hit its
// caches instead of simulating.
func (r *tournamentCellRunner) runServed(ctx context.Context, spec RunSpec, load float64) (TournamentMeasure, string, error) {
	traffic, err := json.Marshal(spec.Traffic)
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	seed := spec.Seed
	req := api.RunRequest{Policy: spec.Policy, Seed: &seed, Traffic: traffic}
	body, err := json.Marshal(req)
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	var sub api.SubmitResponse
	if err := r.postJSON(ctx, r.server+"/v1/runs", body, &sub); err != nil {
		return TournamentMeasure{}, "", err
	}
	view, err := r.awaitJob(ctx, sub.ID)
	if err != nil {
		return TournamentMeasure{}, "", err
	}
	if view.Status != api.StatusDone {
		return TournamentMeasure{}, "", fmt.Errorf("harness: served %s/%.2f job %s: %s (%s)",
			spec.Policy, load, sub.ID, view.Status, view.Error)
	}
	var res api.RunResult
	if err := json.Unmarshal(view.Result, &res); err != nil {
		return TournamentMeasure{}, "", fmt.Errorf("harness: served run result: %w", err)
	}
	m, err := tournamentMeasureFromAPI(load, spec.Policy, &res)
	return m, sub.Digest, err
}

func (r *tournamentCellRunner) postJSON(ctx context.Context, url string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("harness: POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(blob))
	}
	return json.Unmarshal(blob, into)
}

func (r *tournamentCellRunner) awaitJob(ctx context.Context, id string) (*api.JobView, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.server+"/v1/runs/"+id, nil)
		if err != nil {
			return nil, err
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return nil, err
		}
		blob, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode/100 != 2 {
			return nil, fmt.Errorf("harness: GET job %s: %s: %s", id, resp.Status, bytes.TrimSpace(blob))
		}
		var view api.JobView
		if err := json.Unmarshal(blob, &view); err != nil {
			return nil, err
		}
		if api.Terminal(view.Status) {
			return &view, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// runTournament runs the level-2 competitive grid: every entrant policy
// (fixed comparison set + the meta policy) over the colocation scenario
// at every offered load, ranked per cell with regret against the
// per-load oracle-best fixed policy.
func runTournament(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	if opts.TournamentStore != "" && opts.TournamentServer != "" {
		return nil, fmt.Errorf("harness: tournament store and server modes are mutually exclusive")
	}
	horizon := int64(12_000)
	if opts.Quick {
		horizon = 4_000
	}
	runner := &tournamentCellRunner{server: opts.TournamentServer, client: &http.Client{Timeout: 5 * time.Minute}}
	if opts.TournamentStore != "" {
		st, err := store.Open(opts.TournamentStore, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("harness: tournament store: %w", err)
		}
		defer st.Close()
		runner.store = st
	}

	loads := tournamentLoads(opts.Quick)
	policies := tournamentPolicies(opts.Quick)
	bench := &BenchTournament{
		Schema: BenchTournamentSchema, Seed: opts.Seed, HorizonMs: horizon, Quick: opts.Quick,
		Policies: policies, Loads: loads,
	}
	t := &Table{
		Title:  "Tournament leaderboard: worst-tenant p99 per (load, policy), regret vs oracle-best",
		Header: []string{"load", "rank", "policy", "p99", "regret%", "viol%", "jain", "switches", "final"},
	}
	ctx := context.Background()
	for _, load := range loads {
		cells := make(map[string]BenchTournamentCell, len(policies))
		entries := make([]tournament.CellEntry, 0, len(policies))
		for _, pol := range policies {
			spec := RunSpec{Traffic: sloTraffic(load, horizon), Policy: pol, Seed: opts.Seed}
			m, digest, err := runner.run(ctx, spec, load)
			if err != nil {
				return nil, fmt.Errorf("tournament %.2f/%s: %w", load, pol, err)
			}
			oracle := pol != PolicyMeta
			cells[pol] = BenchTournamentCell{TournamentMeasure: m, Digest: digest, Oracle: oracle}
			entries = append(entries, tournament.CellEntry{Policy: pol, Objective: m.P99Ms, Oracle: oracle})
		}
		ranked, err := tournament.RankCell(entries)
		if err != nil {
			return nil, fmt.Errorf("tournament %.2f: %w", load, err)
		}
		for _, re := range ranked {
			cell := cells[re.Policy]
			cell.Rank = re.Rank
			cell.Regret = re.Regret
			cell.Winner = re.Winner
			bench.Cells = append(bench.Cells, cell)
			t.AddRow(fmt.Sprintf("%.2f", load), cell.Rank, cell.Policy,
				fmt.Sprintf("%.0f", cell.P99Ms), fmt.Sprintf("%+.1f", 100*cell.Regret),
				fmt.Sprintf("%.1f", 100*cell.ViolationRate), fmt.Sprintf("%.4f", cell.FairnessJain),
				cell.MetaSwitches, cell.MetaFinalPolicy)
		}
	}
	if opts.TournamentOut != "" {
		blob, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(opts.TournamentOut, append(blob, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	notes := []string{
		fmt.Sprintf("seed %d, arrival horizon %dms; objective is the worst latency-critical tenant's p99 sojourn (ms, simulated), lower is better", opts.Seed, horizon),
		"regret is p99 relative to the per-load oracle-best fixed policy; meta competes but is not oracle-eligible",
	}
	switch {
	case runner.server != "":
		notes = append(notes, "cells simulated by "+runner.server+" (server-side digest cache and durable store dedup repeated grids)")
	case runner.store != nil:
		s := runner.store.Stats()
		notes = append(notes, fmt.Sprintf("cell cache %s: %d hit(s), %d miss(es), %d result(s) stored",
			opts.TournamentStore, runner.hits, runner.misses, s.Results))
	}
	if opts.TournamentOut != "" {
		notes = append(notes, "leaderboard written to "+opts.TournamentOut)
	}
	if opts.Quick {
		notes = append(notes, "quick mode: loads {0.30, 0.95}, horizon 4s, dio/dike-af/meta only")
	}
	return &Report{ID: "tournament", Title: "Competitive meta-scheduling tournament", Tables: []*Table{t}, Notes: notes}, nil
}
