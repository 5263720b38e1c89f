package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"dike/internal/fault"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/serve/api"
	"dike/internal/sim"
	"dike/internal/tournament"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// The wire format lives in internal/serve/api so the cluster
// coordinator and a single-node worker share one definition of every
// body that crosses the network; these aliases keep the serve package's
// own surface unchanged.
type (
	RunRequest       = api.RunRequest
	GeneratorRequest = api.GeneratorRequest
	FaultRequest     = api.FaultRequest
	SweepRequest     = api.SweepRequest
	RunResult        = api.RunResult
	BenchResult      = api.BenchResult
	SweepResult      = api.SweepResult
	SweepPoint       = api.SweepPoint
	JobView          = api.JobView
	Event            = api.Event
)

// Job statuses, in lifecycle order.
const (
	StatusQueued   = api.StatusQueued
	StatusRunning  = api.StatusRunning
	StatusDone     = api.StatusDone
	StatusFailed   = api.StatusFailed
	StatusCanceled = api.StatusCanceled
)

// Job is one unit of work in the server: a run or a sweep, from
// admission through its terminal state.
type Job struct {
	id     string
	kind   string // "run" | "sweep"
	digest string
	// exec performs the work when a worker picks the job up.
	exec func(ctx context.Context) (json.RawMessage, error)
	// meta is the original request body, persisted alongside the result
	// in the durable store so offline tools can see what a digest means.
	meta json.RawMessage
	// deadline bounds wall-clock execution.
	deadline time.Duration
	// ctx/cancel cover the job's whole life, so DELETE cancels it
	// whether it is still queued or already running.
	ctx    context.Context
	cancel context.CancelFunc
	events *broker

	mu        sync.Mutex
	status    string
	errMsg    string
	result    json.RawMessage
	cached    bool
	stored    bool
	done      chan struct{}
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// view snapshots the job for the API.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:     j.id,
		Kind:   j.kind,
		Status: j.status,
		Digest: j.digest,
		Cached: j.cached,
		Stored: j.stored,
		Error:  j.errMsg,
		Result: j.result,
	}
	if !j.started.IsZero() {
		v.QueueMs = j.started.Sub(j.submitted).Milliseconds()
		if !j.finished.IsZero() {
			v.RunMs = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return v
}

// Status returns the job's current status.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// terminal reports whether the job has reached a final state.
func terminal(status string) bool { return api.Terminal(status) }

// BuildRunSpec translates an API run request into a validated harness
// spec plus its digest. The OnProgress hook is attached later, per job.
// The cluster coordinator calls it too: routing a run by digest requires
// resolving the request exactly the way the worker that executes it
// will. An open-loop request's traffic spec replaces every workload
// source, and Scale does not apply to it (the arrival horizon sizes the
// run).
func BuildRunSpec(req RunRequest) (harness.RunSpec, string, error) {
	spec := harness.RunSpec{Policy: req.Policy, Seed: 42, MaxTime: sim.Time(req.MaxTimeMs)}
	var err error
	if len(req.Traffic) > 0 {
		if spec.Traffic, err = traffic.ParseSpec(req.Traffic); err != nil {
			return harness.RunSpec{}, "", err
		}
		if req.Scale != 0 {
			return harness.RunSpec{}, "", fmt.Errorf("serve: scale does not apply to traffic runs")
		}
	}
	if len(req.Meta) > 0 && req.Policy != harness.PolicyMeta {
		// Only the meta policy consults the config, and the harness
		// excludes it from any other policy's content address: it would
		// silently not affect the run, so it is rejected, not ignored.
		return harness.RunSpec{}, "", fmt.Errorf("serve: meta config requires policy %q (got %q)", harness.PolicyMeta, req.Policy)
	}
	if spec.Meta, err = decodeStrict[tournament.Config](req.Meta, "meta config"); err != nil {
		return harness.RunSpec{}, "", err
	}
	// A typoed governor field is rejected, not dropped: the run would
	// otherwise go ungoverned at a different digest than the caller
	// expects.
	if spec.Power, err = decodeStrict[power.Config](req.Power, "power config"); err != nil {
		return harness.RunSpec{}, "", err
	}
	if spec.Power != nil {
		if err := spec.Power.Validate(); err != nil {
			return harness.RunSpec{}, "", fmt.Errorf("serve: %w", err)
		}
	}
	if spec.Traffic == nil {
		if spec.Workload, err = requestWorkload(req); err != nil {
			return harness.RunSpec{}, "", err
		}
		spec.Scale = req.Scale
		if spec.Scale == 0 {
			spec.Scale = 0.1
		}
		if spec.Scale < 0 || spec.Scale > 1 {
			return harness.RunSpec{}, "", fmt.Errorf("serve: scale %g outside (0, 1]", req.Scale)
		}
	}
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	if len(req.Machine) > 0 {
		ms, err := platform.ParseMachineSpec(req.Machine)
		if err != nil {
			return harness.RunSpec{}, "", err
		}
		mcfg := machine.DefaultConfig()
		mcfg.Spec = ms
		spec.MachineConfig = &mcfg
	}
	if req.Faults != nil {
		classes, err := fault.ParseClasses(req.Faults.Classes)
		if err != nil {
			return harness.RunSpec{}, "", err
		}
		if classes != 0 {
			fc := fault.DefaultConfig()
			fc.Classes = classes
			if req.Faults.Rate != 0 {
				fc.Rate = req.Faults.Rate
			}
			if req.Faults.Seed != 0 {
				fc.Seed = req.Faults.Seed
			}
			spec.Faults = &fc
		}
	}
	digest, err := spec.Digest() // also validates policy, workload and traffic spec
	if err != nil {
		return harness.RunSpec{}, "", err
	}
	return spec, digest, nil
}

// requestWorkload resolves a closed-workload request's workload source:
// a generator, an explicit application list, or a Table II workload
// (WL1 by default).
func requestWorkload(req RunRequest) (*workload.Workload, error) {
	switch {
	case req.Generator != nil:
		g := req.Generator
		spec := workload.GeneratorSpec{
			Benchmarks:    g.Benchmarks,
			ThreadsPer:    g.ThreadsPer,
			MemoryApps:    -1,
			IncludeKmeans: g.IncludeKmeans,
		}
		if g.MemoryApps != nil {
			spec.MemoryApps = *g.MemoryApps
		}
		seed := g.Seed
		if seed == 0 {
			seed = 1
		}
		spec.Name = fmt.Sprintf("gen-%d", seed)
		return workload.Generate(spec, sim.NewRNG(seed))
	case len(req.Apps) > 0:
		w := &workload.Workload{Name: "custom:" + strings.Join(req.Apps, ",")}
		for _, app := range req.Apps {
			p, err := workload.LookupProfile(strings.TrimSpace(app))
			if err != nil {
				return nil, err
			}
			w.Benchmarks = append(w.Benchmarks, workload.Benchmark{Profile: p, Threads: workload.ThreadsPerBenchmark})
		}
		return w, nil
	default:
		n := req.Workload
		if n == 0 {
			n = 1
		}
		return workload.Table2(n)
	}
}

// decodeStrict decodes an optional JSON extension, rejecting unknown
// fields. It returns nil for an absent extension; what names it in a
// decode error.
func decodeStrict[T any](raw json.RawMessage, what string) (*T, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("serve: %s: %w", what, err)
	}
	return &v, nil
}

// runResult converts a finished harness run into the API result.
func runResult(out *harness.RunOutput) RunResult {
	r := out.Result
	res := RunResult{
		Workload:      r.Workload,
		Type:          r.Type.String(),
		Policy:        r.Policy,
		Fairness:      r.Fairness,
		MakespanMs:    r.Makespan,
		AvgTimeMs:     r.AvgTime,
		Swaps:         r.Swaps,
		Migrations:    r.Migrations,
		CompletedAtMs: out.CompletedAt.Millis(),
		PredErrMin:    out.PredMin,
		PredErrAvg:    out.PredAvg,
		PredErrMax:    out.PredMax,
	}
	if len(out.History) > 0 {
		sum := sha256.Sum256([]byte(harness.Digest(r.Policy, out.History)))
		res.DecisionSHA256 = hex.EncodeToString(sum[:])
	}
	if out.FaultStats != nil {
		res.Faults = out.FaultStats.Total()
	}
	for _, b := range r.Benches {
		res.Benches = append(res.Benches, BenchResult{
			Name: b.Name, Extra: b.Extra, TimeMs: b.Time, CV: b.CV,
		})
	}
	if tr := out.Traffic; tr != nil {
		res.Traffic = trafficResult(tr)
	}
	if ms := out.MetaStats; ms != nil {
		res.MetaSwitches = ms.Switches
		res.MetaFinalPolicy = ms.FinalPolicy
	}
	return res
}

// trafficResult converts a traffic.Result into its wire mirror.
func trafficResult(tr *traffic.Result) *api.TrafficResult {
	res := &api.TrafficResult{
		Name: tr.Name, Load: tr.Load,
		Arrivals: tr.Arrivals, Admitted: tr.Admitted, Rejected: tr.Rejected,
		Completed: tr.Completed, Killed: tr.Killed,
		FairnessJain: tr.FairnessJain, FairnessMinMax: tr.FairnessMinMax,
		DrainedAtMs: tr.DrainedAtMs,
	}
	for _, c := range tr.Classes {
		res.Classes = append(res.Classes, api.TrafficClassResult{
			Name: c.Name, SLOMs: c.SLOMs,
			Arrivals: c.Arrivals, Admitted: c.Admitted, Rejected: c.Rejected,
			Completed: c.Completed, Killed: c.Killed,
			MeanMs: c.MeanMs, P50Ms: c.P50Ms, P95Ms: c.P95Ms, P99Ms: c.P99Ms, MaxMs: c.MaxMs,
			ViolationRate: c.ViolationRate, Slowdown: c.Slowdown,
		})
	}
	return res
}
