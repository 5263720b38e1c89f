package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"dike/internal/core"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/metrics"
	"dike/internal/platform"
	"dike/internal/replay"
	"dike/internal/sched"
	"dike/internal/sim"
	"dike/internal/tournament"
	"dike/internal/traffic"
	"dike/internal/workload"
)

var errNoPowerControl = errors.New("perfbench: platform has no power control")

// dikeConfig resolves the Dike configuration for a dike policy name the
// way harness.Run does: defaults, the goal named by the policy, and the
// placement seed.
func dikeConfig(policy string, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	switch policy {
	case harness.PolicyDike:
		cfg.Goal = core.AdaptNone
	case harness.PolicyDikeAF:
		cfg.Goal = core.AdaptFairness
	case harness.PolicyDikeAP:
		cfg.Goal = core.AdaptPerformance
	case harness.PolicyDikeEA:
		cfg.Goal = core.AdaptEnergy
	}
	cfg.PlacementSeed = seed
	return cfg
}

// newPolicy builds a fixed (non-meta) policy over plat. The Dike
// instance is returned separately so its bookkeeping can be read.
func newPolicy(name string, plat platform.Platform, seed uint64) (sim.Policy, *core.Dike, error) {
	switch name {
	case harness.PolicyCFS:
		return sched.NewCFS(plat, seed), nil, nil
	case harness.PolicyDIO:
		return sched.NewDIO(plat, seed), nil, nil
	case harness.PolicyDike, harness.PolicyDikeAF, harness.PolicyDikeAP, harness.PolicyDikeEA:
		dk, err := core.New(plat, dikeConfig(name, seed))
		return dk, dk, err
	}
	return nil, nil, fmt.Errorf("perfbench: policy %q is not supported by the traced run", name)
}

// tracedCandidates are the meta policy's candidate factories, built
// like the harness's, with every policy they return timed: as a shadow
// audition when handed a replay.Shadow, as the live policy otherwise.
func tracedCandidates(names []string, t *tracer) []tournament.Candidate {
	cands := make([]tournament.Candidate, len(names))
	for i, name := range names {
		cands[i] = tournament.Candidate{Name: name, New: func(p platform.Platform, seed uint64) (sim.Policy, error) {
			pol, _, err := newPolicy(name, p, seed)
			if err != nil {
				return nil, err
			}
			l := layerPolicy
			if _, ok := p.(*replay.Shadow); ok {
				l = layerShadow
			}
			return &tracedPolicy{inner: pol, l: l, t: t}, nil
		}}
	}
	return cands
}

// tracedRun rebuilds spec's simulation from the exported constructors
// harness.Run uses — machine.New, workload.Build or traffic.Build, the
// sched/core/tournament policy constructors, replay.NewRecorder and
// sim.NewEngine — with every seam wrapped so t times each layer. The
// returned output carries the fields harness.Run fills for these
// specs, except that open-loop runs leave Result nil (their outcome is
// in Traffic). Specs using features outside the benchmark's workloads
// (faults, governors, trace sampling, custom configurations) are
// refused rather than silently run differently.
func tracedRun(ctx context.Context, spec harness.RunSpec, t *tracer) (*harness.RunOutput, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Faults != nil || spec.Power != nil || spec.TraceEvery > 0 || spec.DikeConfig != nil ||
		spec.Meta != nil || spec.Step != 0 {
		return nil, errors.New("perfbench: spec uses a feature the traced run does not rebuild")
	}
	start := time.Now()
	t.enter(layerHarness)
	run, err := buildTraced(spec, t)
	t.leave()
	if err != nil {
		return nil, err
	}
	build := time.Since(start)

	t.enter(layerSim)
	done, err := run.engine.Run(ctx)
	t.leave()
	if err != nil {
		return nil, fmt.Errorf("perfbench: traced %s run: %w", spec.Policy, err)
	}

	start = time.Now()
	t.enter(layerHarness)
	out, err := run.collect(spec, done)
	t.leave()
	t.buildTime += build
	t.collectTime += time.Since(start)
	return out, err
}

// tracedSim is a built, not yet run, traced simulation.
type tracedSim struct {
	m      *machine.Machine
	inst   *workload.Instance
	tr     *traffic.Run
	rec    *replay.Recorder
	dk     *core.Dike
	meta   *tournament.Meta
	engine *sim.Engine
}

// newWorld builds a run's machine and thread population the way
// harness.Run does: the workload's threads, or the traffic scenario's
// arrival schedule.
func newWorld(spec harness.RunSpec) (*machine.Machine, *workload.Instance, *traffic.Run, error) {
	mcfg := machine.DefaultConfig()
	if spec.MachineConfig != nil {
		mcfg = *spec.MachineConfig
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Traffic != nil {
		tr, err := traffic.Build(m, *spec.Traffic, spec.Seed)
		return m, nil, tr, err
	}
	inst, err := spec.Workload.Build(m, workload.BuildOptions{Seed: spec.Seed, Scale: spec.Scale})
	return m, inst, nil, err
}

func buildTraced(spec harness.RunSpec, t *tracer) (*tracedSim, error) {
	m, inst, tr, err := newWorld(spec)
	if err != nil {
		return nil, err
	}
	s := &tracedSim{m: m, inst: inst, tr: tr}

	var plat platform.Platform = &tracedPlatform{inner: m, l: layerPlatform, t: t}
	if spec.Record != nil {
		s.rec = replay.NewRecorder(plat, spec.Record)
		plat = &tracedPlatform{inner: s.rec, l: layerReplay, t: t}
	}

	meta := replay.Meta{Policy: spec.Policy, Seed: spec.Seed}
	var pol *tracedPolicy
	if spec.Policy == harness.PolicyMeta {
		cfg := tournament.Config{}.WithDefaults()
		cfg.Candidates = append([]string(nil), harness.DefaultMetaCandidates...)
		s.meta, err = tournament.NewMeta(plat, cfg, spec.Seed, tracedCandidates(cfg.Candidates, t))
		if err != nil {
			return nil, err
		}
		if meta.PolicyConfig, err = json.Marshal(cfg); err != nil {
			return nil, err
		}
		pol = &tracedPolicy{inner: s.meta, l: layerTournament, t: t}
	} else {
		var inner sim.Policy
		inner, s.dk, err = newPolicy(spec.Policy, plat, spec.Seed)
		if err != nil {
			return nil, err
		}
		if s.dk != nil {
			if meta.PolicyConfig, err = json.Marshal(dikeConfig(spec.Policy, spec.Seed)); err != nil {
				return nil, err
			}
		}
		pol = &tracedPolicy{inner: inner, l: layerPolicy, t: t}
	}
	top := pol
	if s.rec != nil {
		if err := s.rec.Start(meta); err != nil {
			return nil, err
		}
		top = &tracedPolicy{inner: s.rec.WrapPolicy(pol), l: layerReplay, t: t}
	}
	top.top = true

	ecfg := sim.DefaultConfig()
	if spec.MaxTime > 0 {
		ecfg.MaxTime = spec.MaxTime
	} else if s.tr != nil {
		if h := sim.Time(spec.Traffic.HorizonMs) * 10; h > ecfg.MaxTime {
			ecfg.MaxTime = h
		}
	}
	s.engine, err = sim.NewEngine(&tracedWorld{m: m, t: t, tick: ecfg.Step}, top, ecfg)
	if err != nil {
		return nil, err
	}
	if s.tr != nil {
		s.engine.OnTick(tracedTick(s.tr, t))
	}
	if spec.OnProgress != nil {
		quantum := 0
		s.engine.OnQuantum(func(now sim.Time) {
			quantum++
			spec.OnProgress(harness.Progress{
				Time: now, Quantum: quantum, Alive: len(m.Alive()),
				Swaps: m.SwapCount(), Utilization: m.Utilization(),
			})
		})
	}
	return s, nil
}

// collect fills the run output the way harness.Run does.
func (s *tracedSim) collect(spec harness.RunSpec, done sim.Time) (*harness.RunOutput, error) {
	if s.rec != nil {
		if err := s.rec.Flush(); err != nil {
			return nil, err
		}
	}
	out := &harness.RunOutput{Spec: spec, CompletedAt: done}
	if s.tr != nil {
		out.Traffic = s.tr.Finalize(done)
	} else {
		res, err := metrics.Collect(s.m, s.inst, spec.Policy)
		if err != nil {
			return nil, err
		}
		out.Result = res
	}
	out.DecisionTime, out.Decisions = s.engine.DecisionCost()
	out.EnergyJ = s.m.EnergyJoules()
	out.EDP = out.EnergyJ * float64(done) / 1000
	if s.meta != nil {
		out.MetaStats = s.meta.Stats()
	}
	if dk := s.dk; dk != nil {
		out.PredMin, out.PredAvg, out.PredMax = dk.PredictionStats().MinAvgMax()
		out.ErrSeries = dk.ErrorSeries()
		out.History = dk.History()
		out.WatchdogTrips = dk.WatchdogTrips()
		out.FailedSwaps = dk.FailedSwaps()
		out.Sanitized = dk.SanitizedTotal()
	}
	return out, nil
}

// fingerprint hashes a run's deterministic outcome: its RunDigest (the
// decision stream, tournament and governor records) and every simulated
// result the benchmark reports. Two runs of one spec must agree on it.
// Open-loop runs hash their traffic result, closed-loop runs their
// metrics result, so a traced rebuild and harness.Run compare equal.
func fingerprint(out *harness.RunOutput) (string, error) {
	digest := harness.RunDigest(out.Spec.Policy, out.History, out.MetaStats, out.Power)
	var outcome any = out.Result
	if out.Traffic != nil {
		outcome = out.Traffic
	}
	blob, err := json.Marshal(struct {
		Outcome     any
		CompletedAt sim.Time
		Decisions   int
		EnergyJ     float64
	}{outcome, out.CompletedAt, out.Decisions, out.EnergyJ})
	if err != nil {
		return "", fmt.Errorf("perfbench: fingerprint: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(digest))
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil)), nil
}
