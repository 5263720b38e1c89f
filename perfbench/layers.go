package main

import (
	"fmt"
	"sort"

	"dike/internal/harness"
)

// metricDef declares a reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_ms_per_s", "ms/s"},
	{"cpu_s_per_sim_s", "s/s"},
	{"allocs_per_sim_ms", "count"},
	{"alloc_bytes_per_sim_ms", "B"},
	{"peak_rss_mb", "MiB"},
	{"fairness", "ratio"},
	{"op_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// distDefs expands a distribution metric into the four names setDist
// reports.
func distDefs(name, unit string) []metricDef {
	return []metricDef{{name + "_p50", unit}, {name + "_tail", unit}, {name + "_tail_pct", "pct"}, {name + "_n", "count"}}
}

// perLayer are the metrics of a traced run, reported on every workload;
// a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.ticks", "count"},
		{"sim.quanta", "count"},
		{"sim.host_ns_per_tick", "ns"},
		{"machine.step_ns_per_tick", "ns"},
		{"machine.step_share", "ratio"},
		{"machine.step_allocs_per_tick", "count"},
		{"machine.step_bytes_per_tick", "B"},
		{"machine.idle_skip_ms", "ms"},
		{"platform.sample_ns", "ns"},
		{"platform.affinity_calls", "count"},
		{"platform.affinity_ns", "ns"},
		{"platform.affinity_failed", "count"},
	}
	defs = append(defs, distDefs("policy.quantum_ns", "ns")...)
	defs = append(defs, []metricDef{
		{"policy.self_share", "ratio"},
		{"tournament.epochs", "count"},
		{"tournament.shadow_quanta", "count"},
		{"tournament.switches", "count"},
		{"tournament.shadow_share", "ratio"},
		{"replay.log_bytes_per_quantum", "B"},
		{"replay.record_share", "ratio"},
		{"replay.verify_s", "s"},
		{"traffic.tick_ns", "ns"},
		{"traffic.admitted", "count"},
		{"traffic.rejected", "count"},
		{"traffic.tenant_p99_ms", "ms"},
		{"harness.build_ms", "ms"},
		{"harness.collect_ms", "ms"},
	}...)
	defs = append(defs, distDefs("serve.handler_ms", "ms")...)
	defs = append(defs, distDefs("serve.queue_ms", "ms")...)
	defs = append(defs, distDefs("serve.simulate_ms", "ms")...)
	defs = append(defs, []metricDef{
		{"serve.simulations", "count"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.dedup", "count"},
	}...)
	defs = append(defs, distDefs("cluster.handler_ms", "ms")...)
	defs = append(defs, []metricDef{
		{"cluster.worker_gets_per_miss", "count"},
		{"store.hit_ratio", "ratio"},
		{"store.appends", "count"},
		{"store.appended_bytes", "B"},
		{"trace.overhead_frac", "ratio"},
	}...)
	return defs
}()

// conform checks that r reports exactly the declared metrics with their
// declared units.
func conform(r *report, defs []metricDef) error {
	want := map[string]string{}
	for _, d := range defs {
		want[d.name] = d.unit
	}
	for name, m := range r.Metrics {
		unit, ok := want[name]
		if !ok {
			return fmt.Errorf("perfbench: undeclared metric %q", name)
		}
		if unit != m.Unit {
			return fmt.Errorf("perfbench: metric %q has unit %q, declared %q", name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := r.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("perfbench: metrics not reported: %v", missing)
	}
	return nil
}

// layerInputs is what the traced iterations of a workload produced.
type layerInputs struct {
	tr       *tracer
	iters    int                  // traced iterations folded into tr
	outs     []*harness.RunOutput // one traced iteration's outputs
	verifyS  float64              // median replay-verification time per iteration
	logBytes int64                // replay log bytes per iteration
	overhead float64              // traced ÷ untraced iteration wall, minus one
}

// ratio divides, reading 0 for an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayerMetrics reports the simulation layers: engine, machine,
// platform, policy, tournament, replay, traffic and harness. Shares are
// of the time spent inside simulations (build, run and collect); counts
// are per iteration.
func setLayerMetrics(r *report, in layerInputs) {
	t := in.tr
	n := float64(in.iters)
	ticks := float64(t.ticks)
	simWall := float64((t.total[layerSim] + t.total[layerHarness]).Nanoseconds())
	r.set("sim.ticks", "count", ratio(ticks, n))
	r.set("sim.quanta", "count", ratio(float64(t.quanta), n))
	r.set("sim.host_ns_per_tick", "ns", ratio(float64(t.total[layerSim].Nanoseconds()), ticks))
	r.set("machine.step_ns_per_tick", "ns", ratio(float64(t.total[layerMachine].Nanoseconds()), ticks))
	r.set("machine.step_share", "ratio", ratio(float64(t.total[layerMachine].Nanoseconds()), simWall))
	r.set("machine.step_allocs_per_tick", "count", ratio(float64(t.stepAllocs), ticks))
	r.set("machine.step_bytes_per_tick", "B", ratio(float64(t.stepBytes), ticks))
	r.set("machine.idle_skip_ms", "ms", ratio(float64(t.idleSkipMs), n))
	r.set("platform.sample_ns", "ns", ratio(float64(t.sampleTime.Nanoseconds()), float64(t.sampleCalls)))
	r.set("platform.affinity_calls", "count", ratio(float64(t.affinity), n))
	r.set("platform.affinity_ns", "ns", ratio(float64(t.affTime.Nanoseconds()), float64(t.affinity)))
	r.set("platform.affinity_failed", "count", ratio(float64(t.affinityErr), n))
	r.setDist("policy.quantum_ns", "ns", summarize(t.quantumNs))
	r.set("policy.self_share", "ratio", ratio(float64(t.self[layerPolicy].Nanoseconds()), simWall))
	tournament := t.self[layerTournament] + t.total[layerShadow]
	r.set("tournament.shadow_share", "ratio", ratio(float64(tournament.Nanoseconds()), simWall))
	r.set("replay.record_share", "ratio", ratio(float64(t.self[layerReplay].Nanoseconds()), simWall))
	r.set("replay.log_bytes_per_quantum", "B", ratio(float64(in.logBytes), ratio(float64(t.quanta), n)))
	r.set("replay.verify_s", "s", in.verifyS)
	r.set("traffic.tick_ns", "ns", ratio(float64(t.total[layerTraffic].Nanoseconds()), float64(t.calls[layerTraffic])))
	r.set("harness.build_ms", "ms", ratio(msOf(t.buildTime), n))
	r.set("harness.collect_ms", "ms", ratio(msOf(t.collectTime), n))
	r.set("trace.overhead_frac", "ratio", in.overhead)

	var epochs, shadowQ, switches, admitted, rejected, p99 float64
	for _, out := range in.outs {
		if ms := out.MetaStats; ms != nil {
			epochs += float64(len(ms.Epochs))
			shadowQ += float64(ms.ShadowQuanta)
			switches += float64(ms.Switches)
		}
		if tr := out.Traffic; tr != nil {
			admitted += float64(tr.Admitted)
			rejected += float64(tr.Rejected)
			for _, c := range tr.Classes {
				if c.SLOMs > 0 && c.P99Ms > p99 {
					p99 = c.P99Ms
				}
			}
		}
	}
	r.set("tournament.epochs", "count", epochs)
	r.set("tournament.shadow_quanta", "count", shadowQ)
	r.set("tournament.switches", "count", switches)
	r.set("traffic.admitted", "count", admitted)
	r.set("traffic.rejected", "count", rejected)
	r.set("traffic.tenant_p99_ms", "ms", p99)
}

// servedLayers is what the traced rounds of the served workload
// measured at the HTTP, queue, cache, coordinator and store seams.
// Counts are totals over every traced round.
type servedLayers struct {
	handlerMs, queueMs, simulateMs, coordMs []float64
	simulations, hits, dedup                float64
	workerPosts, workerGets, requests       float64
	storeHits, storeMisses                  float64
	appends, appendedBytes                  float64
}

// setServeLayerMetrics reports the serving layers with counts per
// round; nil reports zeros for a workload that does not serve.
func setServeLayerMetrics(r *report, s *servedLayers, rounds float64) {
	if s == nil {
		s = &servedLayers{}
	}
	r.setDist("serve.handler_ms", "ms", summarize(s.handlerMs))
	r.setDist("serve.queue_ms", "ms", summarize(s.queueMs))
	r.setDist("serve.simulate_ms", "ms", summarize(s.simulateMs))
	r.set("serve.simulations", "count", ratio(s.simulations, rounds))
	r.set("serve.cache_hit_ratio", "ratio", ratio(s.hits, s.workerPosts))
	r.set("serve.dedup", "count", ratio(s.dedup, rounds))
	r.setDist("cluster.handler_ms", "ms", summarize(s.coordMs))
	// Every request reads its worker job at least once; the reads
	// beyond that are the coordinator polling jobs that simulate.
	r.set("cluster.worker_gets_per_miss", "count", ratio(s.workerGets-s.requests, s.simulations))
	r.set("store.hit_ratio", "ratio", ratio(s.storeHits, s.storeHits+s.storeMisses))
	r.set("store.appends", "count", ratio(s.appends, rounds))
	r.set("store.appended_bytes", "B", ratio(s.appendedBytes, rounds))
}
