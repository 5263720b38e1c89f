package main

import (
	"fmt"
	"math/rand"

	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/serve/api"
	"dike/internal/sim"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// Every input below is generated from the workload seed; the program
// under test receives only the generated specs and requests.

const (
	// paperScale shrinks the Table II applications so one WL1–WL16 pass
	// takes a few seconds.
	paperScale = 0.05
	// scaleWorkScale is the work scale of the 1024-core run: long enough
	// for 16 scheduling quanta, short enough for several runs per
	// measurement.
	scaleWorkScale = 0.02
	// coloHorizonMs is the colocation scenario's arrival window, and
	// coloScenarios how many scenarios, each with its own arrival seed,
	// one iteration runs. Arrivals differ a lot from seed to seed, so
	// an iteration averages over several.
	coloHorizonMs = 4000
	coloScenarios = 12
	// coloLoad is the offered load of the colocation scenario.
	coloLoad = 0.95
	// coloCapacity is the Table I machine's aggregate single-lane compute
	// rate in work units/ms (10 fast × 2.33 + 10 slow × 1.21), which turns
	// an offered-load fraction into arrival rates.
	coloCapacity = 35.4
)

// paperPolicies are the policies the paper compares; WLn runs under
// paperPolicies[(n-1)%5].
var paperPolicies = []string{harness.PolicyCFS, harness.PolicyDIO, harness.PolicyDike, harness.PolicyDikeAF, harness.PolicyDikeAP}

// paperSpecs is the paper-40 workload: Table II WL1–WL16 on the Table I
// 40-core machine, one run each.
func paperSpecs(seed uint64) ([]harness.RunSpec, error) {
	specs := make([]harness.RunSpec, 0, workload.NumWorkloads)
	for n := 1; n <= workload.NumWorkloads; n++ {
		w, err := workload.Table2(n)
		if err != nil {
			return nil, err
		}
		specs = append(specs, harness.RunSpec{Workload: w, Policy: paperPolicies[(n-1)%len(paperPolicies)], Seed: seed, Scale: paperScale})
	}
	return specs, nil
}

// ringDistance is an n-socket distance matrix with ring hop counts.
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

// scaleMachine is the `-exp scale` point 8s4t-1024: 8 sockets of four
// core types (88 physical, 128 logical cores each), one memory
// controller per socket at 2 misses/ms per logical core, ring distances.
func scaleMachine() machine.Config {
	types := []platform.CoreTypeSpec{
		{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75, DVFS: []float64{1, 0.8, 0.6}},
		{Name: "perf", Speed: 2.2, SMTWays: 2},
		{Name: "mid", Speed: 1.6, SMTWays: 2, SMTPenalty: 0.8},
		{Name: "little", Speed: 1.0, SMTWays: 1},
	}
	groups := []platform.CoreGroup{
		{Type: "big", Physical: 8}, {Type: "perf", Physical: 16},
		{Type: "mid", Physical: 16}, {Type: "little", Physical: 48},
	}
	const sockets, logicalPerSocket = 8, 128
	spec := &platform.MachineSpec{CoreTypes: types, Distance: ringDistance(sockets)}
	for s := 0; s < sockets; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: groups,
			Mem:   platform.MemSpec{Capacity: 2 * logicalPerSocket, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	return cfg
}

// scaleSpecs is the scale-1024 workload: one generated application per
// 10 logical cores, half of them memory-intensive, under dike.
func scaleSpecs(seed uint64) ([]harness.RunSpec, error) {
	const logical = 1024
	n := logical / workload.ThreadsPerBenchmark
	w, err := workload.Generate(workload.GeneratorSpec{
		Name:         fmt.Sprintf("scale%d", logical),
		Benchmarks:   n,
		ThreadsPer:   workload.ThreadsPerBenchmark,
		MemoryApps:   n / 2,
		AllowRepeats: true,
	}, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	cfg := scaleMachine()
	return []harness.RunSpec{{Workload: w, Policy: harness.PolicyDike, Seed: seed, Scale: scaleWorkScale, MachineConfig: &cfg}}, nil
}

// coloTraffic is the three-tenant colocation scenario of `-exp slo`: a
// bursty MMPP web tenant with an admission cap and a Poisson API tenant,
// both with SLOs, sharing the machine with a diurnal batch tenant.
func coloTraffic() *traffic.Spec {
	rate := func(share, meanWork float64) float64 { return share * coloCapacity * 1000 / meanWork }
	return &traffic.Spec{
		Name:      "colo",
		HorizonMs: coloHorizonMs,
		Load:      coloLoad,
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

// coloSpecs is the colo-meta workload: coloScenarios runs of the
// colocation scenario under the meta policy, with seeds derived from
// the workload seed.
func coloSpecs(seed uint64) ([]harness.RunSpec, error) {
	specs := make([]harness.RunSpec, coloScenarios)
	for k := range specs {
		specs[k] = harness.RunSpec{Traffic: coloTraffic(), Policy: harness.PolicyMeta, Seed: seed*coloScenarios + uint64(k)}
	}
	return specs, nil
}

// servedPlan is the served workload's input: a pool of distinct small
// run requests and the sequence in which the clients send them.
type servedPlan struct {
	pool []api.RunRequest
	keys []string // keys[i] names pool[i]
	seq  []int    // pool indices, in send order
}

const (
	servedCache    = 32   // the worker's LRU size, in results; smaller than the pool
	servedRequests = 600  // requests per round
	servedScale    = 0.01 // work scale of every served run
	servedClients  = 2    // closed-loop client connections
	servedWorkers  = 2    // the worker's simulation pool
	servedTailPct  = 99   // the percentile op_tail_ms reports
)

// planServed builds the pool — every Table II workload under every
// paper policy, each with a simulation seed drawn from the workload
// seed — and a uniform request sequence over it. Every seed thus serves
// the same mix of workloads and policies, so the slowest simulations,
// which set the latency tail, are alike from seed to seed.
func planServed(seed uint64) servedPlan {
	rng := rand.New(rand.NewSource(int64(seed)))
	var p servedPlan
	for wl := 1; wl <= workload.NumWorkloads; wl++ {
		for _, pol := range paperPolicies {
			s := uint64(1 + rng.Intn(1<<16))
			p.pool = append(p.pool, api.RunRequest{Workload: wl, Policy: pol, Seed: &s, Scale: servedScale})
			p.keys = append(p.keys, fmt.Sprintf("wl%d/%s/s%d", wl, pol, s))
		}
	}
	p.seq = make([]int, servedRequests)
	for i := range p.seq {
		p.seq[i] = rng.Intn(len(p.pool))
	}
	return p
}
