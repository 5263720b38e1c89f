package machine

import (
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// burstProgram alternates between two demands every period ms, so
// consecutive ticks present the contention solver with new inputs and
// the cold fixed-point path runs, not just the warm-start memo.
type burstProgram struct {
	work        float64
	base, burst Demand
	period      sim.Time
}

func (p burstProgram) TotalWork() float64 { return p.work }

func (p burstProgram) DemandAt(_ float64, now sim.Time) Demand {
	if (now/p.period)%2 == 1 {
		return p.burst
	}
	return p.base
}

// scaleSpec is the 8-socket, 4-core-type, 1024-logical-core machine of
// the scale sweep's largest point: per-socket memory controllers over a
// ring distance matrix.
func scaleSpec(sockets int) *platform.MachineSpec {
	spec := &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75, DVFS: []float64{1, 0.8, 0.6}},
			{Name: "perf", Speed: 2.2, SMTWays: 2},
			{Name: "mid", Speed: 1.6, SMTWays: 2, SMTPenalty: 0.8},
			{Name: "little", Speed: 1.0, SMTWays: 1},
		},
	}
	for i := 0; i < sockets; i++ {
		row := make([]float64, sockets)
		for j := range row {
			hops := min((i-j+sockets)%sockets, (j-i+sockets)%sockets)
			row[j] = float64(hops)
		}
		spec.Distance = append(spec.Distance, row)
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: []platform.CoreGroup{
				{Type: "big", Physical: 8}, {Type: "perf", Physical: 16},
				{Type: "mid", Physical: 16}, {Type: "little", Physical: 48},
			},
			Mem: platform.MemSpec{Capacity: 256, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	return spec
}

// populate fills m with one thread per logical core (plus one lane
// shared by two threads), alternating memory- and compute-intensive
// bursty programs, with every tenth group of threads barrier-coupled.
func populate(tb testing.TB, m *Machine) {
	tb.Helper()
	mem := Demand{AccessesPerWork: 8, MissRatio: 0.35}
	comp := Demand{AccessesPerWork: 1, MissRatio: 0.02}
	n := m.Topology().NumCores() + 1
	for i := 0; i < n; i++ {
		prog := burstProgram{work: 1e9, base: comp, burst: mem, period: sim.Time(3 + i%5)}
		if i%2 == 0 {
			prog.base, prog.burst = mem, comp
		}
		id := platform.ThreadID(i)
		if err := m.AddThread(id, i/10, prog); err != nil {
			tb.Fatal(err)
		}
		if err := m.Place(id, platform.CoreID(i%m.Topology().NumCores())); err != nil {
			tb.Fatal(err)
		}
	}
	for g := 0; g+4 <= n; g += 40 {
		if err := m.AddBarrierGroup(50, []platform.ThreadID{platform.ThreadID(g), platform.ThreadID(g + 1), platform.ThreadID(g + 2), platform.ThreadID(g + 3)}); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestStepAllocatesNothing is the tick loop's invariant: once the
// scratch buffers have grown, Step allocates no objects — on the legacy
// single-controller machine and on a multi-domain spec machine, through
// swaps, migrations and DVFS changes between ticks.
func TestStepAllocatesNothing(t *testing.T) {
	machines := map[string]Config{
		"legacy-40": DefaultConfig(),
		"8s4t-1024": specConfig(scaleSpec(8)),
		"2s-split":  specConfig(twoSocketSpec()),
	}
	for name, cfg := range machines {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			populate(t, m)
			nc := m.Topology().NumCores()
			now := sim.Time(0)
			tick := func() {
				m.Step(now, 1)
				now++
				switch now % 40 {
				case 10:
					if err := m.Swap(1, platform.ThreadID(nc/2), now); err != nil {
						t.Fatal(err)
					}
				case 20:
					if err := m.Migrate(2, platform.CoreID(nc-1), now); err != nil {
						t.Fatal(err)
					}
				case 30:
					if err := m.Migrate(2, 2, now); err != nil {
						t.Fatal(err)
					}
					if err := m.SetDVFS(0, m.DVFSLevels(0)-1); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 100; i++ {
				tick()
			}
			if allocs := testing.AllocsPerRun(400, tick); allocs != 0 {
				t.Errorf("steady-state Step allocates %v objects per tick, want 0", allocs)
			}
		})
	}
}

// BenchmarkStep1024 times one tick of the 8-socket 1024-core machine,
// fully populated with bursty threads.
func BenchmarkStep1024(b *testing.B) {
	m, err := New(specConfig(scaleSpec(8)))
	if err != nil {
		b.Fatal(err)
	}
	populate(b, m)
	now := sim.Time(0)
	for ; now < 100; now++ {
		m.Step(now, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(now, 1)
		now++
	}
}
