package machine

import (
	"testing"

	"dike/internal/platform"
)

// defaultTopology builds the Table I machine and returns its topology.
func defaultTopology(t *testing.T) *platform.Topology {
	t.Helper()
	return MustNew(DefaultConfig()).Topology()
}

func TestBuildTopologyCounts(t *testing.T) {
	topo := defaultTopology(t)
	if topo.NumCores() != 40 {
		t.Fatalf("NumCores = %d, want 40", topo.NumCores())
	}
	if len(topo.FastCores()) != 20 || len(topo.SlowCores()) != 20 {
		t.Errorf("fast/slow split = %d/%d, want 20/20", len(topo.FastCores()), len(topo.SlowCores()))
	}
}

func TestTopologyDenseIDs(t *testing.T) {
	topo := defaultTopology(t)
	for i, c := range topo.Cores() {
		if int(c.ID) != i {
			t.Fatalf("core %d has id %d", i, c.ID)
		}
	}
}

func TestTopologySiblings(t *testing.T) {
	topo := defaultTopology(t)
	for _, c := range topo.Cores() {
		sib := topo.Siblings(c.ID)
		if len(sib) != 2 {
			t.Fatalf("core %d has %d siblings, want 2", c.ID, len(sib))
		}
		found := false
		for _, s := range sib {
			if s == c.ID {
				found = true
			}
			if topo.Core(s).Physical != c.Physical {
				t.Fatalf("sibling %d on different physical core", s)
			}
			if topo.Core(s).Kind != c.Kind {
				t.Fatalf("sibling %d has different kind", s)
			}
		}
		if !found {
			t.Fatalf("Siblings(%d) does not include itself", c.ID)
		}
	}
}

func TestTopologySpeeds(t *testing.T) {
	topo := defaultTopology(t)
	for _, id := range topo.FastCores() {
		if topo.Core(id).Speed != 2.33 {
			t.Fatalf("fast core speed = %v", topo.Core(id).Speed)
		}
	}
	for _, id := range topo.SlowCores() {
		if topo.Core(id).Speed != 1.21 {
			t.Fatalf("slow core speed = %v", topo.Core(id).Speed)
		}
	}
}

// TestTopologyValidation: a broken legacy topology is rejected by New,
// where the legacy fields are lowered into a machine spec.
func TestTopologyValidation(t *testing.T) {
	bad := []platform.TopologySpec{
		{FastPhysical: -1, SlowPhysical: 1, SMTWays: 1, FastSpeed: 2, SlowSpeed: 1},
		{FastPhysical: 0, SlowPhysical: 0, SMTWays: 1, FastSpeed: 2, SlowSpeed: 1},
		{FastPhysical: 1, SlowPhysical: 1, SMTWays: 0, FastSpeed: 2, SlowSpeed: 1},
		{FastPhysical: 1, SlowPhysical: 1, SMTWays: 1, FastSpeed: 0, SlowSpeed: 1},
		{FastPhysical: 1, SlowPhysical: 1, SMTWays: 1, FastSpeed: 1, SlowSpeed: 2},
	}
	for i, s := range bad {
		cfg := DefaultConfig()
		cfg.Topology = s
		if _, err := New(cfg); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestTopologyCorePanicsOutOfRange(t *testing.T) {
	topo := defaultTopology(t)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Core did not panic")
		}
	}()
	topo.Core(platform.CoreID(100))
}

func TestCoreKindString(t *testing.T) {
	if platform.FastCore.String() != "fast" || platform.SlowCore.String() != "slow" {
		t.Error("CoreKind strings wrong")
	}
}

// TestLegacyConfigLowering pins the machine every legacy config in use
// builds: each core's id, kind, speed, physical core and socket, the
// kind names, the single shared memory domain and the initial
// per-socket leakage watts. A one-pool machine has one socket, which is
// also what a replay of its log rebuilds from the recorded cores.
func TestLegacyConfigLowering(t *testing.T) {
	// pool is a run of logical cores of one kind on one socket.
	type pool struct {
		logical int
		kind    platform.CoreKind
		speed   float64
		socket  int
	}
	fast := func(n, socket int) pool { return pool{n, platform.FastCore, 2.33, socket} }
	slow := func(n, socket int) pool { return pool{n, platform.SlowCore, 1.21, socket} }
	withPools := func(f, s int) Config {
		cfg := DefaultConfig()
		cfg.Topology.FastPhysical = f
		cfg.Topology.SlowPhysical = s
		return cfg
	}
	homogeneous := withPools(20, 0) // Fig 1's all-fast machine
	scaleOut := withPools(40, 40)   // extra-scale's 4x machine
	scaleOut.MemCapacity *= 4
	cases := []struct {
		name  string
		cfg   Config
		pools []pool
		watts []float64
	}{
		{"table-1", DefaultConfig(), []pool{fast(20, 0), slow(20, 1)}, []float64{11.649999999999999, 6.050000000000001}},
		{"fig1-homogeneous", homogeneous, []pool{fast(40, 0)}, []float64{23.29999999999999}},
		{"extra-scale-4x", scaleOut, []pool{fast(80, 0), slow(80, 1)}, []float64{46.59999999999997, 24.200000000000014}},
		{"one-plus-one", withPools(1, 1), []pool{fast(2, 0), slow(2, 1)}, []float64{1.165, 0.605}},
		{"slow-only", withPools(0, 10), []pool{slow(20, 0)}, []float64{6.050000000000001}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			topo := m.Topology()
			var want []platform.Core
			for _, p := range tc.pools {
				for i := 0; i < p.logical; i++ {
					id := len(want)
					want = append(want, platform.Core{ID: platform.CoreID(id), Kind: p.kind, Speed: p.speed, Physical: id / 2, Socket: p.socket})
				}
			}
			if topo.NumCores() != len(want) {
				t.Fatalf("NumCores = %d, want %d", topo.NumCores(), len(want))
			}
			for i, c := range topo.Cores() {
				if c != want[i] {
					t.Errorf("core %d = %+v, want %+v", i, c, want[i])
				}
			}
			if names := topo.KindNames(); len(names) != 2 || names[0] != "fast" || names[1] != "slow" {
				t.Errorf("KindNames = %v, want [fast slow]", names)
			}
			if topo.NumSockets() != len(tc.watts) {
				t.Errorf("NumSockets = %d, want %d", topo.NumSockets(), len(tc.watts))
			}
			if n := m.NumMemDomains(); n != 1 {
				t.Errorf("NumMemDomains = %d, want 1", n)
			}
			watts := m.PowerSample().Watts
			if len(watts) != len(tc.watts) {
				t.Fatalf("socket watts = %v, want %v", watts, tc.watts)
			}
			for s := range watts {
				if watts[s] != tc.watts[s] {
					t.Errorf("socket %d watts = %v, want %v", s, watts[s], tc.watts[s])
				}
			}
		})
	}
}
