// Package machine models the heterogeneous multicore the paper evaluates
// on (Table I) and its topology-driven generalisation: cores of one or
// more types at different speeds, SMT lanes sharing a physical core,
// and memory controllers whose bandwidth the threads of their domain
// contend for.
//
// The model is a deterministic, millisecond-granularity performance
// model, not a cycle-accurate simulator: each tick it solves a fixed
// point between per-thread progress and memory-controller latency, which
// is enough to reproduce the contention phenomenology the scheduler
// reacts to — differential slowdown of memory- vs compute-intensive
// threads, core-type speed asymmetry, SMT interference and migration
// cost.
//
// The machine is the reference implementation of platform.Platform:
// schedulers drive it exclusively through that seam. The identifier and
// topology types live in internal/platform, as they are part of the
// seam.
package machine

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Config parameterises a Machine. DefaultConfig reproduces the paper's
// platform (Table I) in model units.
type Config struct {
	// Spec, when set, replaces the legacy Topology/Mem* fields with a
	// declarative topology-driven machine model: N core types, sockets
	// with per-socket memory controllers, a socket-distance matrix and
	// per-type DVFS tables. When nil, New lowers the legacy fields below
	// into the equivalent spec: TopologySpec.MachineSpec plus one shared
	// memory controller. The json tag omits the field when nil so the
	// canonical encoding — and therefore every existing RunSpec digest —
	// is unchanged for legacy configs.
	Spec *platform.MachineSpec `json:"Spec,omitempty"`

	Topology platform.TopologySpec

	// SMTPenalty is the throughput factor each SMT lane gets when its
	// sibling lane is also busy (e.g. 0.65: two busy hyperthreads each
	// run at 65% of the physical core's full rate).
	SMTPenalty float64

	// MemCapacity is the memory controller service capacity, misses/ms.
	MemCapacity float64
	// MemBaseLatency is the uncontended effective stall per miss, ms.
	MemBaseLatency float64
	// MemMaxUtil caps controller utilisation (keeps latency finite).
	MemMaxUtil float64
	// Overlap is the fraction of miss latency hidden by memory-level
	// parallelism, in [0, 1).
	Overlap float64
	// LLCHitLatency is the stall per LLC hit, ms.
	LLCHitLatency float64

	// MigrationStall is how long a migrated thread is descheduled while
	// its context moves (the paper's swapOH).
	MigrationStall sim.Time
	// ColdMissFactor multiplies a thread's miss ratio right after a
	// cross-socket migration; it decays back to 1. Cross-socket moves on
	// the paper's two-socket platform strand the thread's pages on the
	// remote NUMA node, so the penalty is large and long-lived (until
	// page migration catches up).
	ColdMissFactor float64
	// ColdHalfLife is the decay half-life of the cross-socket penalty, ms.
	ColdHalfLife float64
	// LocalColdFactor/LocalColdHalfLife are the equivalents for
	// migrations within a socket, where the shared LLC stays warm: a
	// small, short penalty.
	LocalColdFactor   float64
	LocalColdHalfLife float64
	// RemoteLatencyFactor multiplies a thread's per-miss stall right
	// after a cross-socket migration: until the OS migrates its pages,
	// every miss is served from the remote NUMA node. It decays toward 1
	// with ColdHalfLife.
	RemoteLatencyFactor float64
}

// DefaultConfig returns the Table I machine: 10 fast + 10 slow physical
// cores, 2-way SMT (40 logical cores), core speeds in the paper's
// 2.33/1.21 frequency ratio, one shared memory controller.
func DefaultConfig() Config {
	return Config{
		Topology: platform.TopologySpec{
			FastPhysical: 10,
			SlowPhysical: 10,
			SMTWays:      2,
			FastSpeed:    2.33,
			SlowSpeed:    1.21,
		},
		SMTPenalty:          0.78,
		MemCapacity:         80,
		MemBaseLatency:      0.008,
		MemMaxUtil:          0.96,
		Overlap:             0.30,
		LLCHitLatency:       0.0005,
		MigrationStall:      8,
		ColdMissFactor:      2.2,
		ColdHalfLife:        800,
		LocalColdFactor:     1.3,
		LocalColdHalfLife:   100,
		RemoteLatencyFactor: 1.7,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	_, err := c.machineSpec()
	return err
}

// machineSpec validates c and returns the machine description it
// builds: c.Spec when it is set, otherwise the legacy Topology and Mem*
// fields lowered into a spec — the core types "fast" and "slow", one
// socket per non-empty pool and one shared memory controller. The
// legacy fields are checked here, once: the pools by
// TopologySpec.Validate, the controller by the spec's shared_mem rules.
func (c Config) machineSpec() (*platform.MachineSpec, error) {
	spec := c.Spec
	if spec == nil {
		if err := c.Topology.Validate(); err != nil {
			return nil, err
		}
		spec = c.Topology.MachineSpec()
		spec.SharedMem = &platform.MemSpec{Capacity: c.MemCapacity, BaseLatency: c.MemBaseLatency, MaxUtil: c.MemMaxUtil}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch {
	case c.SMTPenalty <= 0 || c.SMTPenalty > 1:
		return nil, errors.New("machine: SMTPenalty must be in (0,1]")
	case c.Overlap < 0 || c.Overlap >= 1:
		return nil, errors.New("machine: Overlap must be in [0,1)")
	case c.LLCHitLatency < 0:
		return nil, errors.New("machine: negative LLCHitLatency")
	case c.MigrationStall < 0:
		return nil, errors.New("machine: negative MigrationStall")
	case c.ColdMissFactor < 1:
		return nil, errors.New("machine: ColdMissFactor must be >= 1")
	case c.ColdHalfLife <= 0:
		return nil, errors.New("machine: ColdHalfLife must be positive")
	case c.LocalColdFactor < 1:
		return nil, errors.New("machine: LocalColdFactor must be >= 1")
	case c.LocalColdHalfLife <= 0:
		return nil, errors.New("machine: LocalColdHalfLife must be positive")
	case c.RemoteLatencyFactor < 1:
		return nil, errors.New("machine: RemoteLatencyFactor must be >= 1")
	}
	return spec, nil
}

// thread is the machine-side execution state of one thread.
type thread struct {
	id       platform.ThreadID
	bench    int
	prog     Program
	core     platform.CoreID
	placed   bool
	work     float64
	finished bool
	finishAt sim.Time
	// startAt is when the thread enters the system; it is invisible to
	// scheduling and makes no progress before then.
	startAt sim.Time
	// stallUntil: thread is descheduled (migration in flight) until then.
	stallUntil sim.Time
	// migratedAt anchors the cold-cache decay; negative = never migrated.
	// coldBoost/coldHalf are the penalty magnitude (factor-1) and decay
	// half-life set by the last migration's locality.
	migratedAt sim.Time
	coldBoost  float64
	coldHalf   float64
	numaBoost  float64
	barrier    *barrierGroup
	// slot is the thread's index in its controller domain's solve inputs
	// for the current tick (valid only while it is in Step's active list).
	slot int
	// ctr is the thread's cumulative counter block (owned by the
	// machine's counter file); prev is the block as of the last Sample,
	// from which the sampler differences deltas.
	ctr  *counters.ThreadCounters
	prev counters.ThreadCounters
}

// barrierGroup couples threads that synchronise every `interval` work
// units (the KMEANS model: "excessive inter-thread communication"). No
// member may run more than one barrier segment ahead of the slowest
// unfinished member.
type barrierGroup struct {
	interval float64
	members  []*thread
}

// limit returns the maximum work t may reach given the group's state.
// Members that have not arrived yet do not hold the barrier (they join
// at the group's current segment when they start).
func (g *barrierGroup) limit(t *thread, now sim.Time) float64 {
	minSeg := math.MaxFloat64
	for _, m := range g.members {
		if m.finished || m.startAt > now {
			continue
		}
		seg := math.Floor(m.work / g.interval)
		if seg < minSeg {
			minSeg = seg
		}
	}
	if minSeg == math.MaxFloat64 {
		return t.prog.TotalWork()
	}
	return (minSeg + 1) * g.interval
}

// Disruptor injects hardware-level faults into a running machine: core
// frequency faults and offlining, silent migration failures, thread
// stalls and crashes, and perturbed counter readings. The machine (and
// the counter sampler) consult it at well-defined points; a nil
// disruptor means a perfectly healthy platform. Implementations must be
// deterministic functions of their own seed and the query arguments so
// runs stay reproducible (the fault package provides one).
type Disruptor interface {
	// CoreFactor returns the speed multiplier for core c at time now:
	// 1 = healthy, in (0,1) = thermally throttled, 0 = offline (threads
	// bound to the core make no progress until it recovers).
	CoreFactor(c platform.CoreID, now sim.Time) float64
	// MigrationFails reports whether a migration of id to core `to`
	// requested at now silently fails: the affinity change is dropped
	// and no error surfaces, exactly like a lost IPI on real hardware.
	MigrationFails(id platform.ThreadID, to platform.CoreID, now sim.Time) bool
	// ThreadFault reports whether id is stalled (descheduled, making no
	// progress) or crashes (terminates with its work incomplete) during
	// the tick beginning at now. The crash answer must be stable for all
	// of now's fault window so repeated per-tick queries are idempotent.
	ThreadFault(id platform.ThreadID, now sim.Time) (stalled, crashed bool)
	// PerturbDelta perturbs a per-thread counter delta as it is sampled:
	// it may return a corrupted copy (NaN/Inf/negative/saturated
	// readings), or ok=false to drop the sample entirely (the reading
	// was lost).
	PerturbDelta(id platform.ThreadID, now sim.Time, d counters.ThreadDelta) (_ counters.ThreadDelta, ok bool)
}

// Machine is the simulated heterogeneous multicore. It implements
// sim.World. It is not safe for concurrent use; run one Machine per
// goroutine.
type Machine struct {
	cfg  Config
	topo *platform.Topology
	file *counters.File

	// Resolved machine model (built once in New from the machine spec):
	doms       []memDomain // one per memory controller domain
	coreDomain []int       // logical core -> controller domain
	dist       [][]float64 // socket x socket distance matrix
	smtPen     []float64   // per-kind SMT penalty
	dvfsTab    [][]float64 // per-kind DVFS multiplier tables (nil = nominal only)
	dvfsLevel  []int       // per-core current DVFS level
	coreMult   []float64   // per-core current speed multiplier
	dynPeak    []float64   // per-kind dynamic watts at multiplier 1, one busy lane
	sockStatic []float64   // per-socket leakage watts (always burned)

	// threads holds every thread in registration order, which is the
	// deterministic iteration order of every per-tick fold; byID indexes
	// the same threads by id (nil = unregistered) for the API lookups.
	threads []*thread
	byID    []*thread
	groups  []*barrierGroup
	smp     *sampler // lazily-created counter sampling stream

	disruptor Disruptor

	swaps       int
	migrations  int
	migFailures int      // migrations silently dropped by the disruptor
	crashes     int      // threads terminated by injected crashes
	lastUtil    float64  // controller utilisation at the end of the last step
	lastNow     sim.Time // time at the end of the last Step (for arrival checks)

	// Energy accounting, integrated every Step from the lowered power
	// model: cumulative joules and the per-socket watts of the last step.
	energyJ   float64
	sockWatts []float64
	sockDyn   []float64 // scratch: per-socket dynamic watts this step

	// Per-tick occupancy, recounted every Step into these reused slices:
	// unfinished threads per logical core and busy lanes per physical
	// core (for the SMT penalty).
	laneCount []int
	physBusy  []int

	// scratchT is the tick's runnable threads in registration order,
	// reused across Step calls to avoid per-tick allocs.
	scratchT []*thread
	ticks    int64 // Step calls that advanced time
}

// memDomain is one memory controller domain: the controller, the solver
// that iterates against it, and the tick's solve inputs — the attainable
// rate, demand and NUMA latency multiplier of each of the domain's
// runnable threads, in registration order, and the progress rates the
// solve writes back. Step's gather fills the inputs directly; they are
// reused across ticks.
type memDomain struct {
	ctrl   MemController
	solver contentionSolver
	rates  []float64
	dems   []Demand
	lats   []float64
	prog   []float64
}

// New builds a machine from cfg.Spec, or from cfg's legacy fields
// lowered into a spec.
func New(cfg Config) (*Machine, error) {
	spec, err := cfg.machineSpec()
	if err != nil {
		return nil, err
	}
	topo, err := platform.BuildMachineTopology(spec)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:  cfg,
		topo: topo,
		file: counters.NewFile(topo.NumCores()),
	}
	m.resolve(spec)
	return m, nil
}

// resolve builds the runtime machine model — controllers, controller
// domains, distance matrix, per-kind SMT penalties, DVFS tables and
// power coefficients — from the spec the topology was built from. A
// shared_mem spec (every legacy config) resolves to a single controller
// domain spanning all sockets.
func (m *Machine) resolve(spec *platform.MachineSpec) {
	nk := m.topo.NumKinds()
	ns := m.topo.NumSockets()
	m.smtPen = make([]float64, nk)
	m.dvfsTab = make([][]float64, nk)
	// Power model: per-kind leakage and dynamic peak watts. A type
	// without explicit coefficients derives them from its speed, so
	// every machine has an energy meter.
	static := make([]float64, nk)
	m.dynPeak = make([]float64, nk)
	for k := range spec.CoreTypes {
		ct := &spec.CoreTypes[k]
		m.smtPen[k] = m.cfg.SMTPenalty
		if ct.SMTPenalty > 0 {
			m.smtPen[k] = ct.SMTPenalty
		}
		if len(ct.DVFS) > 0 {
			m.dvfsTab[k] = ct.DVFS
		}
		static[k] = ct.StaticPower()
		m.dynPeak[k] = ct.PeakPower()
	}
	sockDomain := make([]int, ns)
	if spec.SharedMem != nil {
		m.doms = []memDomain{{ctrl: MemController{Capacity: spec.SharedMem.Capacity, BaseLatency: spec.SharedMem.BaseLatency, MaxUtil: spec.SharedMem.MaxUtil}}}
	} else {
		m.doms = make([]memDomain, ns)
		for si, sock := range spec.Sockets {
			m.doms[si].ctrl = MemController{Capacity: sock.Mem.Capacity, BaseLatency: sock.Mem.BaseLatency, MaxUtil: sock.Mem.MaxUtil}
			sockDomain[si] = si
		}
	}
	m.dist = make([][]float64, ns)
	for i := range m.dist {
		m.dist[i] = make([]float64, ns)
		for j := range m.dist[i] {
			m.dist[i][j] = spec.SocketDistance(i, j)
		}
	}
	for d := range m.doms {
		dom := &m.doms[d]
		dom.solver = contentionSolver{ctrl: &dom.ctrl, overlap: m.cfg.Overlap, hitLat: m.cfg.LLCHitLatency}
	}
	m.coreDomain = make([]int, m.topo.NumCores())
	m.dvfsLevel = make([]int, m.topo.NumCores())
	m.coreMult = make([]float64, m.topo.NumCores())
	m.laneCount = make([]int, m.topo.NumCores())
	nPhys := 0
	for _, c := range m.topo.Cores() {
		m.coreDomain[c.ID] = sockDomain[c.Socket]
		m.coreMult[c.ID] = m.nominalMult(c.Kind)
		nPhys = max(nPhys, c.Physical+1)
	}
	m.physBusy = make([]int, nPhys)

	// Per-socket leakage totals: one static contribution per physical
	// core, counted once across its SMT lanes.
	m.sockStatic = make([]float64, ns)
	m.sockWatts = make([]float64, ns)
	m.sockDyn = make([]float64, ns)
	physSeen := make(map[int]bool)
	for _, c := range m.topo.Cores() {
		if !physSeen[c.Physical] {
			physSeen[c.Physical] = true
			m.sockStatic[c.Socket] += static[c.Kind]
		}
	}
	copy(m.sockWatts, m.sockStatic)
}

// nominalMult returns kind k's level-0 speed multiplier (1 when the
// type declares no DVFS table).
func (m *Machine) nominalMult(k platform.CoreKind) float64 {
	if tab := m.dvfsTab[k]; len(tab) > 0 {
		return tab[0]
	}
	return 1
}

// MustNew is New for static configurations known to be valid; it panics
// on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetDisruptor attaches a fault injector (nil detaches). Call before the
// simulation starts; swapping mid-run is allowed but makes runs depend
// on when the swap happened.
func (m *Machine) SetDisruptor(d Disruptor) { m.disruptor = d }

// Disruptor returns the attached fault injector, or nil. The counter
// sampler uses it to perturb readings on their way to schedulers.
func (m *Machine) Disruptor() Disruptor { return m.disruptor }

// Topology returns the machine's core topology.
func (m *Machine) Topology() *platform.Topology { return m.topo }

// Counters returns the machine's performance-counter file.
func (m *Machine) Counters() *counters.File { return m.file }

// AddThread registers a thread with its program and owning benchmark id.
// Threads must be added before the simulation starts and placed with
// Place before the first Step.
func (m *Machine) AddThread(id platform.ThreadID, bench int, prog Program) error {
	if id < 0 {
		return fmt.Errorf("machine: negative thread id %d", id)
	}
	if _, ok := m.lookup(id); ok {
		return fmt.Errorf("machine: duplicate thread %d", id)
	}
	if prog == nil {
		return fmt.Errorf("machine: thread %d has nil program", id)
	}
	if prog.TotalWork() <= 0 {
		return fmt.Errorf("machine: thread %d has non-positive work", id)
	}
	t := &thread{id: id, bench: bench, prog: prog, migratedAt: -1, ctr: m.file.AddThread(int(id))}
	m.threads = append(m.threads, t)
	if int(id) >= len(m.byID) {
		m.byID = append(m.byID, make([]*thread, int(id)+1-len(m.byID))...)
	}
	m.byID[id] = t
	return nil
}

// lookup returns the thread registered under id.
func (m *Machine) lookup(id platform.ThreadID) (*thread, bool) {
	if id < 0 || int(id) >= len(m.byID) || m.byID[id] == nil {
		return nil, false
	}
	return m.byID[id], true
}

// SetStart delays a thread's arrival: before `at` it is not alive, holds
// no core and makes no progress. Models the paper's dynamic workloads
// where "threads will enter and leave the systems" (§III-F).
func (m *Machine) SetStart(id platform.ThreadID, at sim.Time) error {
	t, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if at < 0 {
		return fmt.Errorf("machine: negative start time for thread %d", id)
	}
	t.startAt = at
	return nil
}

// StartOf returns a thread's arrival time (0 = present from the start).
func (m *Machine) StartOf(id platform.ThreadID) (sim.Time, error) {
	t, ok := m.lookup(id)
	if !ok {
		return 0, fmt.Errorf("machine: unknown thread %d", id)
	}
	return t.startAt, nil
}

// AddBarrierGroup couples the given threads with a barrier every interval
// work units. All members must already be registered.
func (m *Machine) AddBarrierGroup(interval float64, members []platform.ThreadID) error {
	if interval <= 0 {
		return errors.New("machine: barrier interval must be positive")
	}
	if len(members) < 2 {
		return errors.New("machine: barrier group needs at least two members")
	}
	g := &barrierGroup{interval: interval}
	for _, id := range members {
		t, ok := m.lookup(id)
		if !ok {
			return fmt.Errorf("machine: barrier member %d not registered", id)
		}
		if t.barrier != nil {
			return fmt.Errorf("machine: thread %d already in a barrier group", id)
		}
		g.members = append(g.members, t)
	}
	for _, t := range g.members {
		t.barrier = g
	}
	m.groups = append(m.groups, g)
	return nil
}

// Place sets a thread's initial core without any migration penalty.
func (m *Machine) Place(id platform.ThreadID, core platform.CoreID) error {
	t, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return fmt.Errorf("machine: core %d out of range", core)
	}
	t.core = core
	t.placed = true
	return nil
}

// Migrate moves a thread to a new core, charging the migration stall and
// cold-cache penalty. Migrating a finished thread is a no-op.
func (m *Machine) Migrate(id platform.ThreadID, core platform.CoreID, now sim.Time) error {
	t, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return fmt.Errorf("machine: core %d out of range", core)
	}
	if t.finished {
		return nil
	}
	if t.core == core {
		return nil
	}
	if m.disruptor != nil && m.disruptor.MigrationFails(id, core, now) {
		// The affinity change is silently lost: the thread stays where it
		// was and no error surfaces. Schedulers that care must verify the
		// move took effect (core.Migrator does).
		m.migFailures++
		return nil
	}
	// Cross-socket moves strand the thread's pages on the remote NUMA
	// node: a large, slowly-decaying miss penalty, scaled by the socket
	// distance (two-hop moves on big machines hurt proportionally more).
	// Same-socket moves keep the shared LLC warm.
	if d := m.dist[m.topo.SocketOf(t.core)][m.topo.SocketOf(core)]; d > 0 {
		t.coldBoost = (m.cfg.ColdMissFactor - 1) * d
		t.coldHalf = m.cfg.ColdHalfLife
		t.numaBoost = (m.cfg.RemoteLatencyFactor - 1) * d
	} else {
		t.coldBoost = m.cfg.LocalColdFactor - 1
		t.coldHalf = m.cfg.LocalColdHalfLife
		t.numaBoost = 0
	}
	t.core = core
	t.stallUntil = now + m.cfg.MigrationStall
	t.migratedAt = now
	t.ctr.Migrations++
	m.migrations++
	return nil
}

// Swap exchanges the cores of two threads (the paper's swap operation: a
// pair of migrations, no third core involved). It counts as one swap.
func (m *Machine) Swap(a, b platform.ThreadID, now sim.Time) error {
	ta, ok := m.lookup(a)
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", a)
	}
	tb, ok := m.lookup(b)
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", b)
	}
	if a == b || ta.finished || tb.finished {
		return nil
	}
	ca, cb := ta.core, tb.core
	if err := m.Migrate(a, cb, now); err != nil {
		return err
	}
	if err := m.Migrate(b, ca, now); err != nil {
		return err
	}
	m.swaps++
	return nil
}

// SwapCount returns the number of Swap operations performed so far.
func (m *Machine) SwapCount() int { return m.swaps }

// MigrationCount returns the number of individual thread migrations.
func (m *Machine) MigrationCount() int { return m.migrations }

// MigrationFailures returns how many migrations the disruptor silently
// dropped.
func (m *Machine) MigrationFailures() int { return m.migFailures }

// CrashCount returns how many threads were terminated by injected
// crashes.
func (m *Machine) CrashCount() int { return m.crashes }

// AliveCount implements sim.LiveCounter for horizon diagnostics.
func (m *Machine) AliveCount() int {
	n := 0
	for _, t := range m.threads {
		if t.alive(m.lastNow) {
			n++
		}
	}
	return n
}

// Utilization returns the memory controller utilisation measured during
// the most recent Step that had runnable threads. On a machine with
// several controller domains it is the hottest domain's utilisation.
func (m *Machine) Utilization() float64 { return m.lastUtil }

// SolveStats returns the contention solver's counters summed over every
// controller domain since the machine was built.
func (m *Machine) SolveStats() SolveStats {
	st := SolveStats{Ticks: m.ticks}
	for d := range m.doms {
		s := &m.doms[d].solver.stats
		st.Solves += s.Solves
		st.MemoHits += s.MemoHits
		st.Saturated += s.Saturated
		st.Iterations += s.Iterations
	}
	return st
}

// CoreOf returns the core a thread is currently bound to.
func (m *Machine) CoreOf(id platform.ThreadID) (platform.CoreID, error) {
	t, ok := m.lookup(id)
	if !ok {
		return 0, fmt.Errorf("machine: unknown thread %d", id)
	}
	return t.core, nil
}

// BenchOf returns the benchmark id a thread belongs to.
func (m *Machine) BenchOf(id platform.ThreadID) (int, error) {
	t, ok := m.lookup(id)
	if !ok {
		return 0, fmt.Errorf("machine: unknown thread %d", id)
	}
	return t.bench, nil
}

// Threads returns all thread ids in registration order.
func (m *Machine) Threads() []platform.ThreadID {
	out := make([]platform.ThreadID, len(m.threads))
	for i, t := range m.threads {
		out[i] = t.id
	}
	return out
}

// Alive returns the ids of unfinished threads that have arrived, in
// registration order.
func (m *Machine) Alive() []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.threads {
		if t.alive(m.lastNow) {
			out = append(out, t.id)
		}
	}
	return out
}

// Pending returns the ids of threads that have not arrived yet.
func (m *Machine) Pending() []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.threads {
		if !t.finished && t.startAt > m.lastNow {
			out = append(out, t.id)
		}
	}
	return out
}

// Finished reports whether the thread has completed, and its finish time.
func (m *Machine) Finished(id platform.ThreadID) (sim.Time, bool) {
	t, ok := m.lookup(id)
	if !ok || !t.finished {
		return 0, false
	}
	return t.finishAt, true
}

// Terminate ends a thread at time `at` with whatever work it has done.
// The open-loop traffic layer uses it for admission control: a rejected
// arrival is terminated the instant it would have entered the system, so
// it never occupies a lane. Terminating a finished thread is a no-op.
func (m *Machine) Terminate(id platform.ThreadID, at sim.Time) error {
	t, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("machine: unknown thread %d", id)
	}
	if t.finished {
		return nil
	}
	t.finished = true
	if at < t.startAt {
		at = t.startAt
	}
	t.finishAt = at
	return nil
}

// IdleUntil implements sim.Idler: when no unfinished thread has arrived
// by now, it returns the earliest future arrival time — the next instant
// at which the machine can make progress — and true. It returns false
// while any arrived thread is still running (or when the machine is
// done), so the engine only fast-forwards through genuinely empty
// intervals of an open-loop run.
func (m *Machine) IdleUntil(now sim.Time) (sim.Time, bool) {
	wake := sim.Time(-1)
	for _, t := range m.threads {
		if t.finished {
			continue
		}
		if t.startAt <= now {
			return 0, false // runnable work exists right now
		}
		if wake < 0 || t.startAt < wake {
			wake = t.startAt
		}
	}
	if wake < 0 {
		return 0, false
	}
	return wake, true
}

// Progress returns the fraction of its total work a thread has completed.
func (m *Machine) Progress(id platform.ThreadID) float64 {
	t, ok := m.lookup(id)
	if !ok {
		return 0
	}
	return t.work / t.prog.TotalWork()
}

// Done implements sim.World: true once every thread has finished.
func (m *Machine) Done() bool {
	for _, t := range m.threads {
		if !t.finished {
			return false
		}
	}
	return true
}

// alive reports whether t has arrived by now and not finished.
func (t *thread) alive(now sim.Time) bool { return !t.finished && t.startAt <= now }

// migrationFactors returns t's current cold-cache miss multiplier and
// its per-miss latency multiplier (remote NUMA accesses after a
// cross-socket migration). Both penalties decay with the same half-life
// from the same instant, so the decay term is computed once.
func (m *Machine) migrationFactors(t *thread, now sim.Time) (cold, numa float64) {
	cold, numa = 1, 1
	if t.migratedAt < 0 || (t.coldBoost <= 0 && t.numaBoost <= 0) {
		return cold, numa
	}
	age := float64(now - t.migratedAt)
	if age < 0 {
		age = 0
	}
	// Negated tests, so a NaN boost yields a NaN factor rather than 1.
	decay := math.Exp(-age * math.Ln2 / t.coldHalf)
	if !(t.coldBoost <= 0) {
		cold = 1 + t.coldBoost*decay
	}
	if !(t.numaBoost <= 0) {
		numa = 1 + t.numaBoost*decay
	}
	return cold, numa
}

// Step implements sim.World. It advances all threads by dt ms, solving
// the contention fixed point once for the tick. The loop walks the dense
// registration-ordered thread slice and the reused per-core scratch, so a
// steady-state tick performs no map operation and no allocation.
func (m *Machine) Step(now sim.Time, dt sim.Time) {
	if dt <= 0 {
		return
	}
	// Occupancy: unfinished threads per logical core, and busy lanes per
	// physical core (for the SMT penalty).
	m.lastNow = now + dt
	m.ticks++
	cores := m.topo.Cores()
	laneCount, physBusy := m.laneCount, m.physBusy
	clear(laneCount)
	clear(physBusy)
	clear(m.sockDyn)
	for _, t := range m.threads {
		if !t.alive(now) {
			continue
		}
		if !t.placed {
			panic(fmt.Sprintf("machine: thread %d stepped before placement", t.id))
		}
		if laneCount[t.core] == 0 {
			c := &cores[t.core]
			// Dynamic power: the first busy lane of a physical core clocks
			// the full pipeline; further SMT lanes add only the duplicated
			// front-end share. Scales with the cube of the DVFS multiplier
			// (V ∝ f). Threads time-sharing one lane add nothing — a lane
			// is either clocked or not.
			share := smtDynShare
			if physBusy[c.Physical] == 0 {
				share = 1
			}
			mult := m.coreMult[t.core]
			m.sockDyn[c.Socket] += m.dynPeak[c.Kind] * mult * mult * mult * share
			physBusy[c.Physical]++
		}
		laneCount[t.core]++
	}
	// Integrate energy over the step: leakage always burns; dynamic power
	// follows lane occupancy. Folding per-socket in index order keeps the
	// float stream deterministic.
	fdtSec := float64(dt) / 1000
	for s := range m.sockWatts {
		w := m.sockStatic[s] + m.sockDyn[s]
		m.sockWatts[s] = w
		m.energyJ += w * fdtSec
	}

	// Gather runnable threads, appending each one's attainable rate,
	// demand and NUMA multiplier straight into its controller domain's
	// solve inputs, in registration order.
	active := m.scratchT[:0]
	for d := range m.doms {
		dom := &m.doms[d]
		dom.rates, dom.dems, dom.lats = dom.rates[:0], dom.dems[:0], dom.lats[:0]
	}
	for _, t := range m.threads {
		if !t.alive(now) {
			continue
		}
		if t.stallUntil > now {
			t.ctr.StallTime += float64(dt)
			continue
		}
		if m.disruptor != nil {
			stalled, crashed := m.disruptor.ThreadFault(t.id, now)
			if crashed {
				// Injected crash: the thread terminates with its work
				// incomplete, freeing its core.
				t.finished = true
				t.finishAt = now + dt
				m.crashes++
				continue
			}
			if stalled {
				t.ctr.StallTime += float64(dt)
				continue
			}
		}
		core := &cores[t.core]
		rate := core.Speed
		rate *= m.coreMult[t.core] // DVFS level multiplier (exactly 1 at nominal)
		if m.disruptor != nil {
			factor := m.disruptor.CoreFactor(t.core, now)
			if factor <= 0 {
				// Core offline: the occupant cannot run until the core
				// recovers or the scheduler moves the thread elsewhere.
				t.ctr.StallTime += float64(dt)
				continue
			}
			rate *= factor
		}
		if physBusy[core.Physical] > 1 {
			rate *= m.smtPen[core.Kind]
		}
		if n := laneCount[t.core]; n > 1 {
			rate /= float64(n) // lane time-sharing
		}
		dem := t.prog.DemandAt(t.work, now)
		cf, nf := m.migrationFactors(t, now)
		if cf > 1 {
			dem.MissRatio = math.Min(dem.MissRatio*cf, 1)
		}
		dom := &m.doms[m.coreDomain[t.core]]
		t.slot = len(dom.rates)
		dom.rates = append(dom.rates, rate)
		dom.dems = append(dom.dems, dem)
		dom.lats = append(dom.lats, nf)
		active = append(active, t)
	}
	m.scratchT = active

	if len(active) == 0 {
		return
	}
	// Solve each controller domain against its own controller. The
	// reported utilisation is the hottest non-empty domain's (with one
	// domain, simply its own).
	m.lastUtil = 0
	for d := range m.doms {
		dom := &m.doms[d]
		n := len(dom.rates)
		if n == 0 {
			continue
		}
		if cap(dom.prog) < n {
			dom.prog = make([]float64, n)
		}
		dom.prog = dom.prog[:n]
		offered := dom.solver.solve(dom.rates, dom.dems, dom.lats, dom.prog)
		if u := dom.ctrl.Utilization(offered); len(m.doms) == 1 || u > m.lastUtil {
			m.lastUtil = u
		}
	}

	// Advance work in registration order, respecting per-thread remaining
	// work and barrier limits. A barrier limit reads the members' work as
	// it stands when the thread is reached: members registered earlier
	// have already advanced this tick, later ones have not.
	fdt := float64(dt)
	for _, t := range active {
		dom := &m.doms[m.coreDomain[t.core]]
		dem := dom.dems[t.slot]
		dw := dom.prog[t.slot] * fdt
		limit := t.prog.TotalWork() - t.work
		if t.barrier != nil {
			if bl := t.barrier.limit(t, now) - t.work; bl < limit {
				limit = bl
			}
		}
		if limit < 0 {
			limit = 0
		}
		used := fdt
		if dw > limit {
			// Thread hits its work or barrier limit mid-tick; charge
			// counters only for the productive fraction.
			if dw > 0 {
				used = fdt * limit / dw
			}
			dw = limit
		}
		t.work += dw
		tc := t.ctr
		tc.Work += dw
		tc.Instructions += dw * 1000
		tc.Accesses += dw * dem.AccessesPerWork
		misses := dw * dem.MissesPerWork()
		tc.Misses += misses
		cc := m.file.MutCore(int(t.core))
		cc.ServedMisses += misses
		cc.BusyTime += used
		if t.work >= t.prog.TotalWork()-1e-9 {
			t.finished = true
			// Interpolate the finish instant inside the tick.
			t.finishAt = now + sim.Time(math.Ceil(used))
			if t.finishAt < now+1 {
				t.finishAt = now + 1
			}
			if t.finishAt > now+dt {
				t.finishAt = now + dt
			}
		}
	}
}

// SetDVFS sets a core's DVFS level: an index into its type's multiplier
// table (level 0 is nominal). Core types that declare no DVFS table only
// accept level 0.
func (m *Machine) SetDVFS(core platform.CoreID, level int) error {
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return fmt.Errorf("machine: core %d out of range", core)
	}
	k := m.topo.Core(core).Kind
	if level == 0 {
		m.dvfsLevel[core] = 0
		m.coreMult[core] = m.nominalMult(k)
		return nil
	}
	tab := m.dvfsTab[k]
	if level < 0 || level >= len(tab) {
		return fmt.Errorf("machine: core %d (type %s) has no DVFS level %d (levels: %d)",
			core, m.topo.KindName(k), level, max(len(tab), 1))
	}
	m.dvfsLevel[core] = level
	m.coreMult[core] = tab[level]
	return nil
}

// smtDynShare is the fraction of a physical core's dynamic power each
// busy SMT lane beyond the first adds: siblings share the execution
// back-end, so a second lane duplicates only front-end switching.
const smtDynShare = 0.35

// PowerSample implements platform.PowerControl: a RAPL-style reading of
// cumulative energy plus the per-socket watts of the last step.
func (m *Machine) PowerSample() platform.PowerSample {
	w := make([]float64, len(m.sockWatts))
	copy(w, m.sockWatts)
	return platform.PowerSample{Energy: m.energyJ, Watts: w}
}

// EnergyJoules returns the cumulative energy consumed since the start of
// the run, in joules.
func (m *Machine) EnergyJoules() float64 { return m.energyJ }

// PowerWatts returns the machine-wide power draw of the last step.
func (m *Machine) PowerWatts() float64 {
	t := 0.0
	for _, w := range m.sockWatts {
		t += w
	}
	return t
}

// DVFSOf returns a core's current DVFS level (0 = nominal).
func (m *Machine) DVFSOf(core platform.CoreID) int {
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return 0
	}
	return m.dvfsLevel[core]
}

// DVFSLevels returns how many DVFS levels a core's type declares (at
// least 1: the nominal level).
func (m *Machine) DVFSLevels(core platform.CoreID) int {
	if int(core) < 0 || int(core) >= m.topo.NumCores() {
		return 1
	}
	if tab := m.dvfsTab[m.topo.Core(core).Kind]; len(tab) > 0 {
		return len(tab)
	}
	return 1
}

// KindDVFSLevels returns the per-kind DVFS level counts (index =
// CoreKind, at least 1 each). Governors bind to this table so their
// throttle grids match the machine's actual frequency ladders.
func (m *Machine) KindDVFSLevels() []int {
	out := make([]int, len(m.dvfsTab))
	for k, tab := range m.dvfsTab {
		out[k] = 1
		if len(tab) > 0 {
			out[k] = len(tab)
		}
	}
	return out
}

// NumMemDomains returns the number of independent memory controller
// domains (1 for the legacy machine or any spec with SharedMem).
func (m *Machine) NumMemDomains() int { return len(m.doms) }

// PlacementSnapshot returns the current thread→core map, sorted by thread
// id. Used by traces and tests.
func (m *Machine) PlacementSnapshot() map[platform.ThreadID]platform.CoreID {
	out := make(map[platform.ThreadID]platform.CoreID, len(m.threads))
	for _, t := range m.threads {
		out[t.id] = t.core
	}
	return out
}

// ThreadsOn returns the unfinished threads currently bound to core c, in
// ascending thread-id order.
func (m *Machine) ThreadsOn(c platform.CoreID) []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.threads {
		if t.alive(m.lastNow) && t.core == c {
			out = append(out, t.id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
