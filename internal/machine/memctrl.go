package machine

import "math"

// MemController models the single shared memory controller of the paper's
// platform (Table I: one memory controller, 32 GB RAM). It is an analytic
// queueing model: when the aggregate offered miss rate approaches the
// controller's service capacity, per-miss latency inflates as
//
//	L = L0 / (1 - rho),  rho = min(offered/capacity, rhoMax)
//
// which is the standard open-queue approximation. The inflation is what
// produces the paper's motivating observation (Fig 1): memory-intensive
// threads suffer multi-x slowdowns under co-location while
// compute-intensive threads barely degrade, because the latency term is
// weighted by each thread's own miss intensity.
type MemController struct {
	// Capacity is the service capacity in misses per ms.
	Capacity float64
	// BaseLatency is the uncontended effective stall per miss, in ms. It
	// is an *effective* latency: real DRAM latency scaled down by the
	// memory-level parallelism a core can sustain.
	BaseLatency float64
	// MaxUtil caps rho so latency stays finite (e.g. 0.97).
	MaxUtil float64
}

// Latency returns the per-miss stall given an aggregate offered miss rate.
// A controller with no capacity is saturated, not uncontended: it reports
// the latency at the utilisation cap. (Specs are validated up front, so
// this only guards hand-constructed controllers.)
func (mc *MemController) Latency(offered float64) float64 {
	if mc.Capacity <= 0 {
		return mc.BaseLatency / (1 - mc.MaxUtil)
	}
	rho := offered / mc.Capacity
	if rho > mc.MaxUtil {
		rho = mc.MaxUtil
	}
	if rho < 0 {
		rho = 0
	}
	return mc.BaseLatency / (1 - rho)
}

// Utilization returns min(offered/capacity, MaxUtil), the rho used by
// Latency. Exposed for traces and tests.
func (mc *MemController) Utilization(offered float64) float64 {
	if mc.Capacity <= 0 {
		return mc.MaxUtil
	}
	rho := offered / mc.Capacity
	if rho > mc.MaxUtil {
		rho = mc.MaxUtil
	}
	if rho < 0 {
		rho = 0
	}
	return rho
}

// contentionSolver carries the per-tick fixed-point computation between
// controller latency and per-thread progress. Progress of thread i obeys
//
//	p_i = r_i / (1 + r_i * (mpw_i * L * (1-overlap) + apw_i * hitLat))
//
// where r_i is the thread's attainable compute rate on its core, mpw_i
// its misses per work unit, apw_i its accesses per work unit; and the
// aggregate offered rate feeding L is sum_i mpw_i * p_i. Higher L lowers
// p_i which lowers the offered rate, so the map is monotone contracting
// and plain iteration converges geometrically; a handful of rounds gets
// within float tolerance.
type contentionSolver struct {
	ctrl    *MemController
	overlap float64 // fraction of miss latency hidden by MLP/prefetch
	hitLat  float64 // ms per LLC hit

	// Warm-start memo: the previous call's exact inputs and outputs.
	// Demands are phase-piecewise-constant and attainable rates change
	// only on placement, DVFS or cold-decay events, so consecutive ticks
	// within a steady phase present bit-identical inputs; serving the
	// memoized solution skips the whole fixed-point iteration without
	// perturbing a single float (the cached outputs came from the
	// identical cold computation). Any difference — including NaN, which
	// never compares equal — falls through to the cold path.
	memoRates   []float64
	memoDem     []Demand
	memoLat     []float64
	memoOut     []float64
	memoOffered float64
	memoOK      bool

	// Per-call scratch: each thread's misses per work unit and hit stall
	// per work unit (apw*hitLat), which do not depend on the latency
	// being iterated and so are computed once per cold solve.
	mpw  []float64
	hitW []float64

	stats SolveStats // every field but Ticks, which the machine counts
}

// SolveStats counts the contention solver's work. Every field is fixed
// by the machine spec, the thread population and the tick sequence (for
// a run: by its spec and seed), so the counts can be gated tightly; they
// are observations and never feed a digest.
type SolveStats struct {
	// Ticks is the number of Step calls that advanced time.
	Ticks int64
	// Solves is the number of per-domain solves: one per tick for each
	// controller domain with at least one runnable thread.
	Solves int64
	// MemoHits is how many solves were served from the warm-start memo.
	MemoHits int64
	// Saturated is how many cold solves the saturated shortcut finished.
	Saturated int64
	// Iterations is the number of fixed-point passes over a domain's
	// threads, over all cold solves.
	Iterations int64
}

// The fixed point's iteration cap and convergence tolerance.
const (
	solveIters = 24
	solveTol   = 1e-9
)

// solve computes per-thread progress rates. rates[i] is the attainable
// compute rate of active thread i; dem[i] its current demand (with any
// cold-cache inflation already applied); latMult[i] multiplies the
// per-miss stall for that thread (NUMA-remote accesses after a
// cross-socket migration). The result is written into out (len must
// match) and the converged aggregate offered miss rate is returned.
//
// A cold solve iterates a damped fixed point from the uncontended
// latency. When the controller is clamped at MaxUtil on every iteration,
// the latency sequence does not depend on the threads at all, and the
// saturated shortcut replaces the iterations with one pass at the
// latency the last of them would have used (see saturatedLatency).
func (s *contentionSolver) solve(rates []float64, dem []Demand, latMult []float64, out []float64) float64 {
	if len(rates) != len(dem) || len(rates) != len(out) || len(rates) != len(latMult) {
		panic("machine: contention solver length mismatch")
	}
	s.stats.Solves++
	if s.memoHit(rates, dem, latMult) {
		s.stats.MemoHits++
		copy(out, s.memoOut)
		return s.memoOffered
	}
	s.mpw, s.hitW = s.mpw[:0], s.hitW[:0]
	for i := range dem {
		s.mpw = append(s.mpw, dem[i].MissesPerWork())
		s.hitW = append(s.hitW, dem[i].AccessesPerWork*s.hitLat)
	}
	// Start from the uncontended latency.
	latency := s.ctrl.Latency(0)
	lmax := s.ctrl.Latency(math.Inf(1))
	offered := 0.0
	for it := 0; it < solveIters; it++ {
		offered = s.pass(rates, latMult, latency, out)
		next := s.ctrl.Latency(offered)
		if diff := next - latency; diff < solveTol && diff > -solveTol {
			break
		}
		if it == 0 && math.Float64bits(next) == math.Float64bits(lmax) && s.monotone(rates, latMult, lmax) {
			lastLat := saturatedLatency(latency, lmax)
			o := s.pass(rates, latMult, lastLat, out)
			if math.Float64bits(s.ctrl.Latency(o)) == math.Float64bits(lmax) {
				s.stats.Saturated++
				offered = o
				break
			}
			// Not clamped at the last latency: the shortcut does not
			// apply. The next pass overwrites out, so resume the loop.
		}
		// Damped update for stability near saturation.
		latency = 0.5*latency + 0.5*next
	}
	s.memoize(rates, dem, latMult, out, offered)
	return offered
}

// pass evaluates every thread's progress at one per-miss latency,
// writing it into out, and returns the aggregate offered miss rate.
func (s *contentionSolver) pass(rates, latMult []float64, latency float64, out []float64) float64 {
	s.stats.Iterations++
	mpws, hitW := s.mpw, s.hitW
	offered := 0.0
	for i, r := range rates {
		if r <= 0 {
			out[i] = 0
			continue
		}
		mpw := mpws[i]
		stallPerWork := mpw*latency*latMult[i]*(1-s.overlap) + hitW[i]
		p := r / (1 + r*stallPerWork)
		out[i] = p
		offered += mpw * p
	}
	return offered
}

// saturatedLatency returns the latency of the last fixed-point iteration
// when the controller is clamped on every iteration: then each update
// is λ ← ½λ + ½lmax, independent of the threads, so replaying that
// scalar sequence — with the loop's tolerance break and iteration cap —
// yields the latency of the pass whose outputs the loop would return.
func saturatedLatency(l0, lmax float64) float64 {
	lat := l0
	for it := 0; it < solveIters-1; it++ {
		if diff := lmax - lat; diff < solveTol && diff > -solveTol {
			break
		}
		lat = 0.5*lat + 0.5*lmax
	}
	return lat
}

// monotone reports whether the saturated shortcut is exact for this
// solve. IEEE rounding is monotone, so a pass's offered rate is
// non-increasing in the latency, bit for bit, as long as every rate,
// misses-per-work, hit stall and latency multiplier is finite and
// non-negative; and the controller's latency is non-decreasing in the
// offered rate and bounded by its clamp lmax when MaxUtil < 1 and the
// base latency and capacity are sane. The clamped sequence rises from
// Latency(0) toward lmax, so its last latency is its largest: if the
// pass there is still clamped, every earlier pass was too. Inputs that
// fail the check (NaN, ±Inf, negative) take the ordinary loop.
func (s *contentionSolver) monotone(rates, latMult []float64, lmax float64) bool {
	c := s.ctrl
	if !(c.MaxUtil < 1) || !finiteNonNeg(c.BaseLatency) || !finiteNonNeg(lmax) ||
		math.IsNaN(c.Capacity) || math.IsInf(c.Capacity, 1) || !finiteNonNeg(1-s.overlap) {
		return false
	}
	for i, r := range rates {
		if !finiteNonNeg(r) || !finiteNonNeg(s.mpw[i]) || !finiteNonNeg(s.hitW[i]) || !finiteNonNeg(latMult[i]) {
			return false
		}
	}
	return true
}

// finiteNonNeg reports 0 <= x < +Inf (false for NaN).
func finiteNonNeg(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// memoHit reports whether the inputs are bit-identical to the previous
// call's. NaN inputs never hit (NaN != NaN), which is the conservative
// direction.
func (s *contentionSolver) memoHit(rates []float64, dem []Demand, latMult []float64) bool {
	if !s.memoOK || len(rates) != len(s.memoRates) {
		return false
	}
	for i := range rates {
		if rates[i] != s.memoRates[i] || dem[i] != s.memoDem[i] || latMult[i] != s.memoLat[i] {
			return false
		}
	}
	return true
}

// memoize records the call just solved, reusing the memo slices so the
// steady state allocates nothing.
func (s *contentionSolver) memoize(rates []float64, dem []Demand, latMult []float64, out []float64, offered float64) {
	s.memoRates = append(s.memoRates[:0], rates...)
	s.memoDem = append(s.memoDem[:0], dem...)
	s.memoLat = append(s.memoLat[:0], latMult...)
	s.memoOut = append(s.memoOut[:0], out...)
	s.memoOffered = offered
	s.memoOK = true
}
