package machine

import (
	"math"
	"testing"
)

// referenceSolve is the contention solver's cold path as it stood before
// the saturated shortcut: the plain damped fixed point from the
// uncontended latency, at most 24 iterations. It is the oracle the
// solver must match bit for bit.
func referenceSolve(ctrl *MemController, overlap, hitLat float64, rates []float64, dem []Demand, latMult []float64, out []float64) float64 {
	mpws := make([]float64, len(dem))
	hitW := make([]float64, len(dem))
	for i := range dem {
		mpws[i] = dem[i].MissesPerWork()
		hitW[i] = dem[i].AccessesPerWork * hitLat
	}
	// Start from the uncontended latency.
	latency := ctrl.Latency(0)
	offered := 0.0
	const iters = 24
	const tol = 1e-9
	for it := 0; it < iters; it++ {
		offered = 0
		for i, r := range rates {
			if r <= 0 {
				out[i] = 0
				continue
			}
			mpw := mpws[i]
			stallPerWork := mpw*latency*latMult[i]*(1-overlap) + hitW[i]
			p := r / (1 + r*stallPerWork)
			out[i] = p
			offered += mpw * p
		}
		next := ctrl.Latency(offered)
		if diff := next - latency; diff < tol && diff > -tol {
			latency = next
			break
		}
		// Damped update for stability near saturation.
		latency = 0.5*latency + 0.5*next
	}
	return offered
}

// solveInput is one call's worth of solver inputs.
type solveInput struct {
	rates []float64
	dem   []Demand
	lats  []float64
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN. Go does not specify NaN payloads: which NaN an operation on two
// NaNs returns depends on the operand order the compiler picks, which
// differs between builds (a fuzzing build, for one).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstReference solves in on s and fails unless the offered rate
// and every progress rate equal referenceSolve's bit for bit.
func checkAgainstReference(t *testing.T, s *contentionSolver, in solveInput) {
	t.Helper()
	out := make([]float64, len(in.rates))
	got := s.solve(in.rates, in.dem, in.lats, out)
	ref := make([]float64, len(in.rates))
	want := referenceSolve(s.ctrl, s.overlap, s.hitLat, in.rates, in.dem, in.lats, ref)
	if !sameFloat(got, want) {
		t.Fatalf("offered = %v (%x), reference %v (%x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for i := range out {
		if !sameFloat(out[i], ref[i]) {
			t.Fatalf("thread %d: progress = %v (%x), reference %v (%x)", i, out[i], math.Float64bits(out[i]), ref[i], math.Float64bits(ref[i]))
		}
	}
}

// offeredAt is one fixed-point pass of the reference at a fixed latency.
func offeredAt(s *contentionSolver, in solveInput, latency float64) float64 {
	offered := 0.0
	for i, r := range in.rates {
		if r <= 0 {
			continue
		}
		mpw := in.dem[i].MissesPerWork()
		stall := mpw*latency*in.lats[i]*(1-s.overlap) + in.dem[i].AccessesPerWork*s.hitLat
		offered += mpw * (r / (1 + r*stall))
	}
	return offered
}

// heavyInput is three memory-bound threads: enough traffic to clamp a
// small controller on every iteration.
func heavyInput() solveInput {
	return solveInput{
		rates: []float64{2.33, 1.21, 2.33},
		dem:   []Demand{{AccessesPerWork: 8, MissRatio: 0.5}, {AccessesPerWork: 6, MissRatio: 0.4}, {AccessesPerWork: 1, MissRatio: 0.1}},
		lats:  []float64{1, 1.7, 1},
	}
}

// withThread returns heavyInput with its first thread replaced.
func withThread(rate float64, dem Demand, lat float64) solveInput {
	in := heavyInput()
	in.rates[0], in.dem[0], in.lats[0] = rate, dem, lat
	return in
}

// TestSolveMatchesReference compares the solver with the plain fixed
// point on the regimes the saturated shortcut has to get right, and
// checks through SolveStats which path each case took.
func TestSolveMatchesReference(t *testing.T) {
	base := MemController{BaseLatency: 0.008, MaxUtil: 0.96}
	withCap := func(c float64) MemController { mc := base; mc.Capacity = c; return mc }
	probeCtrl := withCap(1)
	probe := contentionSolver{ctrl: &probeCtrl, overlap: 0.3, hitLat: 0.0005}
	heavy := heavyInput()
	// The offered rates of the first pass and of the last pass a solve
	// clamped throughout makes.
	o0 := offeredAt(&probe, heavy, probeCtrl.Latency(0))
	oK := offeredAt(&probe, heavy, saturatedLatency(probeCtrl.Latency(0), probeCtrl.Latency(math.Inf(1))))
	if !(o0 > oK) {
		t.Fatalf("offered does not fall with latency: %v then %v", o0, oK)
	}
	// A capacity at which the last pass sits at exactly rho == MaxUtil,
	// and the next one up, where it falls just below.
	exact := oK / base.MaxUtil
	for i := 0; i < 64 && oK/exact != base.MaxUtil; i++ {
		exact = math.Nextafter(exact, math.Inf(1))
	}
	if oK/exact != base.MaxUtil {
		t.Fatalf("no capacity puts the last pass at rho == MaxUtil")
	}
	below := math.Nextafter(exact, math.Inf(1))
	for oK/below >= base.MaxUtil {
		below = math.Nextafter(below, math.Inf(1))
	}

	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		ctrl MemController
		in   solveInput
		// wantSaturated is whether the shortcut must finish the solve;
		// wantIters, when positive, is the exact number of passes.
		wantSaturated bool
		wantIters     int64
	}{
		{name: "clamped throughout", ctrl: withCap(1), in: heavy, wantSaturated: true, wantIters: 2},
		{name: "clamped then unclamped", ctrl: withCap((o0 + oK) / 2 / base.MaxUtil), in: heavy},
		{name: "rho == MaxUtil at the last pass", ctrl: withCap(exact), in: heavy, wantSaturated: true, wantIters: 2},
		{name: "rho just below MaxUtil at the last pass", ctrl: withCap(below), in: heavy},
		{name: "tol break inside the clamped prefix", ctrl: MemController{Capacity: 1, BaseLatency: 0.008, MaxUtil: 0.01}, in: heavy, wantSaturated: true, wantIters: 2},
		{name: "zero capacity", ctrl: withCap(0), in: heavy, wantIters: 1},
		{name: "zero and negative rates", ctrl: withCap(1), in: solveInput{rates: []float64{0, -1, 2.33}, dem: heavy.dem, lats: heavy.lats}},
		{name: "zero rate clamped", ctrl: withCap(1), in: withThread(0, Demand{AccessesPerWork: 8, MissRatio: 0.5}, 1), wantSaturated: true, wantIters: 2},
		{name: "no threads", ctrl: withCap(1), in: solveInput{}, wantIters: 1},
		{name: "NaN rate", ctrl: withCap(1), in: withThread(nan, Demand{AccessesPerWork: 8, MissRatio: 0.5}, 1)},
		{name: "+Inf rate", ctrl: withCap(1), in: withThread(inf, Demand{AccessesPerWork: 8, MissRatio: 0.5}, 1)},
		{name: "NaN demand", ctrl: withCap(1), in: withThread(2.33, Demand{AccessesPerWork: nan, MissRatio: 0.5}, 1)},
		{name: "+Inf demand", ctrl: withCap(1), in: withThread(2.33, Demand{AccessesPerWork: 8, MissRatio: inf}, 1)},
		{name: "negative demand", ctrl: withCap(1), in: withThread(2.33, Demand{AccessesPerWork: -0.1, MissRatio: 0.5}, 1)},
		{name: "NaN latMult", ctrl: withCap(1), in: withThread(2.33, Demand{AccessesPerWork: 8, MissRatio: 0.5}, nan)},
		{name: "+Inf latMult", ctrl: withCap(1), in: withThread(2.33, Demand{AccessesPerWork: 8, MissRatio: 0.5}, inf)},
		{name: "negative latMult", ctrl: withCap(1), in: withThread(2.33, Demand{AccessesPerWork: 8, MissRatio: 0.5}, -1)},
		{name: "uncontended", ctrl: withCap(80), in: heavy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := tc.ctrl
			s := &contentionSolver{ctrl: &ctrl, overlap: 0.3, hitLat: 0.0005}
			checkAgainstReference(t, s, tc.in)
			st := s.stats
			if got := st.Saturated == 1; got != tc.wantSaturated {
				t.Errorf("saturated shortcut taken = %v, want %v (stats %+v)", got, tc.wantSaturated, st)
			}
			if tc.wantIters > 0 && st.Iterations != tc.wantIters {
				t.Errorf("passes = %d, want %d", st.Iterations, tc.wantIters)
			}
			if !tc.wantSaturated && tc.wantIters == 0 && st.Iterations < 3 {
				t.Errorf("passes = %d: the case does not exercise the iteration", st.Iterations)
			}
		})
	}

	t.Run("warm memo across calls", func(t *testing.T) {
		ctrl := withCap(1)
		s := &contentionSolver{ctrl: &ctrl, overlap: 0.3, hitLat: 0.0005}
		other := withThread(1.21, Demand{AccessesPerWork: 2, MissRatio: 0.2}, 1)
		for _, in := range []solveInput{heavy, heavy, other, heavy, heavy} {
			checkAgainstReference(t, s, in)
		}
		if st := s.stats; st.Solves != 5 || st.MemoHits != 2 || st.Saturated != 3 {
			t.Errorf("stats = %+v, want 5 solves, 2 memo hits, 3 saturated", st)
		}
	})
}

// fuzzValue maps one byte to a solver input: most bytes give a value in
// [0, 15.6875] in steps of 1/16, the top five the special values the
// shortcut's guard must turn away.
func fuzzValue(b byte) float64 {
	switch b {
	case 251:
		return -0.5
	case 252:
		return math.NaN()
	case 253:
		return math.Inf(1)
	case 254:
		return math.Inf(-1)
	case 255:
		return 1e300
	}
	return float64(b) / 16
}

// fuzzMaxUtil are the controller clamps the fuzz target picks from: the
// paper's, a low one (tolerance breaks inside the clamped prefix), one
// close to 1 and a degenerate one.
var fuzzMaxUtil = []float64{0.96, 0.01, 0.999, 0}

// decodeSolveInput turns fuzz bytes into a controller clamp and one
// solve's inputs: the first byte picks MaxUtil, then four bytes per
// thread give its rate, accesses per work, miss ratio and latency
// multiplier.
func decodeSolveInput(data []byte) (float64, solveInput) {
	if len(data) == 0 {
		return fuzzMaxUtil[0], solveInput{}
	}
	maxUtil := fuzzMaxUtil[int(data[0])%len(fuzzMaxUtil)]
	var in solveInput
	for b := data[1:]; len(b) >= 4 && len(in.rates) < 64; b = b[4:] {
		in.rates = append(in.rates, fuzzValue(b[0]))
		in.dem = append(in.dem, Demand{AccessesPerWork: fuzzValue(b[1]), MissRatio: fuzzValue(b[2]) / 16})
		in.lats = append(in.lats, fuzzValue(b[3])/4)
	}
	return maxUtil, in
}

// FuzzSolveMatchesReference drives one solver through an input, the same
// input again (a memo hit) and a perturbed copy, and checks each result
// against the reference bit for bit. The seed corpus lives in
// testdata/fuzz/FuzzSolveMatchesReference.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity float64, data []byte) {
		maxUtil, in := decodeSolveInput(data)
		ctrl := MemController{Capacity: capacity, BaseLatency: 0.008, MaxUtil: maxUtil}
		s := &contentionSolver{ctrl: &ctrl, overlap: 0.3, hitLat: 0.0005}
		checkAgainstReference(t, s, in)
		checkAgainstReference(t, s, in)
		if len(in.rates) > 0 {
			in.rates = append([]float64(nil), in.rates...)
			in.rates[0] *= 0.5
			checkAgainstReference(t, s, in)
		}
	})
}
