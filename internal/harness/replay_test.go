package harness

import (
	"context"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"dike/internal/fault"
	"dike/internal/replay"
	"dike/internal/workload"
)

// recordRun executes spec with recording enabled and returns the run
// output plus the log bytes.
func recordRun(t *testing.T, spec RunSpec) (*RunOutput, []byte) {
	t.Helper()
	var buf bytes.Buffer
	spec.Record = &buf
	out, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// TestRecordReplayDike is the tentpole round trip: a Fig-6-style Dike
// run is recorded, replayed twice, and all three decision digests —
// including every per-quantum fairness value, compared bit-for-bit —
// must be identical.
func TestRecordReplayDike(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDike, Seed: 42, Scale: 0.05}
	out, log := recordRun(t, spec)
	if len(out.History) == 0 {
		t.Fatal("live run recorded no quanta")
	}
	live := Digest(spec.Policy, out.History)

	rep1, err := Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	d1 := Digest(rep1.Policy, rep1.History)
	d2 := Digest(rep2.Policy, rep2.History)
	if live != d1 {
		t.Fatalf("replay digest differs from live run:\nlive:\n%s\nreplay:\n%s", live, d1)
	}
	if d1 != d2 {
		t.Fatal("two replays of the same log differ")
	}

	// The full prediction bookkeeping reproduces bit-identically too.
	if rep1.PredMin != out.PredMin || rep1.PredAvg != out.PredAvg || rep1.PredMax != out.PredMax {
		t.Errorf("prediction stats differ: live (%v %v %v), replay (%v %v %v)",
			out.PredMin, out.PredAvg, out.PredMax, rep1.PredMin, rep1.PredAvg, rep1.PredMax)
	}
	if len(rep1.ErrSeries) != len(out.ErrSeries) {
		t.Fatalf("error series length %d != %d", len(rep1.ErrSeries), len(out.ErrSeries))
	}
	for i := range out.ErrSeries {
		if rep1.ErrSeries[i] != out.ErrSeries[i] {
			t.Fatalf("error series diverges at %d: %+v != %+v", i, rep1.ErrSeries[i], out.ErrSeries[i])
		}
	}
	if rep1.Policy != PolicyDike || rep1.Seed != 42 {
		t.Errorf("replay identity = %s/%d", rep1.Policy, rep1.Seed)
	}
	if rep1.Quanta == 0 || rep1.CompletedAt <= 0 {
		t.Error("replay progress bookkeeping empty")
	}
}

// TestRecordReplayAdaptiveUnderFaults exercises the hard cases at once:
// an adaptive policy (parameters retune mid-run) under fault injection
// (corrupted counter readings — NaN and Inf land in the log, silently
// failed swaps land in the decision stream).
func TestRecordReplayAdaptiveUnderFaults(t *testing.T) {
	fc := fault.DefaultConfig()
	fc.Seed = 3
	spec := RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDikeAF, Seed: 7, Scale: 0.05, Faults: &fc}
	out, log := recordRun(t, spec)

	rep, err := Replay(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Digest(rep.Policy, rep.History), Digest(spec.Policy, out.History); got != want {
		t.Fatalf("faulty-run replay digest differs:\nlive:\n%s\nreplay:\n%s", want, got)
	}
	if rep.FailedSwaps != out.FailedSwaps || rep.WatchdogTrips != out.WatchdogTrips {
		t.Errorf("degradation bookkeeping differs: live (%d, %d), replay (%d, %d)",
			out.FailedSwaps, out.WatchdogTrips, rep.FailedSwaps, rep.WatchdogTrips)
	}
	if rep.Sanitized != out.Sanitized {
		t.Errorf("sanitize stats differ: live %+v, replay %+v", out.Sanitized, rep.Sanitized)
	}
	if math.IsNaN(rep.PredAvg) {
		t.Error("replayed prediction average is NaN")
	}
}

// TestRecordReplayNonSamplingPolicies covers policies that never read
// counters: their replays are driven purely by recorded quantum events.
func TestRecordReplayNonSamplingPolicies(t *testing.T) {
	for _, policy := range []string{PolicyCFS, PolicyRotate, PolicyOracle, PolicyDIO} {
		t.Run(policy, func(t *testing.T) {
			spec := RunSpec{Workload: workload.MustTable2(1), Policy: policy, Seed: 42, Scale: 0.05}
			_, log := recordRun(t, spec)
			rep, err := Replay(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Policy != policy || rep.Quanta == 0 {
				t.Errorf("replay = %s with %d quanta", rep.Policy, rep.Quanta)
			}
			if rep.History != nil {
				t.Error("non-Dike replay carries Dike bookkeeping")
			}
		})
	}
}

// TestReplayDetectsTamperedLog corrupts one recorded counter reading;
// the replayed policy then decides differently and the player must
// report divergence rather than quietly producing different numbers.
func TestReplayDetectsTamperedLog(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDike, Seed: 42, Scale: 0.05}
	_, log := recordRun(t, spec)

	// Saturate every miss delta in one sample mid-run: fairness and the
	// selector's pairing flip, so the decision stream cannot match.
	lines := strings.Split(string(log), "\n")
	tampered := false
	sampleSeen := 0
	for i, ln := range lines {
		if !strings.Contains(ln, `"k":"s"`) {
			continue
		}
		sampleSeen++
		if sampleSeen < 5 {
			continue // leave the baseline and early quanta intact
		}
		lines[i], tampered = saturateMisses(t, ln)
		break
	}
	if !tampered {
		t.Fatal("could not find a sample event to tamper with")
	}
	_, err := Replay(strings.NewReader(strings.Join(lines, "\n")))
	if !errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("tampered log replayed with err = %v, want divergence", err)
	}
}

// saturateMisses prefixes a 9 to the misses element (index 4 of the
// positional [id, w, in, ac, mi, ...] tuple) of every thread delta in a
// recorded sample event, reporting whether any delta was changed.
func saturateMisses(t *testing.T, line string) (string, bool) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	dec.UseNumber()
	var ev map[string]any
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	s, _ := ev["s"].(map[string]any)
	deltas, _ := s["th"].([]any)
	for _, d := range deltas {
		tuple := d.([]any)
		tuple[4] = json.Number("9" + string(tuple[4].(json.Number)))
	}
	out, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), len(deltas) > 0
}

// TestDigestDeterministic pins the digest format: shortest round-trip
// floats, one line per quantum.
func TestDigestDeterministic(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	da, db := Digest(PolicyDike, a.History), Digest(PolicyDike, b.History)
	if da != db {
		t.Fatal("identical runs digest differently")
	}
	if !strings.HasPrefix(da, "policy dike\nquanta ") {
		t.Errorf("digest header: %q", da[:40])
	}
	if strings.Count(da, "\nq t=") != len(a.History) {
		t.Error("digest line count != history length")
	}
}
