package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"dike/internal/harness"
)

// simWorkload is a workload of whole simulations run serially through
// harness.Run. One iteration runs every spec once; for recording
// workloads each run is also recorded and verified by harness.Replay.
type simWorkload struct {
	specs   func(seed uint64) ([]harness.RunSpec, error)
	record  bool
	tailPct float64 // the percentile op_tail_ms reports
}

// simIter is one iteration's measurements and outcomes.
type simIter struct {
	cost   delta
	simMs  int64
	opsMs  []float64 // each run's wall ms per simulated second
	outs   []*harness.RunOutput
	logs   [][]byte
	verify time.Duration // time inside harness.Replay
	rssMB  float64       // peak resident memory during the iteration
}

// opSimMs is the simulated length op latencies are normalised to.
const opSimMs = 1000

// runCounts are a run's exact, seed-determined counts; every repeat of
// the run must reproduce them.
type runCounts struct {
	SimMs, Quanta, ShadowQuanta, LogBytes int64
}

func countsOf(out *harness.RunOutput, log []byte) runCounts {
	c := runCounts{SimMs: int64(out.CompletedAt), Quanta: int64(out.Decisions), LogBytes: int64(len(log))}
	if out.MetaStats != nil {
		c.ShadowQuanta = int64(out.MetaStats.ShadowQuanta)
	}
	return c
}

// iterate runs every spec once through harness.Run. Runs that fail are
// counted in t and left out of outs.
func (w *simWorkload) iterate(ctx context.Context, specs []harness.RunSpec, t *tally) (*simIter, []int, error) {
	// Return freed memory to the OS first, so the iteration's peak
	// does not depend on how much an earlier one left resident.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	it := &simIter{}
	var idx []int
	u := snapshot()
	for i, spec := range specs {
		start := time.Now()
		var buf bytes.Buffer
		if w.record {
			spec.Record = &buf
		}
		out, err := harness.Run(ctx, spec)
		if err != nil {
			t.fail("%s run %d: %v", spec.Policy, i, err)
			continue
		}
		if w.record {
			vstart := time.Now()
			rp, err := harness.Replay(bytes.NewReader(buf.Bytes()))
			it.verify += time.Since(vstart)
			if err != nil {
				t.fail("replay of run %d: %v", i, err)
				continue
			}
			live := harness.RunDigest(out.Spec.Policy, out.History, out.MetaStats, out.Power)
			if got := harness.RunDigest(rp.Policy, rp.History, rp.MetaStats, rp.Power); got != live || rp.Quanta != out.Decisions {
				t.fail("replay of run %d diverged from the live run (%d vs %d quanta)", i, rp.Quanta, out.Decisions)
				continue
			}
			it.logs = append(it.logs, buf.Bytes())
		}
		// Runs differ in simulated length, so an operation's latency is
		// its wall time per simulated second.
		it.opsMs = append(it.opsMs, msOf(time.Since(start))*opSimMs/float64(out.CompletedAt))
		it.simMs += int64(out.CompletedAt)
		it.outs = append(it.outs, out)
		idx = append(idx, i)
	}
	it.cost = u.since()
	var err error
	it.rssMB, err = peakRSSMB()
	return it, idx, err
}

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// reference is the first complete iteration's outcome per spec, which
// every later repeat, traced or not, must reproduce exactly.
type reference struct {
	prints   []string
	counts   []runCounts
	logs     [][]byte
	fairness []float64
}

// check compares an iteration's runs with the reference (filling it on
// first use) and with the pinned expectation, counting one operation
// per run.
func (ref *reference) check(it *simIter, idx []int, n int, pinned []pinnedRun, t *tally) {
	if ref.prints == nil {
		ref.prints = make([]string, n)
		ref.counts = make([]runCounts, n)
		ref.logs = make([][]byte, n)
		ref.fairness = make([]float64, n)
	}
	for k, i := range idx {
		out := it.outs[k]
		var log []byte
		if it.logs != nil {
			log = it.logs[k]
		}
		fp, err := fingerprint(out)
		if err != nil {
			t.fail("run %d: %v", i, err)
			continue
		}
		c := countsOf(out, log)
		if ref.prints[i] == "" {
			ref.prints[i], ref.counts[i], ref.logs[i] = fp, c, log
			ref.fairness[i] = out.Result.Fairness
		}
		switch {
		case fp != ref.prints[i]:
			t.fail("run %d: result differs from the first repeat", i)
		case c != ref.counts[i]:
			t.fail("run %d: counts %+v differ from the first repeat %+v", i, c, ref.counts[i])
		case pinned != nil && fp != pinned[i].Fingerprint:
			t.fail("run %d: result differs from the pinned default-seed result", i)
		default:
			t.ok()
		}
	}
}

// iterateTraced reruns every spec through the traced rebuild and checks
// that each reproduces the reference run byte for byte: the same
// fingerprint and, when recording, the same replay log.
func (w *simWorkload) iterateTraced(ctx context.Context, specs []harness.RunSpec, ref *reference, tr *tracer, t *tally) (wall, verify time.Duration, outs []*harness.RunOutput) {
	runtime.GC()
	start := time.Now()
	for i, spec := range specs {
		var buf bytes.Buffer
		if w.record {
			spec.Record = &buf
		}
		out, err := tracedRun(ctx, spec, tr)
		if err != nil {
			t.fail("traced run %d: %v", i, err)
			continue
		}
		if w.record {
			vstart := time.Now()
			_, err := harness.Replay(bytes.NewReader(buf.Bytes()))
			verify += time.Since(vstart)
			if err != nil {
				t.fail("replay of traced run %d: %v", i, err)
				continue
			}
		}
		fp, err := fingerprint(out)
		switch {
		case err != nil:
			t.fail("traced run %d: %v", i, err)
		case ref.prints == nil || fp != ref.prints[i]:
			t.fail("traced run %d does not reproduce the untraced run", i)
		case w.record && !bytes.Equal(buf.Bytes(), ref.logs[i]):
			t.fail("traced run %d recorded a different log than the untraced run", i)
		default:
			t.ok()
			outs = append(outs, out)
		}
	}
	return time.Since(start), verify, outs
}

// run measures the workload for cfg.seconds: untraced iterations for
// the end-to-end metrics or, with tracing, untraced and traced
// iterations alternately for the per-layer metrics and the tracing
// overhead.
func (w *simWorkload) run(ctx context.Context, cfg runConfig) (*report, *pinnedWorkload, error) {
	setups := make([]float64, 0, setupReps)
	var specs []harness.RunSpec
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if specs, err = w.specs(cfg.seed); err != nil {
			return nil, nil, err
		}
		for _, s := range specs {
			if err := prepare(s); err != nil {
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var pinned []pinnedRun
	if cfg.pinned != nil {
		if len(cfg.pinned.Runs) != len(specs) {
			return nil, nil, fmt.Errorf("perfbench: %d pinned runs for %d specs", len(cfg.pinned.Runs), len(specs))
		}
		pinned = cfg.pinned.Runs
	}

	t := &tally{}
	ref := &reference{}
	var iters []*simIter
	var tracedWall, verify []float64
	var tracedOuts []*harness.RunOutput
	tr := newTracer()
	begin := time.Now()
	var last time.Duration
	for len(iters) < minIters || time.Since(begin)+last <= cfg.duration {
		istart := time.Now()
		it, idx, err := w.iterate(ctx, specs, t)
		if err != nil {
			return nil, nil, err
		}
		ref.check(it, idx, len(specs), pinned, t)
		iters = append(iters, it)
		if cfg.trace && ref.prints != nil {
			wall, v, outs := w.iterateTraced(ctx, specs, ref, tr, t)
			tracedWall = append(tracedWall, wall.Seconds())
			verify = append(verify, v.Seconds())
			if tracedOuts == nil {
				tracedOuts = outs
			}
		}
		last = time.Since(istart)
	}
	r := newReport()
	r.Attempted, r.Failed = t.attempted, t.failed
	var perSec, cpu, allocs, bytesPer, opsPerSec, opsMs, untracedWall, rss []float64
	for _, it := range iters {
		if it.simMs == 0 {
			continue
		}
		wall := it.cost.wall.Seconds()
		untracedWall = append(untracedWall, wall)
		perSec = append(perSec, float64(it.simMs)/wall)
		cpu = append(cpu, it.cost.cpu.Seconds()/(float64(it.simMs)/1000))
		allocs = append(allocs, float64(it.cost.allocs)/float64(it.simMs))
		bytesPer = append(bytesPer, float64(it.cost.bytes)/float64(it.simMs))
		opsPerSec = append(opsPerSec, float64(it.simMs)/opSimMs/wall)
		opsMs = append(opsMs, it.opsMs...)
		rss = append(rss, it.rssMB)
	}
	if len(perSec) == 0 {
		return nil, nil, fmt.Errorf("perfbench: no iteration completed a run")
	}
	fair := 0.0
	for _, f := range ref.fairness {
		fair += f
	}
	fair /= float64(len(ref.fairness))
	ops := summarizeAt(opsMs, w.tailPct)
	if cfg.trace {
		layers := layerInputs{tr: tr, iters: len(tracedWall), outs: tracedOuts}
		layers.verifyS = median(verify)
		layers.logBytes = logBytes(ref.logs)
		layers.overhead = median(tracedWall)/median(untracedWall) - 1
		setLayerMetrics(r, layers)
		setServeLayerMetrics(r, nil, 0)
		if err := tr.writeSpans(spansPath(cfg)); err != nil {
			return nil, nil, err
		}
	} else {
		r.set("setup_s", "s", median(setups))
		r.set("sim_ms_per_s", "ms/s", median(perSec))
		r.set("cpu_s_per_sim_s", "s/s", median(cpu))
		r.set("allocs_per_sim_ms", "count", median(allocs))
		r.set("alloc_bytes_per_sim_ms", "B", median(bytesPer))
		r.set("peak_rss_mb", "MiB", median(rss))
		r.set("fairness", "ratio", fair)
		r.set("op_per_s", "1/s", median(opsPerSec))
		r.set("op_p50_ms", "ms", ops.P50)
		r.set("op_tail_ms", "ms", ops.Tail)
	}
	logf("%d iterations, %d ops (tail at p%g); per iteration: sim ms/s %s, allocs/sim-ms %s", len(iters), ops.N, ops.TailPct, spreadOf(perSec), spreadOf(allocs))

	pin := &pinnedWorkload{}
	for i, spec := range specs {
		pin.Runs = append(pin.Runs, pinnedRun{Spec: specLabel(spec), Fingerprint: ref.prints[i], Fairness: ref.fairness[i]})
	}
	return r, pin, nil
}

// prepare builds everything a run starts from, the way harness.Run
// does before its first tick: the spec's content address, the machine
// and its thread population.
func prepare(s harness.RunSpec) error {
	if _, err := s.Digest(); err != nil {
		return err
	}
	_, _, _, err := newWorld(s)
	return err
}

// specLabel names a run spec in the pinned results.
func specLabel(s harness.RunSpec) string {
	src := ""
	switch {
	case s.Workload != nil:
		src = s.Workload.Name
	case s.Traffic != nil:
		src = "traffic:" + s.Traffic.Label()
	}
	return fmt.Sprintf("%s/%s/s%d", src, s.Policy, s.Seed)
}

func logBytes(logs [][]byte) int64 {
	n := int64(0)
	for _, l := range logs {
		n += int64(len(l))
	}
	return n
}
