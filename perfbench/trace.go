package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/traffic"
)

// layer names a program layer whose calls the traced run times from
// outside, at an exported seam.
type layer int

const (
	layerSim        layer = iota // sim.Engine.Run: the root of a run
	layerMachine                 // sim.World.Step on the machine model
	layerPlatform                // platform.Platform calls into the machine
	layerPolicy                  // the live scheduling policy's Quantum
	layerTournament              // the meta policy's Quantum around its live child
	layerShadow                  // shadow-audition policies' Quantum
	layerReplay                  // the replay recorder between policy and platform
	layerTraffic                 // traffic.Run.Tick
	layerHarness                 // run construction and result collection
	numLayers
)

// tracer accumulates spans and counts for one simulation. It is used
// from the simulation's goroutine only; merge folds tracers of
// concurrent simulations together.
type tracer struct {
	stack []frame
	self  [numLayers]time.Duration
	total [numLayers]time.Duration
	calls [numLayers]int64

	ticks       int64
	quanta      int64
	idleSkipMs  int64
	sampleCalls int64
	sampleTime  time.Duration
	affinity    int64
	affinityErr int64
	affTime     time.Duration
	stepAllocs  uint64
	stepBytes   uint64
	quantumNs   []float64
	buildTime   time.Duration
	collectTime time.Duration

	// spans is the run's span list with every tick folded into the
	// quantum it belongs to, so memory grows with quanta, not ticks.
	spans []quantumSpan

	mem [3]rtmetrics.Sample
}

// frame is an open span.
type frame struct {
	l     layer
	start time.Time
	child time.Duration
}

// quantumSpan is one scheduling quantum: the decision at its start and
// every engine tick up to the next decision.
type quantumSpan struct {
	Quantum  int64 `json:"q"`
	SimMs    int64 `json:"sim_ms"`
	PolicyNs int64 `json:"policy_ns"`
	Ticks    int64 `json:"ticks"`
	StepNs   int64 `json:"step_ns"`
}

func newTracer() *tracer {
	t := &tracer{}
	t.mem[0].Name = "/gc/heap/allocs:objects"
	t.mem[1].Name = "/gc/heap/tiny/allocs:objects"
	t.mem[2].Name = "/gc/heap/allocs:bytes"
	return t
}

func (t *tracer) enter(l layer) {
	t.stack = append(t.stack, frame{l: l, start: time.Now()})
}

// leave closes the innermost span and returns its duration. A layer's
// self time is its duration minus the time its child spans cover.
func (t *tracer) leave() time.Duration {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	t.total[f.l] += d
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	return d
}

// heapAllocs reads the cumulative heap allocation counters without
// stopping the world. The runtime counts allocations when a span is
// refilled, so small deltas are span-granular.
func (t *tracer) heapAllocs() (objects, bytes uint64) {
	rtmetrics.Read(t.mem[:])
	return t.mem[0].Value.Uint64() + t.mem[1].Value.Uint64(), t.mem[2].Value.Uint64()
}

// merge folds o into t.
func (t *tracer) merge(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.total[l] += o.total[l]
		t.calls[l] += o.calls[l]
	}
	t.ticks += o.ticks
	t.quanta += o.quanta
	t.idleSkipMs += o.idleSkipMs
	t.sampleCalls += o.sampleCalls
	t.sampleTime += o.sampleTime
	t.affinity += o.affinity
	t.affinityErr += o.affinityErr
	t.affTime += o.affTime
	t.stepAllocs += o.stepAllocs
	t.stepBytes += o.stepBytes
	t.buildTime += o.buildTime
	t.collectTime += o.collectTime
	t.quantumNs = append(t.quantumNs, o.quantumNs...)
	t.spans = append(t.spans, o.spans...)
}

// writeSpans writes the folded span list to path, one JSON object per
// line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spansPath is where a traced run of cfg writes its spans.
func spansPath(cfg runConfig) string {
	return filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-s%d.ndjson", cfg.name, cfg.seed))
}

// tracedWorld times sim.World.Step and forwards the optional
// sim.Idler and sim.LiveCounter interfaces the machine implements.
type tracedWorld struct {
	m    *machine.Machine
	t    *tracer
	tick sim.Time
}

func (w *tracedWorld) Step(now, dt sim.Time) {
	t := w.t
	a0, b0 := t.heapAllocs()
	t.enter(layerMachine)
	w.m.Step(now, dt)
	d := t.leave()
	a1, b1 := t.heapAllocs()
	t.stepAllocs += a1 - a0
	t.stepBytes += b1 - b0
	t.ticks++
	if dt > w.tick {
		t.idleSkipMs += int64(dt)
	}
	if n := len(t.spans); n > 0 {
		s := &t.spans[n-1]
		s.Ticks++
		s.StepNs += d.Nanoseconds()
	}
}

func (w *tracedWorld) Done() bool                              { return w.m.Done() }
func (w *tracedWorld) IdleUntil(now sim.Time) (sim.Time, bool) { return w.m.IdleUntil(now) }
func (w *tracedWorld) AliveCount() int                         { return w.m.AliveCount() }

// tracedPolicy times a sim.Policy's Quantum under layer l. The engine's
// own policy (top) also opens a new quantum span per decision.
type tracedPolicy struct {
	inner sim.Policy
	l     layer
	t     *tracer
	top   bool
}

func (p *tracedPolicy) Name() string           { return p.inner.Name() }
func (p *tracedPolicy) QuantaLength() sim.Time { return p.inner.QuantaLength() }

func (p *tracedPolicy) Quantum(now sim.Time) error {
	t := p.t
	t.enter(p.l)
	err := p.inner.Quantum(now)
	d := t.leave()
	if p.top {
		t.quanta++
		t.quantumNs = append(t.quantumNs, float64(d.Nanoseconds()))
		t.spans = append(t.spans, quantumSpan{Quantum: t.quanta, SimMs: int64(now), PolicyNs: d.Nanoseconds()})
	}
	return err
}

// tracedPlatform times every platform.Platform call under layer l. At
// the machine boundary (layerPlatform) it also counts samples and
// affinity actions. It forwards platform.PowerControl when the wrapped
// platform offers it.
type tracedPlatform struct {
	inner platform.Platform
	l     layer
	t     *tracer
}

func (p *tracedPlatform) Topology() *platform.Topology {
	p.t.enter(p.l)
	defer p.t.leave()
	return p.inner.Topology()
}

func (p *tracedPlatform) MemCapacity() float64 {
	p.t.enter(p.l)
	defer p.t.leave()
	return p.inner.MemCapacity()
}

func (p *tracedPlatform) Threads() []platform.ThreadID {
	p.t.enter(p.l)
	defer p.t.leave()
	return p.inner.Threads()
}

func (p *tracedPlatform) Alive() []platform.ThreadID {
	p.t.enter(p.l)
	defer p.t.leave()
	return p.inner.Alive()
}

func (p *tracedPlatform) CoreOf(id platform.ThreadID) (platform.CoreID, error) {
	p.t.enter(p.l)
	defer p.t.leave()
	return p.inner.CoreOf(id)
}

func (p *tracedPlatform) ProcessOf(id platform.ThreadID) (int, error) {
	p.t.enter(p.l)
	defer p.t.leave()
	return p.inner.ProcessOf(id)
}

func (p *tracedPlatform) Sample(now sim.Time) *platform.Sample {
	p.t.enter(p.l)
	s := p.inner.Sample(now)
	d := p.t.leave()
	if p.l == layerPlatform {
		p.t.sampleCalls++
		p.t.sampleTime += d
	}
	return s
}

func (p *tracedPlatform) affinityDone(d time.Duration, err error) error {
	if p.l == layerPlatform {
		p.t.affinity++
		p.t.affTime += d
		if err != nil {
			p.t.affinityErr++
		}
	}
	return err
}

func (p *tracedPlatform) Place(id platform.ThreadID, core platform.CoreID) error {
	p.t.enter(p.l)
	err := p.inner.Place(id, core)
	return p.affinityDone(p.t.leave(), err)
}

func (p *tracedPlatform) Migrate(id platform.ThreadID, core platform.CoreID, now sim.Time) error {
	p.t.enter(p.l)
	err := p.inner.Migrate(id, core, now)
	return p.affinityDone(p.t.leave(), err)
}

func (p *tracedPlatform) Swap(a, b platform.ThreadID, now sim.Time) error {
	p.t.enter(p.l)
	err := p.inner.Swap(a, b, now)
	return p.affinityDone(p.t.leave(), err)
}

func (p *tracedPlatform) PowerSample() platform.PowerSample {
	pc, ok := p.inner.(platform.PowerControl)
	if !ok {
		return platform.PowerSample{}
	}
	p.t.enter(p.l)
	defer p.t.leave()
	return pc.PowerSample()
}

func (p *tracedPlatform) SetDVFS(core platform.CoreID, level int) error {
	pc, ok := p.inner.(platform.PowerControl)
	if !ok {
		return errNoPowerControl
	}
	p.t.enter(p.l)
	defer p.t.leave()
	return pc.SetDVFS(core, level)
}

// tracedTick times traffic.Run.Tick.
func tracedTick(tr *traffic.Run, t *tracer) sim.TickFunc {
	return func(now sim.Time) {
		t.enter(layerTraffic)
		tr.Tick(now)
		t.leave()
	}
}

// handlerTimes records the wall time of every request an http.Handler
// serves, keyed by method and route kind, and hands each response body
// to an optional observer.
type handlerTimes struct {
	mu    sync.Mutex
	times map[string][]float64
}

func newHandlerTimes() *handlerTimes { return &handlerTimes{times: map[string][]float64{}} }

// wrap times h. key maps a request to its bucket ("" = not recorded);
// observe, if non-nil, sees the status and body of recorded responses.
func (ht *handlerTimes) wrap(h http.Handler, key func(*http.Request) string, observe func(r *http.Request, code int, body []byte, end time.Time)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := key(r)
		if k == "" {
			h.ServeHTTP(w, r)
			return
		}
		rw := &recordingWriter{ResponseWriter: w, code: http.StatusOK, keep: observe != nil}
		start := time.Now()
		h.ServeHTTP(rw, r)
		end := time.Now()
		ht.mu.Lock()
		ht.times[k] = append(ht.times[k], float64(end.Sub(start).Nanoseconds())/1e6)
		ht.mu.Unlock()
		if observe != nil {
			observe(r, rw.code, rw.body, end)
		}
	})
}

func (ht *handlerTimes) get(k string) []float64 {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	return append([]float64(nil), ht.times[k]...)
}

// recordingWriter captures a response's status code and, when keep is
// set, its body.
type recordingWriter struct {
	http.ResponseWriter
	code int
	body []byte
	keep bool
}

func (w *recordingWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.keep {
		w.body = append(w.body, b...)
	}
	return w.ResponseWriter.Write(b)
}
