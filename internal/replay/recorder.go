package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dike/internal/platform"
	"dike/internal/sim"
)

// Recorder wraps a live platform and logs every sample, quantum
// boundary and affinity action flowing through it. It implements
// platform.Platform, so a policy constructed over the Recorder behaves
// exactly as it would over the wrapped platform — recording is
// invisible to the policy.
//
// Call Start once, after the backend is fully populated with threads
// and before the run begins; wrap the driven policy with WrapPolicy so
// quantum boundaries land in the log; call Flush when the run ends.
type Recorder struct {
	inner   platform.Platform
	w       *bufio.Writer
	enc     *json.Encoder
	started bool
	err     error    // first write error; recording stops reporting after it
	lastNow sim.Time // most recent quantum boundary, stamped on power events
	instr   instrChain
}

// NewRecorder returns a recorder around inner writing to w. The caller
// owns w; Flush must be called before the underlying writer is closed.
func NewRecorder(inner platform.Platform, w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{inner: inner, w: bw, enc: json.NewEncoder(bw), instr: instrChain{}}
}

// Start writes the log header: the platform's topology, thread table
// and capacity, plus the caller's policy metadata. Threads registered
// after Start are not recorded, so call it once population is complete.
func (r *Recorder) Start(meta Meta) error {
	if r.started {
		return fmt.Errorf("replay: recorder already started")
	}
	r.started = true
	topo := r.inner.Topology()
	h := header{
		Version:      Version,
		Policy:       meta.Policy,
		Seed:         meta.Seed,
		MemCapacity:  jfloat(r.inner.MemCapacity()),
		KindNames:    topo.KindNames(),
		PolicyConfig: meta.PolicyConfig,
		Static:       meta.Static,
		Power:        meta.Power,
	}
	for _, c := range topo.Cores() {
		h.Cores = append(h.Cores, wireCore{ID: c.ID, Kind: c.Kind, Speed: jfloat(c.Speed), Physical: c.Physical, Socket: c.Socket})
	}
	for _, id := range r.inner.Threads() {
		proc, err := r.inner.ProcessOf(id)
		if err != nil {
			return fmt.Errorf("replay: header: %w", err)
		}
		h.Threads = append(h.Threads, wireThread{ID: id, Proc: proc})
	}
	return r.emit(h)
}

// Flush writes any buffered log data to the underlying writer and
// returns the first error encountered during recording.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// emit writes one JSON line, latching the first failure.
func (r *Recorder) emit(v any) error {
	if r.err != nil {
		return r.err
	}
	if !r.started {
		r.err = fmt.Errorf("replay: recorder used before Start")
		return r.err
	}
	if err := r.enc.Encode(v); err != nil {
		r.err = fmt.Errorf("replay: write: %w", err)
	}
	return r.err
}

// errString flattens an error for the log (divergence checking compares
// call arguments, not error identity, so the message suffices).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Topology implements platform.Platform.
func (r *Recorder) Topology() *platform.Topology { return r.inner.Topology() }

// MemCapacity implements platform.Platform.
func (r *Recorder) MemCapacity() float64 { return r.inner.MemCapacity() }

// Threads implements platform.Platform.
func (r *Recorder) Threads() []platform.ThreadID { return r.inner.Threads() }

// Alive implements platform.Platform.
func (r *Recorder) Alive() []platform.ThreadID { return r.inner.Alive() }

// CoreOf implements platform.Platform.
func (r *Recorder) CoreOf(id platform.ThreadID) (platform.CoreID, error) { return r.inner.CoreOf(id) }

// ProcessOf implements platform.Platform.
func (r *Recorder) ProcessOf(id platform.ThreadID) (int, error) { return r.inner.ProcessOf(id) }

// Sample implements platform.Platform, logging the sample it returns.
func (r *Recorder) Sample(now sim.Time) *platform.Sample {
	s := r.inner.Sample(now)
	w := toWire(s)
	r.instr.elide(w, s)
	r.emit(event{K: evSample, Now: now, S: w})
	return s
}

// Place implements platform.Platform, logging the call and its outcome.
func (r *Recorder) Place(id platform.ThreadID, core platform.CoreID) error {
	err := r.inner.Place(id, core)
	post := core
	if c, cerr := r.inner.CoreOf(id); cerr == nil {
		post = c
	}
	r.emit(event{K: evPlace, A: id, Core: core, PostA: post, Err: errString(err)})
	return err
}

// Migrate implements platform.Platform. The post-migration core is
// recorded separately from the requested one: on a faulty platform the
// affinity change may be silently dropped, and replay must reproduce
// what actually happened, not what was asked for.
func (r *Recorder) Migrate(id platform.ThreadID, core platform.CoreID, now sim.Time) error {
	err := r.inner.Migrate(id, core, now)
	post := core
	if c, cerr := r.inner.CoreOf(id); cerr == nil {
		post = c
	}
	r.emit(event{K: evMigrate, Now: now, A: id, Core: core, PostA: post, Err: errString(err)})
	return err
}

// Swap implements platform.Platform, recording both resulting cores.
func (r *Recorder) Swap(a, b platform.ThreadID, now sim.Time) error {
	err := r.inner.Swap(a, b, now)
	ev := event{K: evSwap, Now: now, A: a, B: b, Err: errString(err)}
	if c, cerr := r.inner.CoreOf(a); cerr == nil {
		ev.PostA = c
	}
	if c, cerr := r.inner.CoreOf(b); cerr == nil {
		ev.PostB = c
	}
	r.emit(ev)
	return err
}

// Quantum logs a quantum boundary: the simulated time the policy ran at
// and the alive set it saw. The Player's driver replays these to invoke
// the policy at the recorded times with the recorded alive threads —
// which is what lets policies that never sample counters (rotation,
// static placement) replay correctly.
func (r *Recorder) Quantum(now sim.Time) error {
	r.lastNow = now
	return r.emit(event{K: evQuantum, Now: now, Alive: r.inner.Alive()})
}

// PowerSample implements platform.PowerControl, logging the reading it
// returns. A wrapped platform without an energy meter yields (and
// records) the zero sample, so recording and replay stay consistent
// either way.
func (r *Recorder) PowerSample() platform.PowerSample {
	var s platform.PowerSample
	if pc, ok := r.inner.(platform.PowerControl); ok {
		s = pc.PowerSample()
	}
	ev := event{K: evPower, Now: r.lastNow, E: jfloat(s.Energy)}
	if len(s.Watts) > 0 {
		ev.W = make([]jfloat, len(s.Watts))
		for i, w := range s.Watts {
			ev.W[i] = jfloat(w)
		}
	}
	r.emit(ev)
	return s
}

// SetDVFS implements platform.PowerControl, logging the actuation and
// its outcome.
func (r *Recorder) SetDVFS(core platform.CoreID, level int) error {
	var err error
	if pc, ok := r.inner.(platform.PowerControl); ok {
		err = pc.SetDVFS(core, level)
	} else {
		err = fmt.Errorf("replay: wrapped platform has no DVFS control")
	}
	r.emit(event{K: evDVFS, Now: r.lastNow, Core: core, L: level, Err: errString(err)})
	return err
}

// recordedPolicy interposes on a policy to log quantum boundaries.
type recordedPolicy struct {
	sim.Policy
	rec *Recorder
}

// WrapPolicy returns p with quantum boundaries recorded. The wrapped
// policy must be the one the engine drives; the boundary event is
// written before p's own calls so the log reads in causal order.
func (r *Recorder) WrapPolicy(p sim.Policy) sim.Policy {
	return &recordedPolicy{Policy: p, rec: r}
}

// Quantum implements sim.Policy.
func (rp *recordedPolicy) Quantum(now sim.Time) error {
	if err := rp.rec.Quantum(now); err != nil {
		return err
	}
	return rp.Policy.Quantum(now)
}

var (
	_ platform.Platform     = (*Recorder)(nil)
	_ platform.PowerControl = (*Recorder)(nil)
)
