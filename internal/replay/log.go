// Package replay is the record/replay platform backend. A Recorder
// wraps any other platform and writes every counter sample, quantum
// boundary and affinity action to a compact JSON-lines log; a Player
// re-implements the platform interface from such a log, with no machine
// model behind it.
//
// Replay is verifying, not merely reproducing: the Player checks each
// mutating call (Place, Migrate, Swap) and each Sample against the
// recorded stream, in order, and reports a DivergenceError on the first
// mismatch. A recorded run therefore doubles as a regression test for
// scheduler decision logic — if the policy code changes behaviour, the
// replay fails at the first divergent decision instead of silently
// producing different numbers.
//
// Read-only platform calls (Topology, MemCapacity, Threads, Alive,
// CoreOf, ProcessOf) are served from replayed state and stay idempotent;
// only Sample and the affinity calls consume log events.
package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Version identifies the log format. Bumped on incompatible changes;
// the Player rejects logs from other versions. Version 2 writes counter
// samples sparsely (see wireSample) and omits every zero event field.
const Version = 2

// jfloat is a float64 that survives a JSON round trip bit-identically.
// encoding/json rejects NaN and the infinities outright, and fault
// injection produces exactly such readings, so every float in the log
// goes through this type: finite values are written in Go's shortest
// round-trip form and the three non-finite values as quoted strings.
type jfloat float64

func (f jfloat) MarshalJSON() ([]byte, error) {
	return f.appendJSON(nil), nil
}

// appendJSON appends f's JSON encoding to b.
func (f jfloat) appendJSON(b []byte) []byte {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// same reports whether f and g have identical bits — the test the
// sparse sample encoding uses to decide a value can be left implicit.
func (f jfloat) same(g jfloat) bool {
	return math.Float64bits(float64(f)) == math.Float64bits(float64(g))
}

func (f *jfloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = jfloat(math.NaN())
		return nil
	case `"+Inf"`:
		*f = jfloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = jfloat(math.Inf(-1))
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("replay: bad float %q", b)
	}
	*f = jfloat(v)
	return nil
}

// wireCore serialises one logical core of the topology. Socket is
// omitted when zero, so logs of single-socket machines (and all logs
// written before the topology-driven machine model) stay byte-compatible.
type wireCore struct {
	ID       platform.CoreID   `json:"id"`
	Kind     platform.CoreKind `json:"kind"`
	Speed    jfloat            `json:"speed"`
	Physical int               `json:"phys"`
	Socket   int               `json:"sock,omitempty"`
}

// wireThread serialises one registered thread: its id and owning
// process (the only OS-visible identity a scheduler may read).
type wireThread struct {
	ID   platform.ThreadID `json:"id"`
	Proc int               `json:"proc"`
}

// Meta is what the recording caller knows and the log must preserve to
// rebuild the policy on replay: the policy name, its seed, and an
// opaque parameter blob (the backend does not interpret policy
// configuration — layering ends at the platform seam).
type Meta struct {
	// Policy is the harness-level policy name the run was recorded under.
	Policy string
	// Seed is the seed the policy was constructed with.
	Seed uint64
	// PolicyConfig is an opaque, policy-defined parameter blob (nil when
	// the policy has none beyond the seed).
	PolicyConfig json.RawMessage
	// Static is the fixed thread→core assignment for static policies,
	// which is derived from knowledge (workload ground truth) that does
	// not exist at replay time and so must be persisted.
	Static map[platform.ThreadID]platform.CoreID
	// Power is the governed run's opaque governor setup blob (nil for
	// ungoverned runs). The harness uses it to rebuild the identical
	// governor at replay time; the backend does not interpret it.
	Power json.RawMessage
}

// header is the first line of every log.
type header struct {
	Version     int          `json:"version"`
	Policy      string       `json:"policy"`
	Seed        uint64       `json:"seed"`
	MemCapacity jfloat       `json:"memcap"`
	Cores       []wireCore   `json:"cores"`
	Threads     []wireThread `json:"threads"`
	// KindNames is the topology's core-type name table (index = CoreKind).
	// Omitted for legacy logs, whose kinds carry the default fast/slow names.
	KindNames    []string                              `json:"kinds,omitempty"`
	PolicyConfig json.RawMessage                       `json:"policyConfig,omitempty"`
	Static       map[platform.ThreadID]platform.CoreID `json:"static,omitempty"`
	// Power is the governor setup of a governed run. Trailing and
	// omitted when absent, so ungoverned logs stay byte-compatible.
	Power json.RawMessage `json:"power,omitempty"`
}

// Event kinds. One JSON object per line, discriminated by "k".
const (
	evQuantum = "q" // quantum boundary: Now, Alive
	evSample  = "s" // counter sample: Now, S
	evPlace   = "p" // initial placement: A, Core, Err
	evMigrate = "m" // migration: A, Core, Now, PostA, Err
	evSwap    = "w" // swap: A, B, Now, PostA, PostB, Err
	evPower   = "e" // energy-meter reading: W, E (Now is the last boundary)
	evDVFS    = "d" // DVFS actuation: Core, L, Err
)

// event is one recorded platform interaction. Field use depends on the
// kind; unused fields stay at their zero values. Every field is omitted
// when zero: a missing field decodes to zero, so thread 0 and core 0
// survive, and the fields a kind does not use cost no bytes.
type event struct {
	K     string              `json:"k"`
	Now   sim.Time            `json:"t,omitempty"`
	Alive []platform.ThreadID `json:"alive,omitempty"`
	S     *wireSample         `json:"s,omitempty"`
	A     platform.ThreadID   `json:"a,omitempty"`
	B     platform.ThreadID   `json:"b,omitempty"`
	Core  platform.CoreID     `json:"c,omitempty"`
	PostA platform.CoreID     `json:"pa,omitempty"`
	PostB platform.CoreID     `json:"pb,omitempty"`
	Err   string              `json:"err,omitempty"`
	// Power events: per-socket watts and cumulative joules of an
	// energy-meter reading, and the level of a DVFS actuation.
	W []jfloat `json:"pw,omitempty"`
	E jfloat   `json:"pe,omitempty"`
	L int      `json:"l,omitempty"`

	// sample is S rebuilt by the player when the event is read.
	sample *platform.Sample
}

// wireSample serialises a platform.Sample sparsely, which keeps samples —
// nearly all of a log's bytes — small:
//
//   - thread deltas are positional tuples (wireThreadDelta) in ascending
//     thread id;
//   - cores are the core count plus only the entries that differ from
//     the default {Interval: iv, ServedMisses: 0};
//   - a per-delta interval is written only when it is not bit-equal to
//     the sample interval.
//
// A thread's cumulative instruction count is written to Instr only when
// the instruction chain cannot rebuild it; the ids it can are listed in
// Chained (see instrChain). Instr keys are integers, which encoding/json
// writes as sorted strings, so log bytes are deterministic.
type wireSample struct {
	Interval jfloat                       `json:"iv"`
	Threads  []wireThreadDelta            `json:"th,omitempty"`
	NumCores int                          `json:"nc,omitempty"`
	Cores    []wireCoreDelta              `json:"co,omitempty"`
	Instr    map[platform.ThreadID]jfloat `json:"in,omitempty"`
	Chained  []platform.ThreadID          `json:"ic,omitempty"`
}

// wireThreadDelta is one thread's counter delta, written as the JSON
// array [id, w, in, ac, mi, mg, iv]. Trailing elements holding their
// defaults are dropped: iv when it equals the sample interval (OwnIv
// false), then mg when it is 0 and no iv follows.
type wireThreadDelta struct {
	ID                                   platform.ThreadID
	Work, Instructions, Accesses, Misses jfloat
	Migrations                           int
	Interval                             jfloat
	OwnIv                                bool
}

// wireCoreDelta is one non-default core delta, written as the JSON array
// [core, sm, iv] with iv dropped when it equals the sample interval.
type wireCoreDelta struct {
	Core         int
	ServedMisses jfloat
	Interval     jfloat
	OwnIv        bool
}

func (d wireThreadDelta) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 64)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(d.ID), 10)
	for _, v := range [...]jfloat{d.Work, d.Instructions, d.Accesses, d.Misses} {
		b = v.appendJSON(append(b, ','))
	}
	if d.Migrations != 0 || d.OwnIv {
		b = strconv.AppendInt(append(b, ','), int64(d.Migrations), 10)
	}
	if d.OwnIv {
		b = d.Interval.appendJSON(append(b, ','))
	}
	return append(b, ']'), nil
}

func (d *wireThreadDelta) UnmarshalJSON(b []byte) error {
	var buf [7][]byte
	f, err := tupleFields(b, buf[:0], 5)
	if err != nil {
		return err
	}
	id, err := tupleInt(f[0])
	if err != nil {
		return err
	}
	*d = wireThreadDelta{ID: platform.ThreadID(id)}
	for i, dst := range [...]*jfloat{&d.Work, &d.Instructions, &d.Accesses, &d.Misses} {
		if err := dst.UnmarshalJSON(f[1+i]); err != nil {
			return err
		}
	}
	if len(f) > 5 {
		if d.Migrations, err = tupleInt(f[5]); err != nil {
			return err
		}
	}
	if len(f) > 6 {
		d.OwnIv = true
		return d.Interval.UnmarshalJSON(f[6])
	}
	return nil
}

func (d wireCoreDelta) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 32)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(d.Core), 10)
	b = d.ServedMisses.appendJSON(append(b, ','))
	if d.OwnIv {
		b = d.Interval.appendJSON(append(b, ','))
	}
	return append(b, ']'), nil
}

func (d *wireCoreDelta) UnmarshalJSON(b []byte) error {
	var buf [3][]byte
	f, err := tupleFields(b, buf[:0], 2)
	if err != nil {
		return err
	}
	c, err := tupleInt(f[0])
	if err != nil {
		return err
	}
	*d = wireCoreDelta{Core: c}
	if err := d.ServedMisses.UnmarshalJSON(f[1]); err != nil {
		return err
	}
	if len(f) > 2 {
		d.OwnIv = true
		return d.Interval.UnmarshalJSON(f[2])
	}
	return nil
}

var errBadTuple = errors.New("replay: malformed sample tuple")

// tupleFields splits a flat JSON array of scalars into its elements,
// appending them to dst. The array must hold between min and cap(dst)
// elements. encoding/json has already checked b is valid JSON; a nested
// value splits into fragments the scalar parsers reject.
func tupleFields(b []byte, dst [][]byte, min int) ([][]byte, error) {
	b = bytes.TrimSpace(b)
	if len(b) < 2 || b[0] != '[' || b[len(b)-1] != ']' {
		return nil, errBadTuple
	}
	for body := b[1 : len(b)-1]; ; {
		if len(dst) == cap(dst) {
			return nil, errBadTuple
		}
		field, rest, more := bytes.Cut(body, []byte{','})
		dst = append(dst, bytes.TrimSpace(field))
		if !more {
			break
		}
		body = rest
	}
	if len(dst) < min {
		return nil, errBadTuple
	}
	return dst, nil
}

// tupleInt parses one integer tuple element.
func tupleInt(b []byte) (int, error) {
	v, err := strconv.Atoi(string(b))
	if err != nil {
		return 0, fmt.Errorf("replay: bad integer %q in sample tuple", b)
	}
	return v, nil
}

// toWire converts a live sample for serialisation.
func toWire(s *platform.Sample) *wireSample {
	iv := jfloat(s.Interval)
	w := &wireSample{Interval: iv}
	if len(s.Threads) > 0 {
		ids := make([]platform.ThreadID, 0, len(s.Threads))
		for id := range s.Threads {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		w.Threads = make([]wireThreadDelta, len(ids))
		for i, id := range ids {
			d := s.Threads[id]
			w.Threads[i] = wireThreadDelta{
				ID:           id,
				Work:         jfloat(d.Work),
				Instructions: jfloat(d.Instructions),
				Accesses:     jfloat(d.Accesses),
				Misses:       jfloat(d.Misses),
				Migrations:   d.Migrations,
				Interval:     jfloat(d.Interval),
				OwnIv:        !iv.same(jfloat(d.Interval)),
			}
		}
	}
	w.NumCores = len(s.Cores)
	for i, d := range s.Cores {
		own := !iv.same(jfloat(d.Interval))
		if own || !jfloat(d.ServedMisses).same(0) {
			w.Cores = append(w.Cores, wireCoreDelta{Core: i, ServedMisses: jfloat(d.ServedMisses), Interval: jfloat(d.Interval), OwnIv: own})
		}
	}
	if len(s.Instr) > 0 {
		w.Instr = make(map[platform.ThreadID]jfloat, len(s.Instr))
		for id, v := range s.Instr {
			w.Instr[id] = jfloat(v)
		}
	}
	return w
}

// instrChain is the log's one piece of cross-sample state: each thread's
// cumulative instruction count as of the last sample that carried it.
// The next count is almost always exactly last + delta.Instructions, so
// the recorder writes a count only when that sum does not rebuild it bit
// for bit, and lists the threads it does in wireSample.Chained; the
// player keeps the same chain and rebuilds them. Both sides advance the
// chain with the same values in the same order.
type instrChain map[platform.ThreadID]float64

// elide moves every count of s that the chain rebuilds exactly from
// w.Instr to w.Chained, then advances the chain past s.
func (c instrChain) elide(w *wireSample, s *platform.Sample) {
	for _, d := range w.Threads {
		v, ok := s.Instr[d.ID]
		sum := c[d.ID] + float64(d.Instructions)
		if ok && !math.IsNaN(v) && jfloat(sum).same(jfloat(v)) {
			delete(w.Instr, d.ID)
			w.Chained = append(w.Chained, d.ID)
		}
	}
	for id, v := range s.Instr {
		c[id] = v
	}
}

// restore rebuilds the chained counts of s, the sample decoded from w,
// then advances the chain past s. A chained thread must have a delta and
// no written count.
func (c instrChain) restore(w *wireSample, s *platform.Sample) error {
	for _, id := range w.Chained {
		d, ok := s.Threads[id]
		if _, dup := s.Instr[id]; !ok || dup {
			return fmt.Errorf("replay: chained instruction count for thread %d has no delta or is also written", id)
		}
		s.Instr[id] = c[id] + d.Instructions
	}
	for id, v := range s.Instr {
		c[id] = v
	}
	return nil
}

// check validates a decoded sample against the recorded topology's core
// count: the core count may not exceed it, and the sparse core entries
// must be in range and strictly ascending.
func (w *wireSample) check(ncores int) error {
	if w.NumCores < 0 || w.NumCores > ncores {
		return fmt.Errorf("replay: sample has %d cores, topology %d", w.NumCores, ncores)
	}
	prev := -1
	for _, c := range w.Cores {
		if c.Core <= prev || c.Core >= w.NumCores {
			return fmt.Errorf("replay: sample core entry %d out of order or range", c.Core)
		}
		prev = c.Core
	}
	return nil
}

// fromWire converts a deserialised sample (one that passed check) back
// to the platform type, filling in every value the sparse encoding left
// implicit.
func fromWire(w *wireSample) *platform.Sample {
	iv := float64(w.Interval)
	s := &platform.Sample{
		Interval: iv,
		Threads:  make(map[platform.ThreadID]counters.ThreadDelta, len(w.Threads)),
		Cores:    make([]counters.CoreDelta, w.NumCores),
		Instr:    make(map[platform.ThreadID]float64, len(w.Instr)),
	}
	for _, d := range w.Threads {
		td := counters.ThreadDelta{
			Interval:     iv,
			Work:         float64(d.Work),
			Instructions: float64(d.Instructions),
			Accesses:     float64(d.Accesses),
			Misses:       float64(d.Misses),
			Migrations:   d.Migrations,
		}
		if d.OwnIv {
			td.Interval = float64(d.Interval)
		}
		s.Threads[d.ID] = td
	}
	for i := range s.Cores {
		s.Cores[i].Interval = iv
	}
	for _, d := range w.Cores {
		c := &s.Cores[d.Core]
		c.ServedMisses = float64(d.ServedMisses)
		if d.OwnIv {
			c.Interval = float64(d.Interval)
		}
	}
	for id, v := range w.Instr {
		s.Instr[id] = float64(v)
	}
	return s
}
