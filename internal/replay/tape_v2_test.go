package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// sameFloat compares floats by bits, treating every NaN as equal (the
// log canonicalises NaN payloads).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameThreadDelta(a, b counters.ThreadDelta) bool {
	return sameFloat(a.Interval, b.Interval) && sameFloat(a.Work, b.Work) &&
		sameFloat(a.Instructions, b.Instructions) && sameFloat(a.Accesses, b.Accesses) &&
		sameFloat(a.Misses, b.Misses) && a.Migrations == b.Migrations
}

// sameSample reports whether two samples are bit-identical, field by
// field (nil and empty collections compare equal).
func sameSample(a, b *platform.Sample) error {
	if !sameFloat(a.Interval, b.Interval) {
		return fmt.Errorf("interval %v != %v", a.Interval, b.Interval)
	}
	if len(a.Threads) != len(b.Threads) {
		return fmt.Errorf("%d thread deltas != %d", len(a.Threads), len(b.Threads))
	}
	for id, d := range a.Threads {
		if e, ok := b.Threads[id]; !ok || !sameThreadDelta(d, e) {
			return fmt.Errorf("thread %d delta %+v != %+v", id, d, e)
		}
	}
	if len(a.Cores) != len(b.Cores) {
		return fmt.Errorf("%d core deltas != %d", len(a.Cores), len(b.Cores))
	}
	for i := range a.Cores {
		if !sameFloat(a.Cores[i].Interval, b.Cores[i].Interval) || !sameFloat(a.Cores[i].ServedMisses, b.Cores[i].ServedMisses) {
			return fmt.Errorf("core %d delta %+v != %+v", i, a.Cores[i], b.Cores[i])
		}
	}
	if len(a.Instr) != len(b.Instr) {
		return fmt.Errorf("%d instr entries != %d", len(a.Instr), len(b.Instr))
	}
	for id, v := range a.Instr {
		if w, ok := b.Instr[id]; !ok || !sameFloat(v, w) {
			return fmt.Errorf("thread %d instr %v != %v", id, v, w)
		}
	}
	return nil
}

// roundTrip encodes ev as the recorder does and decodes it as the
// player does, returning the decoded event and the encoded line.
func roundTrip(t *testing.T, ev event) (event, string) {
	t.Helper()
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatalf("marshal %+v: %v", ev, err)
	}
	var got event
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	return got, string(b)
}

// TestSampleV2RoundTrip pushes samples through the sparse encoding and
// back: every value the encoding leaves implicit must be rebuilt bit for
// bit, and every value that differs from its default must be written.
func TestSampleV2RoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string]*platform.Sample{
		"empty": {},
		"first sample": {
			Interval: 0,
			Threads:  map[platform.ThreadID]counters.ThreadDelta{4: {}},
			Cores:    make([]counters.CoreDelta, 3),
			Instr:    map[platform.ThreadID]float64{4: 0},
		},
		"own intervals": {
			Interval: 100,
			Threads: map[platform.ThreadID]counters.ThreadDelta{
				0:  {Interval: 100, Work: 1.5, Instructions: 1500, Accesses: 7, Misses: 0.25},
				1:  {Interval: math.NaN(), Work: 2},
				2:  {Interval: math.Inf(1), Work: 3, Migrations: 1},
				3:  {Interval: math.Inf(-1)},
				10: {Interval: negZero, Misses: math.NaN(), Migrations: -2},
				11: {Interval: 99.5, Accesses: math.Inf(1)},
			},
			Cores: []counters.CoreDelta{
				{Interval: 100},
				{Interval: 100, ServedMisses: 12.75},
				{Interval: 100, ServedMisses: negZero},
				{Interval: math.NaN(), ServedMisses: 0},
				{Interval: 100, ServedMisses: math.Inf(-1)},
				{Interval: 100},
			},
			Instr: map[platform.ThreadID]float64{0: 99999.25, 1: 1.0 / 3.0, 5: math.NaN()},
		},
		"nan sample interval": {
			Interval: math.NaN(),
			Threads:  map[platform.ThreadID]counters.ThreadDelta{7: {Interval: math.NaN(), Work: 1}, 8: {Interval: 100}},
			Cores:    []counters.CoreDelta{{Interval: math.NaN()}, {Interval: 100, ServedMisses: 1}},
		},
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			got, line := roundTrip(t, event{K: evSample, Now: 100, S: toWire(s)})
			if got.K != evSample || got.Now != 100 || got.S == nil {
				t.Fatalf("event header lost: %s", line)
			}
			if err := got.S.check(len(s.Cores)); err != nil {
				t.Fatalf("check rejected a recorded sample: %v (%s)", err, line)
			}
			if err := sameSample(fromWire(got.S), s); err != nil {
				t.Errorf("%v\nencoded: %s", err, line)
			}
		})
	}
}

// TestSampleV2IsSparse pins what the encoding leaves out: default cores,
// per-delta intervals equal to the sample's, zero migration counts and
// the unused event fields.
func TestSampleV2IsSparse(t *testing.T) {
	s := &platform.Sample{
		Interval: 100,
		Threads: map[platform.ThreadID]counters.ThreadDelta{
			12: {Interval: 100, Work: 1, Instructions: 1000, Accesses: 4, Misses: 2},
			3:  {Interval: 100, Work: 2, Instructions: 2000, Accesses: 8, Misses: 4, Migrations: 1},
		},
		Cores: []counters.CoreDelta{{Interval: 100}, {Interval: 100, ServedMisses: 6}, {Interval: 100}},
		Instr: map[platform.ThreadID]float64{3: 2000, 12: 1000},
	}
	_, line := roundTrip(t, event{K: evSample, Now: 200, S: toWire(s)})
	want := `{"k":"s","t":200,"s":{"iv":100,"th":[[3,2,2000,8,4,1],[12,1,1000,4,2]],"nc":3,"co":[[1,6]],"in":{"12":1000,"3":2000}}}`
	if line != want {
		t.Errorf("encoded sample\n got %s\nwant %s", line, want)
	}
	_, line = roundTrip(t, event{K: evQuantum, Now: 0})
	if line != `{"k":"q"}` {
		t.Errorf("quantum event at t=0 encoded as %s", line)
	}
}

// TestEventsV2RoundTrip round-trips one event of every kind, including
// the zero thread and core ids the encoding now leaves implicit.
func TestEventsV2RoundTrip(t *testing.T) {
	events := []event{
		{K: evQuantum, Now: 0, Alive: []platform.ThreadID{0, 1, 5}},
		{K: evQuantum, Now: 300},
		{K: evPlace, A: 0, Core: 0, PostA: 0},
		{K: evPlace, A: 4, Core: 2, PostA: 2, Err: "core 2 offline"},
		{K: evMigrate, Now: 500, A: 3, Core: 0, PostA: 1},
		{K: evSwap, Now: 500, A: 0, B: 7, PostA: 6, PostB: 0},
		{K: evPower, Now: 600, W: []jfloat{12.5, 0, jfloat(math.Inf(1))}, E: 3.25},
		{K: evDVFS, Now: 600, Core: 9, L: 2},
		{K: evDVFS, Now: 600, Core: 0, L: 0, Err: "no such level"},
	}
	for _, ev := range events {
		got, line := roundTrip(t, ev)
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("%s event round-tripped to %+v, want %+v (encoded %s)", ev.K, got, ev, line)
		}
	}
}

// TestInstrChainRoundTrip runs a sequence of samples through the
// recorder's and the player's instruction chains: every count comes back
// bit for bit whether it was chained or written.
func TestInstrChainRoundTrip(t *testing.T) {
	d := func(in float64) counters.ThreadDelta { return counters.ThreadDelta{Interval: 100, Instructions: in} }
	samples := []*platform.Sample{
		// Thread 2's delta was dropped; thread 3 has a delta but no count.
		{Interval: 100, Threads: map[platform.ThreadID]counters.ThreadDelta{0: d(1000), 1: d(2000), 3: d(7)}, Instr: map[platform.ThreadID]float64{0: 1000, 1: 2000, 2: 5}},
		{Interval: 100, Threads: map[platform.ThreadID]counters.ThreadDelta{0: d(0.1), 1: d(math.NaN()), 2: d(4)}, Instr: map[platform.ThreadID]float64{0: 1000 + 0.1, 1: 2500, 2: 9}},
		{Interval: 100, Threads: map[platform.ThreadID]counters.ThreadDelta{0: d(3), 1: d(math.Copysign(0, -1))}, Instr: map[platform.ThreadID]float64{0: math.NaN(), 1: 2500}},
		{Interval: 100, Threads: map[platform.ThreadID]counters.ThreadDelta{0: d(3), 1: d(1e-300)}, Instr: map[platform.ThreadID]float64{0: 1003.1, 1: 2500}},
	}
	rec, play := instrChain{}, instrChain{}
	chained, written := 0, 0
	for i, s := range samples {
		w := toWire(s)
		rec.elide(w, s)
		chained += len(w.Chained)
		written += len(w.Instr)
		got, line := roundTrip(t, event{K: evSample, Now: 100, S: w})
		back := fromWire(got.S)
		if err := play.restore(got.S, back); err != nil {
			t.Fatalf("sample %d: %v (%s)", i, err, line)
		}
		if err := sameSample(back, s); err != nil {
			t.Errorf("sample %d: %v\nencoded: %s", i, err, line)
		}
	}
	if chained == 0 || written == 0 {
		t.Errorf("%d counts chained and %d written; the sequence should exercise both", chained, written)
	}
}

// TestPlayerRejectsV1Header: a version-1 log is refused with the version
// error, before any event is read.
func TestPlayerRejectsV1Header(t *testing.T) {
	v1 := `{"version":1,"policy":"dike","seed":42,"memcap":80,"cores":[{"id":0,"kind":0,"speed":2.33,"phys":0}],"threads":[{"id":0,"proc":0}]}
{"k":"q","t":0,"alive":[0],"a":0,"b":0,"c":0,"pa":0,"pb":0}
{"k":"s","t":0,"s":{"iv":0,"th":{"0":{"iv":0,"w":0,"in":0,"ac":0,"mi":0,"mg":0}},"co":[{"iv":0,"sm":0}],"in":{"0":0}},"a":0,"b":0,"c":0,"pa":0,"pb":0}
`
	_, err := NewPlayer(strings.NewReader(v1))
	if err == nil {
		t.Fatal("v1 log accepted")
	}
	if !strings.Contains(err.Error(), "log version 1") {
		t.Errorf("v1 log rejected with %q, want the version error", err)
	}
}

// TestPlayerRejectsBadSamples feeds malformed v2 samples to the player:
// each must surface as an error at the sample, never a panic.
func TestPlayerRejectsBadSamples(t *testing.T) {
	header := fmt.Sprintf(`{"version":%d,"policy":"p","seed":1,"memcap":80,"cores":[{"id":0,"kind":0,"speed":2,"phys":0},{"id":1,"kind":1,"speed":1,"phys":1}],"threads":[{"id":0,"proc":0}]}`, Version)
	bad := map[string]string{
		"missing sample":      `{"k":"s","t":5}`,
		"too many cores":      `{"k":"s","t":5,"s":{"iv":5,"nc":3}}`,
		"negative cores":      `{"k":"s","t":5,"s":{"iv":5,"nc":-1}}`,
		"core out of range":   `{"k":"s","t":5,"s":{"iv":5,"nc":2,"co":[[2,1]]}}`,
		"core out of order":   `{"k":"s","t":5,"s":{"iv":5,"nc":2,"co":[[1,1],[0,1]]}}`,
		"duplicate core":      `{"k":"s","t":5,"s":{"iv":5,"nc":2,"co":[[1,1],[1,2]]}}`,
		"short core tuple":    `{"k":"s","t":5,"s":{"iv":5,"nc":2,"co":[[1]]}}`,
		"long core tuple":     `{"k":"s","t":5,"s":{"iv":5,"nc":2,"co":[[1,1,5,5]]}}`,
		"short thread tuple":  `{"k":"s","t":5,"s":{"iv":5,"th":[[0,1,2,3]]}}`,
		"long thread tuple":   `{"k":"s","t":5,"s":{"iv":5,"th":[[0,1,2,3,4,0,5,6]]}}`,
		"nested tuple":        `{"k":"s","t":5,"s":{"iv":5,"th":[[[0],1,2,3,4]]}}`,
		"object tuple":        `{"k":"s","t":5,"s":{"iv":5,"th":[{"w":1}]}}`,
		"empty tuple":         `{"k":"s","t":5,"s":{"iv":5,"th":[[]]}}`,
		"bad float":           `{"k":"s","t":5,"s":{"iv":5,"th":[[0,"Infinity",2,3,4]]}}`,
		"fractional id":       `{"k":"s","t":5,"s":{"iv":5,"th":[[0.5,1,2,3,4]]}}`,
		"chained, no delta":   `{"k":"s","t":5,"s":{"iv":5,"ic":[0]}}`,
		"chained and written": `{"k":"s","t":5,"s":{"iv":5,"th":[[0,1,2,3,4]],"in":{"0":2},"ic":[0]}}`,
		"v1 sample":           `{"k":"s","t":5,"s":{"iv":5,"th":{"0":{"iv":5,"w":0,"in":0,"ac":0,"mi":0,"mg":0}}}}`,
	}
	for name, line := range bad {
		t.Run(name, func(t *testing.T) {
			p, err := NewPlayer(strings.NewReader(header + "\n" + line + "\n"))
			if err != nil {
				t.Fatalf("header rejected: %v", err)
			}
			s := p.Sample(5)
			if p.Err() == nil {
				t.Fatalf("malformed sample accepted: %+v", s)
			}
			if s == nil || s.Threads == nil || s.Instr == nil {
				t.Errorf("divergent Sample returned %+v, want the empty sample", s)
			}
		})
	}
}

// TestRecordedLogIsV2: the recorder writes the current version and the
// player replays what it wrote.
func TestRecordedLogIsV2(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(stubPlatform{}, &buf)
	if err := rec.Start(Meta{Policy: "p"}); err != nil {
		t.Fatal(err)
	}
	rec.Quantum(0)
	live := rec.Sample(0)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	var h header
	if err := json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&h); err != nil || h.Version != 2 {
		t.Fatalf("header version %d (err %v), want 2", h.Version, err)
	}
	p, err := NewPlayer(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := p.NextQuantum(); !ok || err != nil {
		t.Fatalf("NextQuantum: ok=%v err=%v", ok, err)
	}
	if err := sameSample(p.Sample(0), live); err != nil {
		t.Error(err)
	}
	if p.Err() != nil {
		t.Error(p.Err())
	}
}

// stubPlatform is a two-core platform whose one sample exercises the
// sparse paths: a dropped-interval delta, an own-interval delta and one
// busy core.
type stubPlatform struct{}

func (stubPlatform) Topology() *platform.Topology {
	topo, err := platform.NewTopology([]platform.Core{{ID: 0, Speed: 2}, {ID: 1, Kind: 1, Speed: 1, Physical: 1}})
	if err != nil {
		panic(err)
	}
	return topo
}
func (stubPlatform) MemCapacity() float64                                       { return 80 }
func (stubPlatform) Threads() []platform.ThreadID                               { return []platform.ThreadID{0, 1} }
func (stubPlatform) Alive() []platform.ThreadID                                 { return []platform.ThreadID{0, 1} }
func (stubPlatform) CoreOf(platform.ThreadID) (platform.CoreID, error)          { return 0, nil }
func (stubPlatform) ProcessOf(id platform.ThreadID) (int, error)                { return int(id), nil }
func (stubPlatform) Place(platform.ThreadID, platform.CoreID) error             { return nil }
func (stubPlatform) Migrate(platform.ThreadID, platform.CoreID, sim.Time) error { return nil }
func (stubPlatform) Swap(platform.ThreadID, platform.ThreadID, sim.Time) error  { return nil }

func (stubPlatform) Sample(now sim.Time) *platform.Sample {
	return &platform.Sample{
		Interval: 100,
		Threads: map[platform.ThreadID]counters.ThreadDelta{
			0: {Interval: 100, Work: 3, Instructions: 3000, Accesses: 9, Misses: 1},
			1: {Interval: math.Inf(1), Work: 1, Migrations: 2},
		},
		Cores: []counters.CoreDelta{{Interval: 100}, {Interval: 100, ServedMisses: 1}},
		Instr: map[platform.ThreadID]float64{0: 3000, 1: 0},
	}
}
