package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"dike/internal/harness"
)

// digests content-addresses every spec a workload generates.
func digests(t *testing.T, gen func(uint64) ([]harness.RunSpec, error), seed uint64) []string {
	t.Helper()
	specs, err := gen(seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		if out[i], err = s.Digest(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(uint64) ([]harness.RunSpec, error){
		"paper-40": paperSpecs, "scale-1024": scaleSpecs, "colo-meta": coloSpecs,
	}
	for name, gen := range gens {
		a, b, c := digests(t, gen, 7), digests(t, gen, 7), digests(t, gen, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different spec lists", name)
		}
		for i := range a {
			if a[i] == c[i] {
				t.Errorf("%s: spec %d is the same under seeds 7 and 8", name, i)
			}
		}
	}

	p, q, r := planServed(7), planServed(7), planServed(8)
	if !reflect.DeepEqual(p, q) {
		t.Error("served: seed 7 gave two different plans")
	}
	if reflect.DeepEqual(p.keys, r.keys) || reflect.DeepEqual(p.seq, r.seq) {
		t.Error("served: seeds 7 and 8 gave the same pool or sequence")
	}
	seen := map[string]bool{}
	for _, k := range p.keys {
		if seen[k] {
			t.Errorf("served: pool repeats %s", k)
		}
		seen[k] = true
	}
	if len(p.pool) <= servedCache {
		t.Errorf("served: pool of %d does not exceed the %d-result cache", len(p.pool), servedCache)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 50, false}, {19, 50, false}, {20, 50, true}, {39, 50, true},
		{40, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // descending, so the summary must sort
	}
	d := summarize(xs)
	if d.N != 200 || d.TailPct != 95 || d.Tail != 190 || d.P50 != 100 {
		t.Errorf("summarize(1..200) = %+v; want p50 100, p95 190, n 200", d)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 || d.Tail != 0 {
		t.Errorf("summarize(nil) = %+v; want zeros", d)
	}
}

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("metric %q breaks the name charset", d.name)
			}
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "quote\"", "ü", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("name %q should be refused", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("report.set accepted a bad name")
		}
	}()
	newReport().set("bad name", "s", 1)
}

func TestConform(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	r := newReport()
	r.set("a", "s", 1)
	if conform(r, defs) == nil {
		t.Error("a missing metric passed")
	}
	r.set("b", "s", 1)
	if conform(r, defs) == nil {
		t.Error("a wrong unit passed")
	}
	r.set("b", "ms", 1)
	if err := conform(r, defs); err != nil {
		t.Error(err)
	}
	r.set("c", "ms", 1)
	if conform(r, defs) == nil {
		t.Error("an undeclared metric passed")
	}
}

// TestBenchmarkManifest checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports.
func TestBenchmarkManifest(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

// TestTracedRunReproducesHarness checks the traced rebuild against
// harness.Run on small runs of each kind the benchmark traces.
func TestTracedRunReproducesHarness(t *testing.T) {
	paper, err := paperSpecs(3)
	if err != nil {
		t.Fatal(err)
	}
	colo := coloTraffic()
	colo.HorizonMs = 1500
	specs := []harness.RunSpec{paper[0], paper[1], paper[3], {Traffic: colo, Policy: harness.PolicyMeta, Seed: 5}}
	specs[0].Scale, specs[1].Scale, specs[2].Scale = 0.01, 0.01, 0.01
	for _, spec := range specs {
		var want, got bytes.Buffer
		ref := spec
		ref.Record = &want
		out, err := harness.Run(context.Background(), ref)
		if err != nil {
			t.Fatal(err)
		}
		traced := spec
		traced.Record = &got
		tr := newTracer()
		tout, err := tracedRun(context.Background(), traced, tr)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fingerprint(out)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fingerprint(tout)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: traced run fingerprint differs from harness.Run", specLabel(spec))
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s: traced run recorded a different replay log", specLabel(spec))
		}
		if tr.ticks == 0 || tr.quanta != int64(out.Decisions) || len(tr.spans) != out.Decisions {
			t.Errorf("%s: traced %d ticks, %d quanta, %d spans for %d decisions", specLabel(spec), tr.ticks, tr.quanta, len(tr.spans), out.Decisions)
		}
		if len(tr.stack) != 0 {
			t.Errorf("%s: %d spans left open", specLabel(spec), len(tr.stack))
		}
	}
}
