package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricName is the charset every metric name must match: letters,
// digits, '_', '.' and '-', starting with a letter or digit.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Metrics: map[string]metric{}} }

// set records a metric; an invalid name or a non-finite value is a bug
// in the benchmark, so it panics.
func (r *report) set(name, unit string, v float64) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("perfbench: bad metric name %q", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, v))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts operations and their failures. Every failure is logged
// to standard error with its reason.
type tally struct {
	attempted, failed int
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// check records one operation that fails unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLevels are the percentiles a tail latency is reported at, highest
// first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for tail timings: the
// highest percentile that has at least ten samples beyond it. With
// fewer than 20 samples no level qualifies and the median is used; ok
// then reports false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, lvl := range tailLevels {
		if float64(n)*(100-lvl)/100 >= 10-1e-9 {
			return lvl, true
		}
	}
	return 50, false
}

// dist summarises a timing distribution by the tail rule: median, the
// tail value at the highest qualifying percentile, that percentile, and
// the sample count.
type dist struct {
	P50, Tail, TailPct float64
	N                  int
}

func summarize(xs []float64) dist {
	p, _ := tailPercentile(len(xs))
	return dist{P50: percentile(xs, 50), Tail: percentile(xs, p), TailPct: p, N: len(xs)}
}

// summarizeAt is summarize with the tail at a fixed percentile p. It
// warns when the samples are too few for p by the tail rule.
func summarizeAt(xs []float64, p float64) dist {
	if rule, _ := tailPercentile(len(xs)); rule < p {
		logf("warning: %d samples carry fewer than ten beyond p%g; the rule allows p%g", len(xs), p, rule)
	}
	return dist{P50: percentile(xs, 50), Tail: percentile(xs, p), TailPct: p, N: len(xs)}
}

// setDist reports a distribution as four per-layer metrics.
func (r *report) setDist(name, unit string, d dist) {
	r.set(name+"_p50", unit, d.P50)
	r.set(name+"_tail", unit, d.Tail)
	r.set(name+"_tail_pct", "pct", d.TailPct)
	r.set(name+"_n", "count", float64(d.N))
}

// usage is a process resource snapshot: wall clock, CPU (user+sys over
// all threads) and cumulative heap allocations.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{wall: time.Now(), cpu: cpu, allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// delta is the cost of one measured operation.
type delta struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func (u usage) since() delta {
	now := snapshot()
	return delta{
		wall:   now.wall.Sub(u.wall),
		cpu:    now.cpu - u.cpu,
		allocs: now.allocs - u.allocs,
		bytes:  now.bytes - u.bytes,
	}
}

// resetPeakRSS resets the kernel's resident-set high-water mark for
// this process, so a later peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("perfbench: parse VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("perfbench: no VmHWM in /proc/self/status")
}

// spreadOf describes how far xs spread: their range relative to their
// median.
func spreadOf(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%.6g..%.6g (range %.2f%% of median)", s[0], s[len(s)-1], 100*ratio(s[len(s)-1]-s[0], median(s)))
}
