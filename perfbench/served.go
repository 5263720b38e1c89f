package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dike/internal/cluster"
	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/serve/api"
	"dike/internal/store"
)

// fleet is one served deployment: a cluster.Coordinator in front of one
// serve.Server over a store.Store, each on its own loopback listener.
type fleet struct {
	st       *store.Store
	srv      *serve.Server
	coord    *cluster.Coordinator
	workerHS *http.Server
	coordHS  *http.Server
	serving  sync.WaitGroup
	client   *http.Client // the coordinator's client to the worker
	base     string       // the coordinator's URL
	dir      string
}

// startFleet opens a fresh store under dir and starts the worker and
// the coordinator. With rt set, their seams are wrapped for a traced
// round.
func startFleet(dir string, rt *roundTrace) (*fleet, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	f := &fleet{st: st, dir: dir}
	cfg := serve.Config{Workers: servedWorkers, CacheSize: servedCache, Store: st}
	if rt != nil {
		cfg.Simulate = rt.simulate
	}
	f.srv = serve.New(cfg)
	f.srv.Start()
	var worker http.Handler = f.srv.Handler()
	if rt != nil {
		worker = rt.worker.wrap(worker, routeKey, rt.observeSubmit)
	}
	var workerURL string
	if f.workerHS, workerURL, err = f.listen(worker); err != nil {
		return nil, errors.Join(err, f.stop(context.Background()))
	}
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * servedClients}}
	if f.coord, err = cluster.New(cluster.Config{Workers: []string{workerURL}, Client: f.client}); err != nil {
		return nil, errors.Join(err, f.stop(context.Background()))
	}
	f.coord.Start()
	var coord http.Handler = f.coord.Handler()
	if rt != nil {
		coord = rt.coord.wrap(coord, routeKey, nil)
	}
	if f.coordHS, f.base, err = f.listen(coord); err != nil {
		return nil, errors.Join(err, f.stop(context.Background()))
	}
	return f, nil
}

// listen serves h on a fresh loopback port and returns the server and
// its URL.
func (f *fleet) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// stop shuts the fleet down front to back — the coordinator's listener
// and the coordinator, then the worker's listener and the worker —
// waits for the listeners' goroutines, closes the store and removes its
// directory.
func (f *fleet) stop(ctx context.Context) error {
	var errs []error
	if f.coordHS != nil {
		errs = append(errs, f.coordHS.Shutdown(ctx))
	}
	if f.coord != nil {
		errs = append(errs, f.coord.Drain(ctx))
	}
	if f.client != nil {
		// A connection the worker accepted but never read a request
		// from holds its Shutdown for seconds; close them first.
		f.client.CloseIdleConnections()
	}
	if f.workerHS != nil {
		errs = append(errs, f.workerHS.Shutdown(ctx))
	}
	f.serving.Wait()
	errs = append(errs, f.srv.Drain(ctx))
	errs = append(errs, f.st.Close(), os.RemoveAll(f.dir))
	return errors.Join(errs...)
}

// answer is one request's outcome as a client saw it.
type answer struct {
	latencyMs float64
	result    []byte
	err       error
}

// call submits one run to the coordinator, waits on its event stream
// until the job ends, then fetches the job and returns its result.
func call(ctx context.Context, c *http.Client, base string, body []byte) answer {
	start := time.Now()
	res, err := callOnce(ctx, c, base, body)
	return answer{latencyMs: msOf(time.Since(start)), result: res, err: err}
}

func callOnce(ctx context.Context, c *http.Client, base string, body []byte) ([]byte, error) {
	var sub api.SubmitResponse
	if err := do(ctx, c, http.MethodPost, base+"/v1/runs", body, http.StatusAccepted, &sub); err != nil {
		return nil, err
	}
	if err := do(ctx, c, http.MethodGet, base+"/v1/runs/"+sub.ID+"/events", nil, http.StatusOK, nil); err != nil {
		return nil, err
	}
	var view api.JobView
	if err := do(ctx, c, http.MethodGet, base+"/v1/runs/"+sub.ID, nil, http.StatusOK, &view); err != nil {
		return nil, err
	}
	if view.Status != api.StatusDone || len(view.Result) == 0 {
		return nil, fmt.Errorf("job %s ended %s: %s", sub.ID, view.Status, view.Error)
	}
	return view.Result, nil
}

// do performs one request, requires status want, and decodes the body
// into v (or drains it when v is nil).
func do(ctx context.Context, c *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(blob, v)
}

// round is one served round's measurements.
type round struct {
	setup   time.Duration
	cost    delta // the request phase
	answers []answer
	sims    uint64
	stats   store.Stats
	hits    uint64
	dedup   uint64
	layers  *servedLayers
	tracer  *tracer
	rssMB   float64 // peak resident memory during the request phase
}

// roundTrace holds the traced round's seam recorders.
type roundTrace struct {
	worker, coord *handlerTimes
	mu            sync.Mutex
	submitted     map[string]time.Time // digest → end of its accepted worker submission
	queueMs       []float64
	simulateMs    []float64
	tr            *tracer
}

func newRoundTrace() *roundTrace {
	return &roundTrace{worker: newHandlerTimes(), coord: newHandlerTimes(), submitted: map[string]time.Time{}, tr: newTracer()}
}

// routeKey buckets the run submission and job status routes; every
// other route (the event stream, health probes) is not timed.
func routeKey(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/runs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/runs/") && !strings.HasSuffix(p, "/events"):
		return "get"
	}
	return ""
}

// observeSubmit notes when the worker accepted a job into its queue.
func (rt *roundTrace) observeSubmit(r *http.Request, code int, body []byte, end time.Time) {
	if code != http.StatusAccepted || r.Method != http.MethodPost {
		return
	}
	var sub api.SubmitResponse
	if json.Unmarshal(body, &sub) != nil {
		return
	}
	rt.mu.Lock()
	rt.submitted[sub.Digest] = end
	rt.mu.Unlock()
}

// simulate is the worker's serve.Config.Simulate seam for a traced
// round: it runs the traced rebuild and records the job's queue wait.
func (rt *roundTrace) simulate(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
	digest, err := spec.Digest()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	t := newTracer()
	out, err := tracedRun(ctx, spec, t)
	d := time.Since(start)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.tr.merge(t)
	rt.simulateMs = append(rt.simulateMs, msOf(d))
	// The job can start before its submission's response is written;
	// its queue wait is then zero.
	wait := 0.0
	if sub, ok := rt.submitted[digest]; ok && start.After(sub) {
		wait = msOf(start.Sub(sub))
	}
	rt.queueMs = append(rt.queueMs, wait)
	return out, err
}

// setUpServed builds the served workload's inputs — the plan and its
// request bodies — and starts a fleet on a fresh store.
func setUpServed(cfg runConfig, n int, rt *roundTrace) (*fleet, servedPlan, [][]byte, error) {
	plan := planServed(cfg.seed)
	bodies := make([][]byte, len(plan.pool))
	for i, req := range plan.pool {
		blob, err := json.Marshal(req)
		if err != nil {
			return nil, plan, nil, err
		}
		bodies[i] = blob
	}
	f, err := startFleet(fmt.Sprintf("%s/store-%d", cfg.workDir, n), rt)
	return f, plan, bodies, err
}

// serveRound starts a fleet, sends every request of the plan from
// servedClients closed-loop clients, and stops the fleet.
func serveRound(ctx context.Context, cfg runConfig, n int, traced bool) (*round, servedPlan, error) {
	var rt *roundTrace
	if traced {
		rt = newRoundTrace()
	}
	start := time.Now()
	f, plan, bodies, err := setUpServed(cfg, n, rt)
	if err != nil {
		return nil, plan, err
	}
	r := &round{setup: time.Since(start), answers: make([]answer, len(plan.seq))}

	// Return freed memory to the OS first, so the iteration's peak
	// does not depend on how much an earlier one left resident.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, plan, errors.Join(err, f.stop(ctx))
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}}
	var next atomic.Int64
	var wg sync.WaitGroup
	u := snapshot()
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(plan.seq) {
					return
				}
				r.answers[i] = call(ctx, client, f.base, bodies[plan.seq[i]])
			}
		}()
	}
	wg.Wait()
	r.cost = u.since()
	client.CloseIdleConnections()
	if r.rssMB, err = peakRSSMB(); err != nil {
		return nil, plan, errors.Join(err, f.stop(ctx))
	}

	r.hits, _, r.dedup, r.sims = f.srv.CacheStats()
	r.stats = f.st.Stats()
	if traced {
		r.tracer = rt.tr
		r.layers = &servedLayers{
			handlerMs:   rt.worker.get("submit"),
			queueMs:     rt.queueMs,
			simulateMs:  rt.simulateMs,
			coordMs:     append(rt.coord.get("submit"), rt.coord.get("get")...),
			workerGets:  float64(len(rt.worker.get("get"))),
			workerPosts: float64(len(rt.worker.get("submit"))),
		}
	}
	stopCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	stop := time.Now()
	if err := f.stop(stopCtx); err != nil {
		return nil, plan, fmt.Errorf("perfbench: stop fleet: %w", err)
	}
	if d := time.Since(stop); d > time.Second {
		logf("round %d: stopping the fleet took %v", n, d)
	}
	return r, plan, nil
}

// runServed measures the served workload in rounds, each on a fresh
// fleet and store: the clients send the plan's requests, and every
// answer must equal the first answer to the same request (and, at the
// pinned seed, the pinned result). With tracing, untraced and traced
// rounds alternate.
func runServed(ctx context.Context, cfg runConfig) (*report, *pinnedWorkload, error) {
	// Set-up is timed on its own fleets, started and stopped before
	// the measured rounds, as well as once per round.
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		f, _, _, err := setUpServed(cfg, -1-i, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := f.stop(ctx); err != nil {
			return nil, nil, err
		}
	}
	t := &tally{}
	first := map[string][]byte{} // request key → first answer
	type roundCounts struct{ sims, appends uint64 }
	var want *roundCounts
	var rounds, tracedRounds []*round
	var plan servedPlan
	begin := time.Now()
	var last time.Duration
	for n := 0; len(rounds) < minIters || time.Since(begin)+last <= cfg.duration; n++ {
		rstart := time.Now()
		traced := cfg.trace && n%2 == 1
		r, p, err := serveRound(ctx, cfg, n, traced)
		if err != nil {
			return nil, nil, err
		}
		plan = p
		distinct := map[int]bool{}
		for i, a := range r.answers {
			idx := plan.seq[i]
			distinct[idx] = true
			key := plan.keys[idx]
			if a.err != nil {
				t.fail("request %d (%s): %v", i, key, a.err)
				continue
			}
			prev, seen := first[key]
			if !seen {
				first[key] = a.result
				prev = a.result
			}
			switch {
			case !bytes.Equal(a.result, prev):
				t.fail("request %d (%s): answer differs from the first answer", i, key)
			case cfg.pinned != nil && cfg.pinned.Served[key] != sha(a.result):
				t.fail("request %d (%s): answer differs from the pinned result", i, key)
			default:
				t.ok()
			}
		}
		got := roundCounts{sims: r.sims, appends: r.stats.Appends}
		if want == nil {
			want = &roundCounts{sims: uint64(len(distinct)), appends: uint64(len(distinct))}
		}
		t.check(got == *want, "round %d: %d simulations and %d store appends, want %d of each (one per distinct request)", n, got.sims, got.appends, want.sims)
		if traced {
			tracedRounds = append(tracedRounds, r)
		} else {
			rounds = append(rounds, r)
		}
		last = time.Since(rstart)
	}
	// Outcomes of the distinct requests, from the first answers.
	var simMs, fair float64
	pin := &pinnedWorkload{Served: map[string]string{}}
	keys := make([]string, 0, len(first))
	for key := range first {
		keys = append(keys, key)
	}
	sort.Strings(keys) // a fixed summation order keeps fairness bit-stable
	for _, key := range keys {
		res := first[key]
		var rr api.RunResult
		if err := json.Unmarshal(res, &rr); err != nil {
			return nil, nil, fmt.Errorf("perfbench: served result %s: %w", key, err)
		}
		simMs += float64(rr.CompletedAtMs)
		fair += rr.Fairness
		pin.Served[key] = sha(res)
	}
	fair /= float64(len(first))

	r := newReport()
	r.Attempted, r.Failed = t.attempted, t.failed
	var perSec, cpu, allocs, bytesPer, reqPerSec, latMs, untracedWall, rss []float64
	for _, rd := range rounds {
		wall := rd.cost.wall.Seconds()
		untracedWall = append(untracedWall, wall)
		setups = append(setups, rd.setup.Seconds())
		perSec = append(perSec, simMs/wall)
		cpu = append(cpu, rd.cost.cpu.Seconds()/(simMs/1000))
		allocs = append(allocs, float64(rd.cost.allocs)/simMs)
		bytesPer = append(bytesPer, float64(rd.cost.bytes)/simMs)
		reqPerSec = append(reqPerSec, float64(len(rd.answers))/wall)
		rss = append(rss, rd.rssMB)
		for _, a := range rd.answers {
			if a.err == nil {
				latMs = append(latMs, a.latencyMs)
			}
		}
	}
	lat := summarizeAt(latMs, servedTailPct)
	if cfg.trace {
		tr := setServedLayers(r, tracedRounds, untracedWall, len(plan.seq))
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
		r.set("op_per_s", "1/s", median(reqPerSec))
		r.set("op_p50_ms", "ms", lat.P50)
		r.set("op_tail_ms", "ms", lat.Tail)
	}
	logf("%d rounds (+%d traced), %d requests each, latency tail p%g of n=%d", len(rounds), len(tracedRounds), len(plan.seq), lat.TailPct, lat.N)
	return r, pin, nil
}

// setServedLayers reports the per-layer metrics of the traced rounds:
// the simulation layers inside the worker's Simulate seam, and the
// serving layers around it. Counts are per round. It returns the
// rounds' merged tracer.
func setServedLayers(r *report, traced []*round, untracedWall []float64, requests int) *tracer {
	tr := newTracer()
	s := &servedLayers{}
	var wall []float64
	for _, rd := range traced {
		tr.merge(rd.tracer)
		wall = append(wall, rd.cost.wall.Seconds())
		l := rd.layers
		s.handlerMs = append(s.handlerMs, l.handlerMs...)
		s.queueMs = append(s.queueMs, l.queueMs...)
		s.simulateMs = append(s.simulateMs, l.simulateMs...)
		s.coordMs = append(s.coordMs, l.coordMs...)
		s.workerGets += l.workerGets
		s.workerPosts += l.workerPosts
		s.simulations += float64(rd.sims)
		s.hits += float64(rd.hits)
		s.dedup += float64(rd.dedup)
		s.storeHits += float64(rd.stats.Hits)
		s.storeMisses += float64(rd.stats.Misses)
		s.appends += float64(rd.stats.Appends)
		s.appendedBytes += float64(rd.stats.AppendedBytes)
	}
	s.requests = float64(requests * len(traced))
	setLayerMetrics(r, layerInputs{tr: tr, iters: len(traced), overhead: median(wall)/median(untracedWall) - 1})
	setServeLayerMetrics(r, s, float64(len(traced)))
	return tr
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
