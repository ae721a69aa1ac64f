package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"holmes/internal/api"
	"holmes/internal/config"
	"holmes/internal/loadgen"
	"holmes/internal/serve"
)

// The serve-open ladder: fixed offered rates, each run for a share of
// the run's seconds. refStep is the rate whose latencies are the
// workload's p50_ms and tail_ms; it gets the longest share so even its
// p99 has at least ten samples beyond it.
var (
	serveRates  = []float64{200, 400, 800, 1600}
	serveShares = []float64{0.15, 0.45, 0.20, 0.20}
)

const (
	refStep = 1
	// serveWindows splits the reference step into windows of equal
	// length; p50_ms and tail_ms are the medians of the windows' p50s and
	// p90s, so a few slow seconds on the host move one window and not
	// the run.
	serveWindows = 9
	// coldShare is the fraction of requests that are never-repeating
	// /v1/plan bodies (a distinct alpha each), so each runs the full
	// plan path instead of the response cache. At 15% the p90 of all
	// requests (tail_ms) falls near the 33rd percentile of the cold ones,
	// inside their bulk, so it follows the plan path's cost, while the
	// median stays on the cached path. The ladder offers about 700
	// requests a second, so the cold answers of a run of up to 30 s and
	// the hot set fit the 4096-entry response cache.
	coldShare = 0.15
	// sloMS is the latency limit on p99 that defines slo_rps.
	sloMS = 50.0
	// maxLagShare invalidates a run whose generator sent the reference
	// step's p99 request later than this share of the limit: the
	// numbers would measure the generator, not the server.
	maxLagShare = 0.4
)

// serveReq is one request of the open loop, due at offset at from the
// start of its rate step. hot indexes the hot set; -1 marks a cold
// request.
type serveReq struct {
	At   time.Duration `json:"at"`
	Path string        `json:"path"`
	Body string        `json:"body"`
	Hot  int           `json:"hot"`
}

type serveStep struct {
	Rate float64    `json:"rate"`
	Dur  float64    `json:"dur_s"`
	Reqs []serveReq `json:"reqs"`
}

// hotItem is one repeating request of the hot set.
type hotItem struct{ path, body string }

// hotSet is the Table-3 /v1/plan corpus plus the scenario /v1/simulate
// corpus: 56 bodies, far below the response cache's capacity.
func hotSet() []hotItem {
	var hot []hotItem
	for _, b := range loadgen.PlanBodies() {
		hot = append(hot, hotItem{"/v1/plan", b})
	}
	for _, b := range loadgen.SimulateBodies() {
		hot = append(hot, hotItem{"/v1/simulate", b})
	}
	return hot
}

// coldBase is the body every cold request varies: the paper's Hybrid
// 8-node cell of parameter group 1. One cell keeps the cold requests'
// cost alike, so the tail they set does not depend on which cells a
// seed happens to draw.
const coldBase = `{"env":"Hybrid","nodes":8,"model":{"group":1},"tensor_size":1,"pipeline_size":2}`

// genServeSchedule draws the open-loop schedule from seed: Poisson
// arrivals at each step's rate, each a hot body picked uniformly or,
// with probability coldShare, coldBase with a fresh alpha.
func genServeSchedule(seed int64, seconds float64, hot []hotItem) []serveStep {
	rng := rand.New(rand.NewSource(seed))
	usedAlpha := map[string]bool{}
	var steps []serveStep
	for i, rate := range serveRates {
		dur := seconds * serveShares[i]
		st := serveStep{Rate: rate, Dur: dur}
		t := 0.0
		for {
			t += rng.ExpFloat64() / rate
			if t >= dur {
				break
			}
			at := time.Duration(t * float64(time.Second))
			if rng.Float64() < coldShare {
				var alpha string
				for alpha == "" || usedAlpha[alpha] {
					alpha = fmt.Sprintf("%.9f", 1.0+0.1*rng.Float64())
				}
				usedAlpha[alpha] = true
				body := strings.TrimSuffix(coldBase, "}") + `,"alpha":` + alpha + "}"
				st.Reqs = append(st.Reqs, serveReq{At: at, Path: "/v1/plan", Body: body, Hot: -1})
				continue
			}
			h := rng.Intn(len(hot))
			st.Reqs = append(st.Reqs, serveReq{At: at, Path: hot[h].path, Body: hot[h].body, Hot: h})
		}
		steps = append(steps, st)
	}
	return steps
}

// client is the load generator's HTTP side: at most conns connections,
// each dial counted.
type client struct {
	http  *http.Client
	base  string
	dials atomic.Int64
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	d := &net.Dialer{}
	c.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	return c
}

func (c *client) post(path, body string) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// stepResult is what one rate step measured.
type stepResult struct {
	rate             float64
	sent, ok, failed int
	lat              []float64 // ms, indexed like the step's requests
	lag, connWait    []float64 // ms
	backlog          int       // requests still queued when the schedule ended
	hotMismatch      int
}

// runStep sends the step's requests on their schedule with conns
// workers. Latency runs from each request's intended send time, so a
// stall that delays later requests is charged to them.
func runStep(c *client, st serveStep, conns int, first map[int][]byte) stepResult {
	res := stepResult{rate: st.Rate, sent: len(st.Reqs), lat: make([]float64, len(st.Reqs))}
	type queued struct {
		i        int
		req      serveReq
		due, enq time.Time
	}
	// Sized to the number of sends, so the dispatcher never blocks and
	// its lateness is the generator's own.
	queue := make(chan queued, len(st.Reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				wait := time.Since(q.enq)
				code, body, err := c.post(q.req.Path, q.req.Body)
				lat := time.Since(q.due)
				mu.Lock()
				res.connWait = append(res.connWait, ms(wait))
				res.lat[q.i] = ms(lat)
				switch {
				case err != nil || code != http.StatusOK:
					res.failed++
				case q.req.Hot >= 0 && !bytes.Equal(body, first[q.req.Hot]):
					res.failed++
					res.hotMismatch++
				default:
					res.ok++
				}
				mu.Unlock()
			}
		}()
	}
	// time.Sleep overshoots by about a millisecond on Linux (the
	// netpoller waits in whole milliseconds), which would dominate a
	// cached answer's latency; nanosleep on a locked thread wakes within
	// tens of microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Linux lets a sleeping thread wake up to its timer slack (50 µs by
	// default) late, which measured as a 64 µs median send lag against a
	// 0.2 ms median latency. A 1 ns slack on the dispatcher's thread cut
	// the lag to 14 µs; 0 restores the default before the thread goes
	// back to the runtime.
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	start := time.Now()
	for i, r := range st.Reqs {
		due := start.Add(r.At)
		if d := time.Until(due); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // an early wake only makes the measured lag larger
		}
		now := time.Now()
		res.lag = append(res.lag, ms(now.Sub(due)))
		queue <- queued{i: i, req: r, due: due, enq: now}
	}
	if d := time.Until(start.Add(time.Duration(st.Dur * float64(time.Second)))); d > 0 {
		time.Sleep(d)
	}
	res.backlog = len(queue)
	close(queue)
	wg.Wait()
	return res
}

// serveState is one serve-open set-up: pool, API server on a loopback
// listener, client, schedule, and the first answer of every hot key.
type serveState struct {
	pool   *serve.Pool
	srv    *httptest.Server
	cl     *client
	hot    []hotItem
	steps  []serveStep
	first  map[int][]byte
	warmup time.Duration
	timing *handlerTimes
}

// handlerTimes is the benchmark's timing middleware around the mounted
// API handler (traced runs only).
type handlerTimes struct {
	tr *tracer
	mu sync.Mutex
	ms []float64
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := h.tr.begin("api", r.URL.Path, 0)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		h.tr.end(id)
		h.mu.Lock()
		h.ms = append(h.ms, ms(d))
		h.mu.Unlock()
	})
}

func setupServe(cfg runCfg, seconds float64) (*serveState, error) {
	st := &serveState{hot: hotSet(), first: map[int][]byte{}}
	var handler http.Handler
	timed(cfg.tr, "serve", "serve.New", 0, func() {
		st.pool = serve.New(serve.Config{ShardConcurrency: searchWidth})
		handler = api.NewServerPool(st.pool).Handler()
	})
	if cfg.tr != nil {
		st.timing = &handlerTimes{tr: cfg.tr}
		handler = st.timing.wrap(handler)
	}
	st.srv = httptest.NewServer(handler)
	st.cl = newClient(st.srv.URL, cfg.nproc)
	st.steps = genServeSchedule(cfg.seed, seconds, st.hot)

	// Warm the response cache with every hot body, closed loop over the
	// generator's connections; the first answer per key is the one
	// every later repeat must equal byte for byte.
	t0 := time.Now()
	var mu sync.Mutex
	var firstErr error
	closedLoop(len(st.hot), cfg.nproc, func(i int) {
		code, body, err := st.cl.post(st.hot[i].path, st.hot[i].body)
		mu.Lock()
		defer mu.Unlock()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("warm-up %s -> %d: %s", st.hot[i].path, code, body)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
		st.first[i] = body
	})
	st.warmup = time.Since(t0)
	if firstErr != nil {
		st.close()
		return nil, firstErr
	}
	return st, nil
}

// closedLoop calls fn(i) for every i in [0, n) from workers goroutines,
// each taking the next index when its previous call returns.
func closedLoop(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func (st *serveState) close() {
	st.cl.close()
	st.srv.Close()
}

// serveOpen is the open loop against the in-process daemon.
func serveOpen(cfg runCfg) (*outcome, error) {
	return runServe(cfg, cfg.seconds, 9)
}

// serveOpenReach drives the api, serve and loadgen layers for a traced
// run of another workload: a short ladder.
func serveOpenReach(cfg runCfg) (*outcome, error) { return runServe(cfg, 4, 1) }

// runServe sets up reps times (the set-up time is their median), then
// runs the ladder once on the last set-up.
func runServe(cfg runCfg, seconds float64, reps int) (*outcome, error) {
	out := newOutcome()
	var setups, warmups []float64
	var st *serveState
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		s, err := setupServe(cfg, seconds)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		warmups = append(warmups, s.warmup.Seconds())
		st = s
	}
	defer st.close()
	rc0 := st.pool.ResponseCacheStats()

	mem := markMem()
	var results []stepResult
	for _, step := range st.steps {
		results = append(results, runStep(st.cl, step, cfg.nproc, st.first))
	}
	alloc := mem.allocMB()

	var waits []float64
	slo := 0.0
	cold, sent := 0, 0
	for i, r := range results {
		out.attempted += r.sent
		out.failed += r.failed
		sent += r.sent
		if r.hotMismatch > 0 {
			out.failures = append(out.failures, fmt.Sprintf("%d hot responses at %g req/s differ from the first answer", r.hotMismatch, r.rate))
		} else if r.failed > 0 {
			out.failures = append(out.failures, fmt.Sprintf("%d of %d requests failed at %g req/s", r.failed, r.sent, r.rate))
		}
		waits = append(waits, r.connWait...)
		for _, q := range st.steps[i].Reqs {
			if q.Hot < 0 {
				cold++
			}
		}
		p99 := quantile(append([]float64(nil), r.lat...), 0.99)
		growing := float64(r.backlog) > r.rate*sloMS/1000
		if p99 <= sloMS && !growing && r.failed == 0 {
			slo = r.rate
		}
		out.say(fmt.Sprintf("step_%g.sent", r.rate), float64(r.sent), "req",
			fmt.Sprintf("succeeded %d, failed %d, p50 %.3f ms, p99 %.3f ms, backlog %d, lag p50 %.3f ms, p99 %.3f ms", r.ok, r.failed,
				quantile(append([]float64(nil), r.lat...), 0.5), p99, r.backlog, quantile(r.lag, 0.5), quantile(r.lag, 0.99)))
	}
	// The run's figures come from the reference step, so its lag decides
	// whether they measure the server or the generator.
	lagP99 := quantile(results[refStep].lag, 0.99)
	if lagP99 > maxLagShare*sloMS {
		return nil, fmt.Errorf("run invalid: generator lag p99 %.3f ms at %g req/s exceeds %.0f%% of the %g ms limit",
			lagP99, serveRates[refStep], 100*maxLagShare, sloMS)
	}
	if dials := st.cl.dials.Load(); dials > int64(cfg.nproc) {
		out.check(false, "generator opened %d connections, more than %d", dials, cfg.nproc)
	}

	p50s, p90s := windowQuantiles(st.steps[refStep], results[refStep].lat)
	refP99 := quantile(append([]float64(nil), results[refStep].lat...), 0.99)
	refN, nHot := len(results[refStep].lat), len(st.hot)
	out.e2e["setup_s"] = median(setups)
	out.e2e["p50_ms"] = median(p50s)
	out.e2e["tail_ms"] = median(p90s)
	out.e2e["batch_s"] = median(warmups)
	out.e2e["alloc_mb"] = alloc

	rc := st.pool.ResponseCacheStats()
	var coalesced uint64
	for _, ep := range st.pool.Stats().Snapshot().Endpoints {
		coalesced += ep.Coalesced
	}
	_, _, rejected, _ := st.pool.Gate()
	out.layer["serve.resp_hit_ratio"] = ratio(rc.Hits-rc0.Hits, rc.Hits-rc0.Hits+rc.Misses-rc0.Misses)
	out.layer["serve.coalesced"] = float64(coalesced)
	out.layer["serve.rejected"] = float64(rejected)
	out.layer["loadgen.lag_p99_ms"] = lagP99
	out.layer["loadgen.conn_wait_p99_ms"] = quantile(waits, 0.99)
	cs := st.pool.CacheStats()
	out.layer["engine.world_hit_ratio"] = ratio(cs.Hits, cs.Hits+cs.Misses)
	if st.timing != nil {
		st.timing.mu.Lock()
		h := append([]float64(nil), st.timing.ms...)
		st.timing.mu.Unlock()
		out.layer["api.handler_p50_ms"] = quantile(h, 0.5)
		out.layer["api.handler_p99_ms"] = quantile(h, 0.99)
		if err := codecProbe(cfg, st, out); err != nil {
			return nil, err
		}
		generatorAllocProbe(cfg, st, out)
	}

	// The live heap is the daemon's: the schedule, the answers kept for
	// the checks and the per-request results are the generator's, so
	// they are dropped before the collection. The pool and the server
	// stay reachable through st.
	st.steps, st.first, st.hot, results, waits = nil, nil, nil, nil, nil
	out.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(st)

	out.say("setup_s", out.e2e["setup_s"], "s", fmt.Sprintf("median of %d set-ups, warm-up included", len(setups)))
	out.say("warmup_s", out.e2e["batch_s"], "s", fmt.Sprintf("%d hot bodies answered cold; reported as batch_s", nHot))
	out.say("p50_ms", out.e2e["p50_ms"], "ms", fmt.Sprintf("%g req/s step, median of %d windows' p50s, %d samples", serveRates[refStep], len(p50s), refN))
	out.say("p90_ms", out.e2e["tail_ms"], "ms", "median of the windows' p90s; reported as tail_ms")
	out.say("p99_ms", refP99, "ms", "over the whole step")
	out.say("slo_rps", slo, "req/s", fmt.Sprintf("highest step with p99 <= %g ms and no growing backlog", sloMS))
	out.say("cold_share", float64(cold)/float64(sent), "ratio", fmt.Sprintf("hot set %d keys, response cache %d entries", nHot, rc.Cap))
	out.say("alloc_mb", alloc, "MB", "whole ladder, the in-process generator included")
	out.say("live_heap_mb", out.e2e["live_heap_mb"], "MB", "")
	return out, nil
}

// windowQuantiles splits a step into serveWindows windows of equal
// length by intended send time and returns each window's p50 and p90
// latency.
func windowQuantiles(st serveStep, lat []float64) (p50s, p90s []float64) {
	win := make([][]float64, serveWindows)
	for i, r := range st.Reqs {
		w := min(int(r.At.Seconds()/st.Dur*serveWindows), serveWindows-1)
		win[w] = append(win[w], lat[i])
	}
	for _, xs := range win {
		if len(xs) == 0 {
			continue
		}
		p50s = append(p50s, quantile(xs, 0.5))
		p90s = append(p90s, quantile(xs, tailQ))
	}
	return p50s, p90s
}

// generatorAllocProbe sends the run's requests again, closed loop over
// the generator's connections, to a stub server that answers each with
// one recorded plan answer. What that allocates is the share of
// alloc_mb spent by the in-process generator and net/http on both ends
// of the connection, without api or serve.
func generatorAllocProbe(cfg runCfg, st *serveState, out *outcome) {
	answer := st.first[0]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(answer)
	}))
	defer srv.Close()
	cl := newClient(srv.URL, cfg.nproc)
	defer cl.close()
	var reqs []serveReq
	for _, s := range st.steps {
		reqs = append(reqs, s.Reqs...)
	}
	var failed atomic.Int64
	mem := markMem()
	closedLoop(len(reqs), cfg.nproc, func(i int) {
		if code, _, err := cl.post(reqs[i].Path, reqs[i].Body); err != nil || code != http.StatusOK {
			failed.Add(1)
		}
	})
	out.layer["loadgen.alloc_mb"] = mem.allocMB()
	out.check(failed.Load() == 0, "generator probe: %d of %d stub requests failed", failed.Load(), len(reqs))
}

// codecProbe times the api codec on the workload's bodies: config.Load
// on every request body, and PlanResponse encoding on every hot plan
// answer.
func codecProbe(cfg runCfg, st *serveState, out *outcome) error {
	var bodies []string
	for _, s := range st.steps {
		for _, r := range s.Reqs {
			bodies = append(bodies, r.Body)
		}
	}
	var n int
	d := timed(cfg.tr, "api", "config.Load", 0, func() {
		for _, b := range bodies {
			if _, err := config.Load(strings.NewReader(b)); err != nil {
				out.check(false, "decode %s: %v", b, err)
			}
			n++
		}
	})
	out.layer["api.decode_us"] = float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1))
	var resps []api.PlanResponse
	for i, h := range st.hot {
		if h.path != "/v1/plan" {
			continue
		}
		var r api.PlanResponse
		if err := json.Unmarshal(st.first[i], &r); err != nil {
			return fmt.Errorf("hot answer %d: %w", i, err)
		}
		resps = append(resps, r)
	}
	const reps = 200
	d = timed(cfg.tr, "api", "PlanResponse.encode", 0, func() {
		for i := 0; i < reps; i++ {
			for j := range resps {
				if _, err := json.Marshal(&resps[j]); err != nil {
					out.check(false, "encode: %v", err)
				}
			}
		}
	})
	out.layer["api.encode_us"] = float64(d.Nanoseconds()) / 1e3 / float64(reps*max(len(resps), 1))
	return nil
}
