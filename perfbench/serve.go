package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"daginsched/internal/asm"
	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/server"
	"daginsched/internal/synth"
)

const (
	// bodyInsts is every request body's instruction count. Equal bodies
	// keep the latency distribution from mixing request sizes.
	bodyInsts = 256
	// fppppWindow windows fpppp as the paper's fpppp-1000 row does.
	fppppWindow = 1000
	// serveRounds is how many set-ups, each followed by an open-loop and
	// a closed-loop window, a run makes.
	serveRounds = 9
	// tenants is how many X-Tenant identities the traffic rotates over.
	tenants = 4
	// failedLatency stands in for the latency of a request that failed:
	// a failed request misses every latency limit.
	failedLatency = time.Hour
)

// serveBodies renders the Table 3 corpus (fpppp windowed) as request
// bodies of exactly bodyInsts instructions each. Every piece gets a
// label line so block boundaries survive the text round trip; a block
// that crosses a body boundary is split there, and the short tail of
// the corpus is dropped.
func serveBodies(seed uint64) [][]byte {
	var all []*block.Block
	for _, p := range synth.Profiles() {
		bs := p.GeneratePass(seed)
		if p.Name == "fpppp" {
			bs = block.SplitWindow(bs, fppppWindow)
		}
		all = append(all, bs...)
	}
	var bodies [][]byte
	var sb strings.Builder
	fill, label := 0, 0
	for _, b := range all {
		for insts := b.Insts; len(insts) > 0; {
			k := min(len(insts), bodyInsts-fill)
			fmt.Fprintf(&sb, "u%d:\n", label)
			sb.WriteString(asm.Print(insts[:k]))
			insts, fill, label = insts[k:], fill+k, label+1
			if fill == bodyInsts {
				bodies = append(bodies, []byte(sb.String()))
				sb.Reset()
				fill, label = 0, 0
			}
		}
	}
	return bodies
}

// parseBody partitions a body into blocks exactly as the server does.
func parseBody(body []byte) ([]*block.Block, error) {
	sc := asm.NewBlockScanner(bytes.NewReader(body))
	var blocks []*block.Block
	for {
		b := &block.Block{}
		ok, err := sc.Next(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return blocks, nil
		}
		blocks = append(blocks, b)
	}
}

// serveRef is serve-warm's input set and its checked reference
// responses.
type serveRef struct {
	bodies [][]byte
	blocks [][]*block.Block
	scheds [][]schedule
	// A warm response must repeat the reference's bytes before its
	// cache-tally fields (blocks, insts, total_cycles) and from its
	// results array to the end; only the cache hit counts may differ.
	prefix, suffix [][]byte
	insts          int64
	totalCycles    int64
}

func (r *serveRef) match(i int, resp []byte) bool {
	p, s := r.prefix[i], r.suffix[i]
	return len(resp) >= len(p)+len(s) && bytes.HasPrefix(resp, p) && bytes.HasSuffix(resp, s)
}

type refResponse struct {
	Blocks      int   `json:"blocks"`
	Insts       int64 `json:"insts"`
	TotalCycles int64 `json:"total_cycles"`
	Results     []struct {
		Cycles int32   `json:"cycles"`
		Rung   string  `json:"rung"`
		Order  []int32 `json:"order"`
	} `json:"results"`
}

// serveReference answers every body from a cache-off server, then
// checks every returned schedule with the oracle.
func serveReference(m *machine.Model, bodies [][]byte, rep *report) (*serveRef, error) {
	eng, err := engine.New(engine.Config{Model: m, KeepOrders: true})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	ref := &serveRef{bodies: bodies}
	for i, body := range bodies {
		blocks, err := parseBody(body)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		if n := countInsts(blocks); n != bodyInsts {
			return nil, fmt.Errorf("body %d parses to %d instructions, want %d", i, n, bodyInsts)
		}
		status, resp := handle(srv, body, "reference")
		if status != http.StatusOK {
			return nil, fmt.Errorf("reference server answered body %d with %d: %s", i, status, resp)
		}
		var dec refResponse
		if err := json.Unmarshal(resp, &dec); err != nil {
			return nil, fmt.Errorf("decoding reference response %d: %w", i, err)
		}
		if len(dec.Results) != len(blocks) || dec.Insts != bodyInsts {
			return nil, fmt.Errorf("reference response %d covers %d blocks, body has %d", i, len(dec.Results), len(blocks))
		}
		scheds := make([]schedule, len(blocks))
		var sum int64
		for k, r := range dec.Results {
			scheds[k] = schedule{order: r.Order, cycles: r.Cycles}
			sum += int64(r.Cycles)
			err := oracle(blocks[k], m, scheds[k])
			if err == nil && r.Rung != engine.RungPrimary.String() {
				err = fmt.Errorf("block %s served on rung %s", blocks[k].Name, r.Rung)
			}
			rep.check(err == nil, "%v", err)
		}
		rep.check(sum == dec.TotalCycles, "reference response %d: total_cycles %d, blocks sum to %d", i, dec.TotalCycles, sum)
		p := bytes.Index(resp, []byte(`"cache_hits"`))
		s := bytes.Index(resp, []byte(`,"results"`))
		if p < 0 || s < p {
			return nil, fmt.Errorf("reference response %d has no cache_hits or results field", i)
		}
		ref.prefix = append(ref.prefix, resp[:p])
		ref.suffix = append(ref.suffix, resp[s:])
		ref.blocks = append(ref.blocks, blocks)
		ref.scheds = append(ref.scheds, scheds)
		ref.insts += bodyInsts
		ref.totalCycles += sum
	}
	return ref, nil
}

// handle serves one body in-process through the server's handler.
func handle(srv http.Handler, body []byte, tenant string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// serveEnv is a running warm server on loopback.
type serveEnv struct {
	eng    *engine.Engine
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	path   string
	client *http.Client
}

// startServe is serve-warm's set-up, the kill-and-restart story: one
// engine populates a fresh cache file and closes it, a second engine
// reopens the file behind server.New on a loopback listener, and one
// request per body warms the new engine's L1 from disk.
func startServe(m *machine.Model, ref *serveRef, path string, conns int) (*serveEnv, error) {
	cfg := engine.Config{Model: m, KeepOrders: true, CachePath: path}
	pop, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, blocks := range ref.blocks {
		if _, err := pop.Run(blocks); err != nil {
			_ = pop.Close() // the run's error is the one to report
			return nil, err
		}
	}
	if err := pop.Close(); err != nil {
		return nil, err
	}
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		_ = eng.Close() // the config error is the one to report
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = eng.Close()
		return nil, err
	}
	env := &serveEnv{
		eng: eng, srv: srv, path: path,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String() + "/v1/schedule",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		}},
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	var buf bytes.Buffer
	for i := range ref.bodies {
		status, err := env.post(i, ref, "warm", &buf)
		if err == nil && (status != http.StatusOK || !ref.match(i, buf.Bytes())) {
			err = fmt.Errorf("warm-up request %d: status %d", i, status)
		}
		if err != nil {
			return nil, errors.Join(err, env.stop())
		}
	}
	return env, nil
}

// post sends body i and reads the response into buf.
func (env *serveEnv) post(i int, ref *serveRef, tenant string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, env.url, bytes.NewReader(ref.bodies[i]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := env.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// stop shuts the listener, drains the server (which closes the engine
// and its cache file) and removes the file.
func (env *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := env.hs.Shutdown(ctx)
	if serr := <-env.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	env.client.CloseIdleConnections()
	if d := env.srv.Drain(ctx); d.CloseErr != nil || d.Forced {
		err = errors.Join(err, fmt.Errorf("drain: %s", d))
	}
	return errors.Join(err, os.Remove(env.path))
}

func tenantOf(i int) string { return fmt.Sprintf("t%d", i%tenants) }

// loadResult is one load window's outcome. A request is ok when it
// was answered 200 with the reference's schedules; wrong counts 200s
// whose schedules differ, which fail the run, where a refusal or a
// transport error only counts against ok_frac.
type loadResult struct {
	attempted, ok, wrong int64
	lat, lag             []time.Duration // open loop only
	elapsed              time.Duration
}

// outcome classifies one response.
func outcome(ref *serveRef, i, status int, err error, resp []byte) (ok, wrong bool) {
	if err != nil || status != http.StatusOK {
		return false, false
	}
	ok = ref.match(i%len(ref.bodies), resp)
	return ok, !ok
}

// openLoop offers rate requests/s for window with conns connections.
// Request i is due at start + i/rate whatever happened before it, so a
// stall delays every later request and that wait is charged to them:
// latency runs from the due time, and lag is how late the send was.
func openLoop(env *serveEnv, ref *serveRef, rate float64, window time.Duration, conns int) loadResult {
	n := max(1, int(rate*window.Seconds()))
	res := loadResult{lat: make([]time.Duration, n), lag: make([]time.Duration, n)}
	ok, wrong := make([]bool, n), make([]bool, n)
	period := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * period)
				waitUntil(due)
				sent := time.Now()
				status, err := env.post(i%len(ref.bodies), ref, tenantOf(i), &buf)
				done := time.Now()
				res.lag[i] = sent.Sub(due)
				ok[i], wrong[i] = outcome(ref, i, status, err, buf.Bytes())
				if ok[i] {
					res.lat[i] = done.Sub(due)
				} else {
					res.lat[i] = failedLatency
				}
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for i := range ok {
		res.attempted++
		if ok[i] {
			res.ok++
		}
		if wrong[i] {
			res.wrong++
		}
	}
	return res
}

// waitUntil sleeps until t. It never polls the clock: a poll loop would
// keep the process's threads awake, and the server goroutines sharing
// this process would then skip the thread wake-up a server with outside
// clients pays. A late wake-up is charged to the request, whose latency
// runs from its due time, and shows as lag.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// closedLoop runs conns connections for window, each sending its next
// request when the last one completes.
func closedLoop(env *serveEnv, ref *serveRef, window time.Duration, conns int) loadResult {
	var next, attempted, okCount, wrongCount atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				status, err := env.post(i%len(ref.bodies), ref, tenantOf(i), &buf)
				attempted.Add(1)
				ok, wrong := outcome(ref, i, status, err, buf.Bytes())
				if ok {
					okCount.Add(1)
				}
				if wrong {
					wrongCount.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return loadResult{attempted: attempted.Load(), ok: okCount.Load(), wrong: wrongCount.Load(), elapsed: time.Since(start)}
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// runServe measures schedd's request path with a warm cache: an open
// loop at the constant --rate gives latency, then a closed loop with
// nproc connections gives capacity. Engine workers and connections are
// both nproc, in this one process.
func runServe(o options) (*report, error) {
	m := model()
	conns := runtime.NumCPU()
	rep := &report{Correct: true}
	ref, err := serveReference(m, serveBodies(o.seed), rep)
	if err != nil {
		return nil, err
	}
	nBlocks := 0
	for _, bs := range ref.blocks {
		nBlocks += len(bs)
	}
	printInfo("input", map[string]any{"bodies": len(ref.bodies), "blocks": nBlocks, "insts": ref.insts, "rate_rps": o.rate, "connections": conns})
	if o.trace {
		return serveTrace(o, m, ref, conns, rep)
	}
	// Each round restarts the server, timing the set-up, then runs an
	// open-loop window and a closed-loop window. Spreading the set-ups
	// through the run lets a burst of host noise spoil one sample rather
	// than all of them. The tail and capacity are the medians over their
	// windows for the same reason; the median latency pools every
	// open-loop request, which a burst barely moves.
	var setups, all, p90s, capacities, lag50s, lags []float64
	var crossovers []int
	for r := 0; r < serveRounds; r++ {
		runtime.GC() // as in runCompile: a replaced set-up must not set the peak
		t0 := time.Now()
		env, err := startServe(m, ref, filepath.Join(o.workdir, fmt.Sprintf("serve-%d.cache", r)), conns)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		crossovers = append(crossovers, env.eng.Crossover())
		open := openLoop(env, ref, o.rate, o.seconds*3/5/serveRounds, conns)
		closed := closedLoop(env, ref, o.seconds*2/5/serveRounds, conns)
		if err := env.stop(); err != nil {
			return nil, err
		}
		rep.addLoad(open)
		rep.addLoad(closed)
		lat := millis(open.lat)
		all = append(all, lat...)
		p90s = append(p90s, quantile(lat, 0.9))
		lag := millis(open.lag)
		lag50s = append(lag50s, quantile(lag, 0.5))
		lags = append(lags, quantile(lag, 0.99))
		capacities = append(capacities, float64(closed.ok)/closed.elapsed.Seconds())
	}
	printInfo("crossover", crossovers)
	printInfo("windows", map[string]any{"setup_s": setups, "p90_ms": p90s, "lag_p50_ms": lag50s, "lag_p99_ms": lags, "capacity_rps": capacities})
	capacity := median(capacities)
	rep.set("latency_p50_ms", quantile(all, 0.5), "ms")
	rep.set("latency_p90_ms", median(p90s), "ms")
	rep.set("capacity_rps", capacity, "1/s")
	rep.set("insts_per_s", capacity*bodyInsts, "1/s")
	rep.set("total_cycles", float64(ref.totalCycles), "cycles")
	rep.set("ok_frac", okFrac(rep), "fraction")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	return rep, nil
}

// serveTrace is the traced run of serve-warm: an open-loop window at
// --rate for the server's /stats deltas and the generator's lag, then
// replay passes that send every body through asm.BlockScanner,
// engine.BlockKey, engine.Run on the warm engine, and the server's
// ServeHTTP into a recorder, alternating untraced and traced passes.
func serveTrace(o options, m *machine.Model, ref *serveRef, conns int, check *report) (*report, error) {
	rep := newLayerReport()
	rep.Correct, rep.Attempted, rep.Failed = check.Correct, check.Attempted, check.Failed
	env, err := startServe(m, ref, filepath.Join(o.workdir, "serve.cache"), conns)
	if err != nil {
		return nil, err
	}
	if err := diskMetrics(rep, env.path); err != nil {
		return nil, errors.Join(err, env.stop())
	}
	before := env.srv.Stats()
	open := openLoop(env, ref, o.rate, o.seconds*3/10, conns)
	after := env.srv.Stats()
	rep.addLoad(open)
	rep.set("load.lag_p99_ms", quantile(millis(open.lag), 0.99), "ms")
	rep.set("load.latency_p99_ms", quantile(millis(open.lat), 0.99), "ms")
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"server.served", after.Served - before.Served},
		{"server.shed_queue", after.Shed.Queue - before.Shed.Queue},
		{"server.shed_rate", after.Shed.Rate - before.Shed.Rate},
		{"server.shed_tenant", after.Shed.Tenant - before.Shed.Tenant},
		{"server.shed_bytes", after.Shed.Bytes - before.Shed.Bytes},
		{"server.deadline_hits", after.DeadlineHits - before.DeadlineHits},
		{"server.engine_failures", after.EngineFailures - before.EngineFailures},
	} {
		rep.set(c.name, float64(c.v), "count")
	}
	st := engine.Stats{
		CacheHits:      after.Engine.CacheHits - before.Engine.CacheHits,
		CacheMisses:    after.Engine.CacheMisses - before.Engine.CacheMisses,
		DiskHits:       after.Engine.DiskHits - before.Engine.DiskHits,
		DegradedBlocks: after.Engine.DegradedBlocks - before.Engine.DegradedBlocks,
		GateFailures:   after.Engine.GateFailures - before.Engine.GateFailures,
	}
	engineMetrics(rep, &st)
	rep.set("engine.crossover", float64(env.eng.Crossover()), "insts")

	type serveTimes struct{ scan, key, run, handle time.Duration }
	var bodyBytes int64
	var runErr error
	// replay sends every body through the four calls; the checked pass
	// (untimed) also compares each output with the reference.
	replay := func(traced, checked bool) serveTimes {
		var t serveTimes
		var clock time.Time
		for i, body := range ref.bodies {
			if traced {
				clock = time.Now()
			}
			blocks, err := parseBody(body)
			if traced {
				lap(&clock, &t.scan)
			}
			if err != nil {
				runErr = firstErr(runErr, err)
				continue
			}
			for _, b := range blocks {
				engine.BlockKey(b.Insts)
			}
			if traced {
				lap(&clock, &t.key)
			}
			res, err := env.eng.Run(blocks)
			if traced {
				lap(&clock, &t.run)
			}
			if err != nil {
				runErr = firstErr(runErr, err)
				continue
			}
			status, resp := handle(env.srv, body, tenantOf(i))
			if traced {
				lap(&clock, &t.handle)
			}
			if checked {
				bodyBytes += int64(len(body))
				for k, b := range blocks {
					want := ref.scheds[i][k]
					rep.check(res.Cycles[k] == want.cycles && slices.Equal(res.Orders[k], want.order),
						"engine.Run on block %s differs from the reference schedule", b.Name)
				}
				rep.check(status == http.StatusOK && ref.match(i, resp), "ServeHTTP on body %d differs from the reference response", i)
			}
		}
		return t
	}
	replay(false, true)
	var plain, traced []float64
	var passes []serveTimes
	start := time.Now()
	for len(passes) < minIters || time.Since(start) < o.seconds*7/10 {
		t0 := time.Now()
		replay(false, false)
		plain = append(plain, time.Since(t0).Seconds())
		t0 = time.Now()
		passes = append(passes, replay(true, false))
		traced = append(traced, time.Since(t0).Seconds())
	}
	if err := env.stop(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	printInfo("trace_passes", len(passes))
	med := func(f func(serveTimes) time.Duration) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p).Seconds()
		}
		return median(xs)
	}
	scan := med(func(t serveTimes) time.Duration { return t.scan })
	key := med(func(t serveTimes) time.Duration { return t.key })
	run := med(func(t serveTimes) time.Duration { return t.run })
	hdl := med(func(t serveTimes) time.Duration { return t.handle })
	self := hdl - scan - run
	rep.set("asm.scan_s", scan, "s")
	rep.set("asm.scan.share", scan/hdl, "fraction")
	rep.set("asm.bytes", float64(bodyBytes), "bytes")
	rep.set("engine.key_s", key, "s")
	rep.set("engine.key.share", key/hdl, "fraction")
	rep.set("engine.run_hit_s", run, "s")
	rep.set("engine.run_hit.share", (run-key)/hdl, "fraction")
	rep.set("server.handle_s", hdl, "s")
	rep.set("server.self_s", self, "s")
	rep.set("server.self.share", self/hdl, "fraction")
	rep.set("trace.overhead_frac", 1-median(plain)/median(traced), "fraction")
	return rep, nil
}
