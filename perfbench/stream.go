package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/diskcache"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
	"daginsched/internal/synth"
)

// streamProfiles are the nine Table 3 programs reseeded by seed the way
// synth.Profile.GeneratePass reseeds a pass, so one StreamCorpus pass
// over them is a fresh corpus for every seed.
func streamProfiles(seed uint64) []synth.Profile {
	ps := synth.Profiles()
	for i := range ps {
		ps[i].Seed += seed * 0x9e3779b97f4a7c15
	}
	return ps
}

// streamBlocks materializes the stream a run feeds the engine.
func streamBlocks(profiles []synth.Profile) ([]*block.Block, error) {
	out := make(chan *block.Block)
	var blocks []*block.Block
	done := make(chan error, 1)
	go func() {
		_, _, err := synth.StreamCorpus(context.Background(), profiles, 0, out, nil)
		done <- err
	}()
	for b := range out {
		blocks = append(blocks, b)
	}
	return blocks, <-done
}

// streamOutput is where the sink puts each streamed block's schedule:
// one flat order arena laid out by sequence number.
type streamOutput struct {
	off    []int
	arena  []int32
	cycles []int32
	bad    int64 // outcomes whose sequence number or length did not fit
}

func newStreamOutput(blocks []*block.Block) *streamOutput {
	o := &streamOutput{off: make([]int, len(blocks)+1), cycles: make([]int32, len(blocks))}
	for i, b := range blocks {
		o.off[i+1] = o.off[i] + b.Len()
	}
	o.arena = make([]int32, o.off[len(blocks)])
	return o
}

func (o *streamOutput) take(out engine.BlockOutcome) {
	s := int(out.Seq)
	if s < 0 || s >= len(o.cycles) || len(out.Order) != o.off[s+1]-o.off[s] {
		o.bad++
		return
	}
	copy(o.arena[o.off[s]:o.off[s+1]], out.Order)
	o.cycles[s] = out.Cycles
}

func (o *streamOutput) get(i int) schedule {
	return schedule{order: o.arena[o.off[i]:o.off[i+1]], cycles: o.cycles[i]}
}

// streamRun is one timed stream: engine set-up, then RunStream fed by a
// StreamCorpus producer, then Close, which drains the disk write-behind.
type streamRun struct {
	setup, run, close time.Duration
	crossover         int
	stats             engine.Stats
}

// freeDepth is the recycling freelist's capacity: blocks the sink has
// released wait there for the producer, and a depth near the engine's
// default queue bound lets steady-state recycling rarely allocate.
const freeDepth = 256

func streamOnce(m *machine.Model, profiles []synth.Profile, path string, out *streamOutput) (streamRun, error) {
	var sr streamRun
	// Start from a collected heap, as a fresh process would: the last
	// iteration's engine is the benchmark's garbage, and left in the
	// heap it would set peak_rss_mb and add collection work to New.
	runtime.GC()
	t0 := time.Now()
	e, err := engine.New(engine.Config{Model: m, KeepOrders: true, CachePath: path})
	if err != nil {
		return sr, err
	}
	sr.setup = time.Since(t0)
	sr.crossover = e.Crossover()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t1 := time.Now()
	src := make(chan *block.Block)
	free := make(chan *block.Block, freeDepth)
	prodErr := make(chan error, 1)
	go func() {
		_, _, err := synth.StreamCorpus(ctx, profiles, 0, src, free)
		prodErr <- err
	}()
	sr.stats, err = e.RunStream(ctx, src, func(o engine.BlockOutcome) {
		out.take(o)
		select {
		case free <- o.Block:
		default:
		}
	})
	cancel() // on a RunStream failure, release a producer blocked on src
	perr := <-prodErr
	tc := time.Now()
	cerr := e.Close()
	sr.close = time.Since(tc)
	sr.run = time.Since(t1)
	switch {
	case err != nil:
		return sr, err
	case perr != nil:
		return sr, fmt.Errorf("stream producer: %w", perr)
	case cerr != nil:
		return sr, fmt.Errorf("engine close: %w", cerr)
	}
	return sr, nil
}

// batchReference schedules blocks with a cache-off batch engine and
// copies the schedules out: streamed schedules must be identical.
func batchReference(m *machine.Model, blocks []*block.Block) ([]schedule, error) {
	e, err := engine.New(engine.Config{Model: m, KeepOrders: true})
	if err != nil {
		return nil, err
	}
	res, err := e.Run(blocks)
	if err != nil {
		return nil, err
	}
	ref := make([]schedule, len(blocks))
	for i := range blocks {
		ref[i] = schedule{order: slices.Clone(res.Orders[i]), cycles: res.Cycles[i]}
	}
	return ref, nil
}

// runStream measures the streaming path with the cache on: every
// iteration starts an engine on a fresh cache file, so nearly every
// block misses both tiers, is scheduled, is memoized in L1 and is
// appended to disk; the timed region ends after Engine.Close has
// drained the write-behind queue.
func runStream(o options) (*report, error) {
	m := model()
	profiles := streamProfiles(o.seed)
	blocks, err := streamBlocks(profiles)
	if err != nil {
		return nil, err
	}
	nInsts := countInsts(blocks)
	printInfo("input", map[string]any{"blocks": len(blocks), "insts": nInsts})
	ref, err := batchReference(m, blocks)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return streamTrace(o, m, profiles, blocks, ref)
	}
	rep := &report{Correct: true}
	checkReference(rep, blocks, m, ref)
	var totalCycles int64
	for _, s := range ref {
		totalCycles += int64(s.cycles)
	}

	out := newStreamOutput(blocks)
	var setups, runs []float64
	crossovers := map[int]int{} // calibrated crossover → iterations
	start := time.Now()
	for len(runs) < minIters || time.Since(start) < o.seconds {
		path := filepath.Join(o.workdir, fmt.Sprintf("stream-%d.cache", len(runs)))
		sr, err := streamOnce(m, profiles, path, out)
		if rmErr := os.Remove(path); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, sr.setup.Seconds())
		runs = append(runs, sr.run.Seconds())
		crossovers[sr.crossover]++
		rep.Attempted += out.bad
		rep.Failed += out.bad
		for i := range blocks {
			s := out.get(i)
			ok := s.cycles == ref[i].cycles && slices.Equal(s.order, ref[i].order)
			rep.tally(ok)
			if !ok {
				rep.incorrect("iteration %d, block %s: %s", len(runs), blocks[i].Name, errMismatch)
			}
		}
		out.bad = 0
		clear(out.cycles)
	}
	printInfo("crossover", crossovers)

	med := median(runs)
	rep.set("insts_per_s", float64(nInsts)/med, "1/s")
	rep.set("capacity_rps", float64(len(blocks))/med, "1/s")
	rep.set("latency_p50_ms", med*1e3, "ms")
	rep.set("latency_p90_ms", quantile(runs, 0.9)*1e3, "ms")
	rep.set("total_cycles", float64(totalCycles), "cycles")
	rep.set("ok_frac", okFrac(rep), "fraction")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	return rep, nil
}

// streamTrace is the traced run of stream-cold. It first repeats the
// workload's own stream (default config) for the streaming counters,
// Close time and the cache file's size, then alternates a Workers:1
// engine.Run on a fresh cache file, an untraced keyed replay and a
// traced keyed replay.
func streamTrace(o options, m *machine.Model, profiles []synth.Profile, blocks []*block.Block, ref []schedule) (*report, error) {
	rep := newLayerReport()
	checkReference(rep, blocks, m, ref)
	out := newStreamOutput(blocks)
	var closes []float64
	var last streamRun
	for k := 0; k < 3; k++ {
		path := filepath.Join(o.workdir, fmt.Sprintf("stream-%d.cache", k))
		sr, err := streamOnce(m, profiles, path, out)
		if err == nil && k == 2 {
			err = diskMetrics(rep, path)
		}
		if rmErr := os.Remove(path); err == nil && rmErr != nil {
			err = rmErr
		}
		if err != nil {
			return nil, err
		}
		closes = append(closes, sr.close.Seconds())
		last = sr
	}
	got := make([]schedule, len(blocks))
	for i := range blocks {
		got[i] = out.get(i)
	}
	matchSchedules(rep, "stream", blocks, got, ref)
	crossover := last.crossover
	rep.set("engine.crossover", float64(crossover), "insts")
	rep.set("engine.close_s", median(closes), "s")
	rep.set("engine.pending_peak", float64(last.stats.PendingPeak), "count")
	rep.set("engine.big_queue_peak", float64(last.stats.BigQueuePeak), "count")
	rep.set("engine.small_queue_peak", float64(last.stats.SmallQueuePeak), "count")
	engineMetrics(rep, &last.stats)

	// The Workers:1 engine runs on a fresh file each pass, so every pass
	// is as cold as the stream.
	cfg := engine.Config{Model: m, Workers: 1, KeepOrders: true, Crossover: pinned(crossover)}
	pass := 0
	var oneGot []schedule
	runOne := func() (time.Duration, error) {
		cfg.CachePath = filepath.Join(o.workdir, fmt.Sprintf("one-%d.cache", pass))
		pass++
		e, err := engine.New(cfg)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := e.Run(blocks)
		d := time.Since(t0)
		if err == nil && oneGot == nil {
			oneGot = make([]schedule, len(blocks))
			for i := range blocks {
				oneGot[i] = schedule{order: slices.Clone(res.Orders[i]), cycles: res.Cycles[i]}
			}
		}
		if cerr := e.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if rmErr := os.Remove(cfg.CachePath); err == nil && rmErr != nil {
			err = rmErr
		}
		return d, err
	}
	if _, err := runOne(); err != nil {
		return nil, err
	}
	matchSchedules(rep, "Workers:1 run", blocks, oneGot, ref)

	r := newReplayer(m, crossover)
	replayed := make([]schedule, len(blocks))
	r.pass(blocks, true, nil, replayed)
	counts, timing, err := tracePasses(o, blocks, true, r, runOne)
	if err != nil {
		return nil, err
	}
	matchSchedules(rep, "replay", blocks, replayed, ref)
	if counts == nil {
		rep.incorrect("per-layer counts changed between passes")
		counts = &layerCounts{}
	}
	layerMetrics(rep, timing.layers, timing.self, *counts)
	rep.set("trace.overhead_frac", timing.overhead, "fraction")
	return rep, nil
}

// diskMetrics reopens a closed cache file read-only and reports what
// the write path left in it.
func diskMetrics(rep *report, path string) error {
	c, err := diskcache.Open(path, diskcache.Options{ReadOnly: true})
	if err != nil {
		return fmt.Errorf("reopening cache file: %w", err)
	}
	rep.set("diskcache.entries", float64(c.Len()), "count")
	rep.set("diskcache.bytes", float64(c.Tail()), "bytes")
	return c.Close()
}
