package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/engine"
	"daginsched/internal/machine"
)

// compileSetups is how many times a compile run repeats its set-up;
// setup_s is the median.
const compileSetups = 21

// minIters is the fewest timed iterations a run makes, however long
// each takes.
const minIters = 5

// runCompile measures the batch pipeline with the cache off: each
// iteration runs engine.Run once per program of the input set, so
// every block goes through resource interning, DAG construction,
// heuristics and selection. The engine runs at its default config
// (calibrated crossover, GOMAXPROCS workers) with KeepOrders on, since
// the schedules are the output being checked.
func runCompile(o options, c corpus) (*report, error) {
	m := model()
	units, err := c.units(o.seed)
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{Model: m, KeepOrders: true}
	if o.trace {
		return compileTrace(o, m, units, cfg)
	}
	var nBlocks, nInsts int64
	for _, u := range units {
		nBlocks += int64(len(u))
		nInsts += countInsts(u)
	}
	printInfo("input", map[string]any{"units": len(units), "blocks": nBlocks, "insts": nInsts})

	// Set-up: engine.New (crossover calibration included) and the cold
	// pass that grows every worker's arenas to the corpus's largest
	// block. It is repeated at even intervals through the run, so a
	// short burst of host noise spoils one sample rather than all of
	// them; each new engine replaces the last for the iterations after
	// it, and its cold pass is checked like an iteration.
	var eng *engine.Engine
	var results []*engine.BatchResult
	var setups []float64
	var crossovers []int
	setup := func() error {
		// The engine being replaced is the benchmark's garbage, not the
		// workload's: collect it so it does not set the peak.
		eng, results = nil, nil
		runtime.GC()
		t0 := time.Now()
		e, err := engine.New(cfg)
		if err != nil {
			return err
		}
		res := make([]*engine.BatchResult, len(units))
		for u, unit := range units {
			if res[u], err = e.Run(unit); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		crossovers = append(crossovers, e.Crossover())
		eng, results = e, res
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	rep := &report{Correct: true}
	ref, flat := compileReference(units, results)
	checkReference(rep, flat, m, ref)
	var totalCycles int64
	for _, s := range ref {
		totalCycles += int64(s.cycles)
	}
	// match compares a pass's outputs with the checked reference.
	match := func(what string) {
		i := 0
		for _, res := range results {
			for b := range res.Cycles {
				ok := res.Cycles[b] == ref[i].cycles && slices.Equal(res.Orders[b], ref[i].order)
				rep.tally(ok)
				if !ok {
					rep.incorrect("%s, block %s: %s", what, flat[i].Name, errMismatch)
				}
				i++
			}
		}
	}

	var iters []time.Duration
	start := time.Now()
	for len(iters) < minIters || time.Since(start) < o.seconds {
		if len(setups) < compileSetups && time.Since(start) >= time.Duration(len(setups))*o.seconds/compileSetups {
			if err := setup(); err != nil {
				return nil, err
			}
			match(fmt.Sprintf("set-up %d", len(setups)))
		}
		t0 := time.Now()
		for u, unit := range units {
			if results[u], err = eng.RunInto(results[u], unit); err != nil {
				return nil, err
			}
		}
		iters = append(iters, time.Since(t0))
		match(fmt.Sprintf("iteration %d", len(iters)))
	}
	printInfo("crossover", crossovers)
	secs := seconds(iters)
	printInfo("iterations", len(iters))

	med := median(secs)
	rep.set("insts_per_s", float64(nInsts)/med, "1/s")
	rep.set("capacity_rps", float64(nBlocks)/med, "1/s")
	rep.set("latency_p50_ms", med*1e3, "ms")
	rep.set("latency_p90_ms", quantile(secs, 0.9)*1e3, "ms")
	rep.set("total_cycles", float64(totalCycles), "cycles")
	rep.set("ok_frac", okFrac(rep), "fraction")
	rep.set("setup_s", median(setups), "s")
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB")
	return rep, nil
}

// compileReference copies the set-up pass's schedules out of the
// engine's result arenas, flattened in unit order alongside the blocks.
func compileReference(units [][]*block.Block, results []*engine.BatchResult) ([]schedule, []*block.Block) {
	var ref []schedule
	var flat []*block.Block
	for u, unit := range units {
		for i, b := range unit {
			ref = append(ref, schedule{order: slices.Clone(results[u].Orders[i]), cycles: results[u].Cycles[i]})
			flat = append(flat, b)
		}
	}
	return ref, flat
}

func okFrac(rep *report) float64 {
	if rep.Attempted == 0 {
		return 0
	}
	return float64(rep.Attempted-rep.Failed) / float64(rep.Attempted)
}

// pinned is the Config.Crossover that reproduces an engine's reported
// crossover without recalibrating (0 reported means never n²).
func pinned(crossover int) int {
	if crossover == 0 {
		return -1
	}
	return crossover
}

// compileTrace is the traced run of a compile workload. It alternates
// three passes over the input set until the time is up: a Workers:1
// engine.Run pinned to the workload engine's crossover, an untraced
// replay, and a traced replay. Layer times are medians over the traced
// passes; engine.self_s is the Workers:1 Run minus the untraced replay.
func compileTrace(o options, m *machine.Model, units [][]*block.Block, cfg engine.Config) (*report, error) {
	rep := newLayerReport()
	eng, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	results := make([]*engine.BatchResult, len(units))
	var st engine.Stats
	for u, unit := range units {
		if results[u], err = eng.Run(unit); err != nil {
			return nil, err
		}
		addStats(&st, &results[u].Stats)
	}
	crossover := eng.Crossover()
	want, flat := compileReference(units, results)
	checkReference(rep, flat, m, want)

	oneCfg := cfg
	oneCfg.Workers, oneCfg.Crossover = 1, pinned(crossover)
	one, err := engine.New(oneCfg)
	if err != nil {
		return nil, err
	}
	oneRes := make([]*engine.BatchResult, len(units))
	for u := range oneRes {
		oneRes[u] = &engine.BatchResult{}
	}
	runOne := func() (time.Duration, error) {
		t0 := time.Now()
		for u, unit := range units {
			if oneRes[u], err = one.RunInto(oneRes[u], unit); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := runOne(); err != nil { // grow the Workers:1 arenas
		return nil, err
	}
	oneGot, _ := compileReference(units, oneRes)
	matchSchedules(rep, "Workers:1 run", flat, oneGot, want)

	r := newReplayer(m, crossover)
	got := make([]schedule, len(flat))
	r.pass(flat, false, nil, got) // grow the replay's arenas
	counts, timing, err := tracePasses(o, flat, false, r, runOne)
	if err != nil {
		return nil, err
	}
	matchSchedules(rep, "replay", flat, got, want)
	if counts == nil {
		rep.incorrect("per-layer counts changed between passes")
		counts = &layerCounts{}
	}
	layerMetrics(rep, timing.layers, timing.self, *counts)
	rep.set("trace.overhead_frac", timing.overhead, "fraction")
	rep.set("engine.crossover", float64(crossover), "insts")
	engineMetrics(rep, &st)
	return rep, nil
}

// passTiming is the outcome of tracePasses.
type passTiming struct {
	layers   layerTimes    // per-layer medians of the traced passes
	self     time.Duration // Workers:1 engine time the layers leave unexplained
	overhead float64       // fraction of replay throughput lost to tracing
}

// tracePasses alternates a Workers:1 engine pass (runOne), an untraced
// replay and a traced replay until o.seconds have passed. It returns
// the traced passes' work counts, or nil when they were not identical
// on every pass.
func tracePasses(o options, blocks []*block.Block, keyed bool, r *replayer, runOne func() (time.Duration, error)) (*layerCounts, passTiming, error) {
	var ones, plain, traced []float64
	var layers []layerTimes
	var counts *layerCounts
	same := true
	start := time.Now()
	for len(traced) < minIters || time.Since(start) < o.seconds {
		d, err := runOne()
		if err != nil {
			return nil, passTiming{}, err
		}
		ones = append(ones, d.Seconds())
		t0 := time.Now()
		r.pass(blocks, keyed, nil, nil)
		plain = append(plain, time.Since(t0).Seconds())
		var tr layerTimes
		t0 = time.Now()
		c := r.pass(blocks, keyed, &tr, nil)
		traced = append(traced, time.Since(t0).Seconds())
		layers = append(layers, tr)
		if counts == nil {
			counts = &c
		} else if *counts != c {
			same = false
		}
	}
	printInfo("trace_passes", len(traced))
	t := passTiming{layers: medianLayers(layers)}
	mOne, mPlain, mTraced := median(ones), median(plain), median(traced)
	t.self = time.Duration((mOne - mPlain) * float64(time.Second))
	t.overhead = 1 - mPlain/mTraced
	if !same {
		counts = nil
	}
	return counts, t, nil
}

func medianLayers(ls []layerTimes) layerTimes {
	field := func(f func(layerTimes) time.Duration) time.Duration {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = float64(f(l))
		}
		return time.Duration(median(xs))
	}
	return layerTimes{
		key:     field(func(l layerTimes) time.Duration { return l.key }),
		prepare: field(func(l layerTimes) time.Duration { return l.prepare }),
		build:   field(func(l layerTimes) time.Duration { return l.build }),
		freeze:  field(func(l layerTimes) time.Duration { return l.freeze }),
		sweep:   field(func(l layerTimes) time.Duration { return l.sweep }),
		pick:    field(func(l layerTimes) time.Duration { return l.pick }),
	}
}

// matchSchedules requires got to hold, block for block, the schedule
// the measured engine produced. For the replay this is what makes the
// layer table describe the path the engine actually ran.
func matchSchedules(rep *report, what string, blocks []*block.Block, got, want []schedule) {
	for i := range blocks {
		rep.check(got[i].cycles == want[i].cycles && slices.Equal(got[i].order, want[i].order),
			"%s: block %s differs from the engine's schedule", what, blocks[i].Name)
	}
}

// addStats accumulates the counters of one engine.Stats into another.
func addStats(dst, src *engine.Stats) {
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.DiskHits += src.DiskHits
	dst.DegradedBlocks += src.DegradedBlocks
	dst.GateFailures += src.GateFailures
	dst.PackedSelBlocks += src.PackedSelBlocks
}

// engineMetrics reports the engine's own counters from its Stats.
func engineMetrics(rep *report, st *engine.Stats) {
	rep.set("engine.cache_hits", float64(st.CacheHits), "count")
	rep.set("engine.cache_misses", float64(st.CacheMisses), "count")
	rep.set("engine.disk_hits", float64(st.DiskHits), "count")
	hitRate := 0.0
	if total := st.CacheHits + st.DiskHits + st.CacheMisses; total > 0 {
		hitRate = float64(st.CacheHits+st.DiskHits) / float64(total)
	}
	rep.set("engine.hit_rate", hitRate, "fraction")
	rep.set("engine.degraded_blocks", float64(st.DegradedBlocks), "count")
	rep.set("engine.gate_failures", float64(st.GateFailures), "count")
	rep.set("engine.packed_sel_blocks", float64(st.PackedSelBlocks), "count")
}
