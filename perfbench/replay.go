package main

import (
	"time"

	"daginsched/internal/block"
	"daginsched/internal/dag"
	"daginsched/internal/engine"
	"daginsched/internal/heur"
	"daginsched/internal/machine"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
)

// replayer re-runs the engine's primary per-block pipeline one public
// call at a time, so each layer can be timed from outside the engine:
// resource.Table.PrepareBlock, then n²-direct construction for blocks
// at or below the engine's crossover (table building when the n² DAG
// is not transitive-free, or above it), CSR freeze on the table path,
// the heuristic sweep, and the scheduler's pick loop. It owns the same
// recycled scratch a single engine worker owns.
type replayer struct {
	m         *machine.Model
	crossover int
	rt        *resource.Table
	ar        dag.BuildArena
	a         *heur.Annot
	sc        sched.Scratch
	sel       *sched.PooledWinnow
}

func newReplayer(m *machine.Model, crossover int) *replayer {
	rt := resource.NewTable(memModel)
	rt.SetUniqueCounting(false) // as the engine's workers do
	return &replayer{
		m: m, crossover: crossover, rt: rt,
		a:   heur.New(nil, m),
		sel: sched.NewPooledWinnow(sched.Section6Ranked()),
	}
}

// layerTimes are per-layer busy times, summed over a replay pass.
type layerTimes struct {
	key, prepare, build, freeze, sweep, pick time.Duration
}

func (t layerTimes) sum() time.Duration {
	return t.key + t.prepare + t.build + t.freeze + t.sweep + t.pick
}

// layerCounts are the exact work counts of a replay pass.
type layerCounts struct {
	insts       int64
	ids         int64 // resources interned (resource.Table.NumResources)
	arcs        int64
	n2, table   int64 // blocks finished on each construction path
	n2Fallbacks int64 // n² attempts that were not transitive-free
	packedExact int64 // blocks whose packed priority was exact
	heap        int64 // blocks picked through the ready heap
}

// lap adds the time since *t to *acc and restarts the clock.
func lap(t *time.Time, acc *time.Duration) {
	now := time.Now()
	*acc += now.Sub(*t)
	*t = now
}

// schedule runs b through the pipeline and returns its order (valid
// until the next call) and cycles. tr is nil on untraced passes.
func (r *replayer) schedule(b *block.Block, tr *layerTimes, c *layerCounts) ([]int32, int32) {
	var t time.Time
	if tr != nil {
		t = time.Now()
	}
	r.rt.PrepareBlock(b.Insts)
	if tr != nil {
		lap(&t, &tr.prepare)
	}
	if n := b.Len(); n > 0 && n <= r.crossover {
		nd, clean := dag.N2Forward{}.BuildCleanInto(&r.ar, b, r.m, r.rt)
		if tr != nil {
			lap(&t, &tr.build)
		}
		if clean {
			r.a.D = nd
			r.a.ComputeBackward()
			r.a.ComputeLocal()
			r.a.PackSection6Prio()
			if tr != nil {
				lap(&t, &tr.sweep)
			}
			res := r.sc.Forward(nd, r.m, r.a, r.sel)
			if tr != nil {
				lap(&t, &tr.pick)
			}
			c.n2++
			r.count(nd, c)
			return res.Order, res.Cycles
		}
		c.n2Fallbacks++
	}
	d := dag.TableBackward{}.BuildInto(&r.ar, b, r.m, r.rt)
	if tr != nil {
		lap(&t, &tr.build)
	}
	d.Freeze()
	if tr != nil {
		lap(&t, &tr.freeze)
	}
	r.a.D = d
	r.a.ComputeFusedCSR()
	if tr != nil {
		lap(&t, &tr.sweep)
	}
	res := r.sc.Forward(d, r.m, r.a, r.sel)
	if tr != nil {
		lap(&t, &tr.pick)
	}
	c.table++
	r.count(d, c)
	return res.Order, res.Cycles
}

func (r *replayer) count(d *dag.DAG, c *layerCounts) {
	c.ids += int64(r.rt.NumResources())
	c.arcs += int64(d.NumArcs)
	if r.a.PrioExact {
		c.packedExact++
	}
	if r.sc.UsedPacked() {
		c.heap++
	}
}

// pass replays every block once. With keyed set it mirrors a cache-on
// engine: every block is fingerprinted with engine.BlockKey and only a
// block whose key was not seen earlier in the pass runs the pipeline,
// the rest reusing the first occurrence's schedule. got receives every
// block's schedule when non-nil.
func (r *replayer) pass(blocks []*block.Block, keyed bool, tr *layerTimes, got []schedule) layerCounts {
	var c layerCounts
	var seen map[uint64]int
	if keyed {
		seen = make(map[uint64]int, len(blocks))
	}
	for i, b := range blocks {
		c.insts += int64(b.Len())
		if keyed {
			var t time.Time
			if tr != nil {
				t = time.Now()
			}
			k := engine.BlockKey(b.Insts)
			if tr != nil {
				lap(&t, &tr.key)
			}
			if first, ok := seen[k]; ok {
				if got != nil {
					got[i] = got[first]
				}
				continue
			}
			seen[k] = i
		}
		order, cycles := r.schedule(b, tr, &c)
		if got != nil {
			got[i] = schedule{order: append(got[i].order[:0], order...), cycles: cycles}
		}
	}
	return c
}

// layerMetrics reports a compile or stream replay: per-layer median
// times per pass, each layer's share of the replay total (the layers
// plus engine.self_s, the Workers:1 engine.Run time the layers do not
// account for), and the pass's work counts.
func layerMetrics(rep *report, tr layerTimes, self time.Duration, c layerCounts) {
	total := (tr.sum() + self).Seconds()
	share := func(d time.Duration) float64 {
		if total <= 0 {
			return 0
		}
		return d.Seconds() / total
	}
	for _, l := range []struct {
		name string
		d    time.Duration
	}{
		{"resource.prepare", tr.prepare}, {"dag.build", tr.build}, {"dag.freeze", tr.freeze},
		{"heur.sweep", tr.sweep}, {"sched.pick", tr.pick}, {"engine.key", tr.key}, {"engine.self", self},
	} {
		rep.set(l.name+"_s", l.d.Seconds(), "s")
		rep.set(l.name+".share", share(l.d), "fraction")
	}
	rep.set("resource.ids", float64(c.ids), "count")
	rep.set("dag.arcs", float64(c.arcs), "count")
	cpi := 0.0
	if c.insts > 0 {
		cpi = float64(c.arcs) / float64(c.insts)
	}
	rep.set("dag.children_per_inst", cpi, "arcs/inst")
	rep.set("dag.n2_blocks", float64(c.n2), "count")
	rep.set("dag.table_blocks", float64(c.table), "count")
	rep.set("dag.n2_fallbacks", float64(c.n2Fallbacks), "count")
	rep.set("heur.packed_exact_blocks", float64(c.packedExact), "count")
	rep.set("sched.heap_blocks", float64(c.heap), "count")
}
