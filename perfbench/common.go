package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"

	"daginsched/internal/block"
	"daginsched/internal/machine"
	"daginsched/internal/pipe"
	"daginsched/internal/resource"
	"daginsched/internal/sched"
	"daginsched/internal/synth"
	"daginsched/internal/verify"
)

// corpus is a compile workload's input set: passes reseeded generator
// passes of each named program, one compilation unit per program and
// pass.
type corpus struct {
	names  []string
	passes uint64
}

// The Table 3 programs, split as the paper splits them: the C programs
// are dominated by tiny blocks, the Fortran kernels by large ones
// (fpppp's unwindowed 11750-instruction block included). The pass
// counts make both input sets about 140k instructions, so one timed
// iteration spans tens of milliseconds and a single preemption of the
// host does not decide its time.
var (
	intCorpus = corpus{names: []string{"grep", "regex", "dfa", "cccp"}, passes: 8}
	fpCorpus  = corpus{names: []string{"linpack", "lloops", "tomcatv", "nasa7", "fpppp"}, passes: 3}
)

// memModel is the engine's default memory-disambiguation model; the
// oracle verifies legality under the same one.
const memModel = resource.MemExprModel

// model is the machine every workload schedules for (schedbench's
// default).
func model() *machine.Model { return machine.Pipe1() }

// units generates the input set for a seed: passes seed·passes through
// seed·passes+passes-1 of each program's reseeded generator, so every
// seed is a fresh corpus with the programs' Table 3 shape.
func (c corpus) units(seed uint64) ([][]*block.Block, error) {
	var units [][]*block.Block
	for k := uint64(0); k < c.passes; k++ {
		for _, name := range c.names {
			p, ok := synth.ByName(name)
			if !ok {
				return nil, fmt.Errorf("no synthetic program %q", name)
			}
			units = append(units, p.GeneratePass(seed*c.passes+k))
		}
	}
	return units, nil
}

func countInsts(blocks []*block.Block) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(b.Len())
	}
	return n
}

// schedule is one block's checked output.
type schedule struct {
	order  []int32
	cycles int32
}

// oracle checks one schedule without the engine's code path: the order
// must be a permutation, the pipe scoreboard simulator (which times raw
// def/use information, never DAG arcs) must complete it in exactly the
// claimed cycles, and verify.Schedule must find it legal against its
// own independently built DAG, with the simulator's issue cycles
// respecting every arc delay and the issue width, and with one
// interpreter trial giving program order's final state.
func oracle(b *block.Block, m *machine.Model, s schedule) (err error) {
	n := b.Len()
	if len(s.order) != n {
		return fmt.Errorf("block %s: order has %d of %d instructions", b.Name, len(s.order), n)
	}
	seen := make([]bool, n)
	for _, node := range s.order {
		if node < 0 || int(node) >= n || seen[node] {
			return fmt.Errorf("block %s: order is not a permutation", b.Name)
		}
		seen[node] = true
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("block %s: oracle panicked: %v", b.Name, p)
		}
	}()
	rt := resource.NewTable(memModel)
	rt.PrepareBlock(b.Insts)
	sim := pipe.Simulate(b.Insts, s.order, m, rt)
	if sim.Cycles != s.cycles {
		return fmt.Errorf("block %s: simulator completes in %d cycles, engine claims %d", b.Name, sim.Cycles, s.cycles)
	}
	issue := make([]int32, n)
	for pos, node := range s.order {
		issue[node] = sim.Issue[pos]
	}
	r := &sched.Result{Order: s.order, Issue: issue, Cycles: s.cycles}
	if err := verify.Schedule(b, m, r, memModel, 1); err != nil {
		return fmt.Errorf("block %s: %w", b.Name, err)
	}
	return nil
}

// checkReference runs the oracle over a run's reference schedules,
// one per block, and counts them into rep.
func checkReference(rep *report, blocks []*block.Block, m *machine.Model, ref []schedule) {
	for i, b := range blocks {
		err := oracle(b, m, ref[i])
		rep.check(err == nil, "%v", err)
	}
}

func firstErr(first, err error) error {
	if first != nil {
		return first
	}
	return err
}

// errMismatch describes a timed output that differs from the run's
// oracle-checked reference.
const errMismatch = "output differs from the oracle-checked reference"

// seconds converts durations for reporting.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// median is the middle value of xs (the mean of the middle two for an
// even count), sorting xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
