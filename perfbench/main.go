// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload on inputs generated from --seed, checks every
// output against an oracle that does not share the engine's code path,
// and prints as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (throughput,
// latency, capacity, schedule quality, set-up time, memory). With
// --trace 1 a separate run replays the workload's blocks through the
// public functions of each layer, timing every call from outside, and
// reports per-layer time, share and work counts instead.
//
// Workloads:
//
//	compile-int  cache-off engine.Run over the integer Table 3 programs
//	compile-fp   cache-off engine.Run over the floating-point programs
//	serve-warm   schedd's HTTP layer over loopback, warm persistent cache
//	stream-cold  Engine.RunStream into a fresh persistent cache file
//
// Run it through run.py, which builds this package from source first:
//
//	python3 perfbench/run.py --workload compile-int --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// rate is serve-warm's open-loop offered load in requests/s. It is
	// a constant of the benchmark definition, never derived from the
	// run's own measurements, so two commits are loaded identically.
	rate float64
	// workdir holds the run's cache files; it is removed on exit.
	workdir string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// tally counts outputs checked against the oracle.
func (r *report) tally(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// check tallies one checked output; the first failure marks the run
// incorrect and is printed.
func (r *report) check(ok bool, format string, args ...any) {
	r.tally(ok)
	if !ok {
		r.incorrect(format, args...)
	}
}

// incorrect marks the run incorrect, printing the first reason.
func (r *report) incorrect(format string, args ...any) {
	if r.Correct {
		r.Correct = false
		printInfo("error", fmt.Sprintf(format, args...))
	}
}

// addLoad counts a load window's requests: refusals and transport
// errors are failures, and a wrong schedule also fails the run.
func (r *report) addLoad(l loadResult) {
	r.Attempted += l.attempted
	r.Failed += l.attempted - l.ok
	if l.wrong > 0 {
		r.incorrect("%d responses differ from the reference", l.wrong)
	}
}

var workloads = map[string]func(options) (*report, error){
	"compile-int": func(o options) (*report, error) { return runCompile(o, intCorpus) },
	"compile-fp":  func(o options) (*report, error) { return runCompile(o, fpCorpus) },
	"serve-warm":  runServe,
	"stream-cold": runStream,
}

func main() {
	var o options
	var seed int64
	var seconds int
	var trace int
	flag.StringVar(&o.workload, "workload", "", "compile-int, compile-fp, serve-warm or stream-cold")
	flag.Int64Var(&seed, "seed", 1, "input seed (non-negative)")
	flag.IntVar(&seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer replay instead of the end-to-end measurement")
	flag.Float64Var(&o.rate, "rate", 300, "serve-warm open-loop offered rate, requests/s")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for cache files (required)")
	flag.Parse()
	run, ok := workloads[o.workload]
	switch {
	case !ok:
		fail("unknown workload %q", o.workload)
	case seed < 0:
		fail("--seed must be non-negative")
	case seconds < 1:
		fail("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		fail("--trace must be 0 or 1")
	case o.rate <= 0:
		fail("--rate must be positive")
	case o.workdir == "":
		fail("--workdir is required")
	}
	o.seed, o.seconds, o.trace = uint64(seed), time.Duration(seconds)*time.Second, trace == 1
	o.workdir = filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fail("%v", err)
	}
	printInfo("host", hostInfo())
	rep, err := run(o)
	if rmErr := os.RemoveAll(o.workdir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing workdir:", rmErr)
	}
	if err == nil {
		err = checkMetrics(rep, o.trace)
	}
	if err != nil {
		fail("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// printInfo writes one diagnostic line ahead of the result line.
func printInfo(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", fmt.Sprint(v)))
	}
	fmt.Printf("%s: %s\n", tag, b)
}

// hostInfo is the provenance every result carries.
func hostInfo() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}
