// Command rmeperf is the repository's benchmark. It drives the rme
// library through its public API on one of four keyed workloads, checks
// the library's outputs from outside, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as one JSON line:
//
//	go run . --workload uniform --seed 1 --seconds 10 --trace 0
//
// Human-readable metric lines, with units and sample counts, go to
// standard error. BENCHMARK.json at the repository root lists the
// workloads and metrics; workloads.go says why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics with their sample counts.
type report struct {
	order []string
	m     map[string]metric
	n     map[string]int
}

func newReport() *report { return &report{m: map[string]metric{}, n: map[string]int{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	if _, ok := r.m[name]; !ok {
		r.order = append(r.order, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	r.n[name] = n
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "workload: uniform, hot, async-open or recover")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "measurement time, seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := flag.String("trace-out", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	sp := specByName(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "rmeperf: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "rmeperf: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	// A wedged library must not hang the benchmark: give up well inside
	// the run's time limit.
	watchdog := time.AfterFunc(3*budget+60*time.Second, func() {
		fmt.Fprintln(os.Stderr, "rmeperf: run did not finish; the library is wedged")
		os.Exit(3)
	})
	defer watchdog.Stop()

	r := newRun(sp, *seed, budget, *trace == 1)
	if r.trace {
		r.traced()
	} else {
		r.endToEnd()
	}
	if r.trace && *traceOut != "" {
		path := fmt.Sprintf("%s/%s.spans", *traceOut, sp.name)
		if err := writeSpans(path, r.spans); err != nil {
			fmt.Fprintf(os.Stderr, "rmeperf: writing spans: %v\n", err)
			return 1
		}
	}

	for _, name := range r.rep.order {
		m := r.rep.m[name]
		fmt.Fprintf(os.Stderr, "%-10s %-28s %14.6g %-6s n=%d\n", sp.name, name, m.Value, m.Unit, r.rep.n[name])
	}
	fmt.Fprintf(os.Stderr, "%-10s %-28s %14.6g %-6s attempted=%d failed=%d\n", sp.name, "failed_frac",
		float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted, r.failed)
	refErr := r.ref.err()
	if refErr != nil {
		fmt.Fprintf(os.Stderr, "rmeperf: %v\n", refErr)
	}
	if r.invalid != "" {
		fmt.Fprintf(os.Stderr, "rmeperf: run invalid: %s\n", r.invalid)
	}
	out, err := json.Marshal(result{Correct: refErr == nil, Attempted: max(r.attempted, 1),
		Failed: r.failed, Metrics: r.rep.m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmeperf: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if refErr != nil || r.invalid != "" {
		return 1
	}
	return 0
}

// nproc is the load goroutine count of the multi-worker phases: one per
// core, but no more than the table has ports, since the bare backend
// rungs give each worker a port of its own.
func (r *run) nproc() int { return min(runtime.GOMAXPROCS(0), r.sp.ports) }
