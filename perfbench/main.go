// Command perfbench is the repository's benchmark. It measures the two
// end-to-end paths of the simulator: a paper sweep (Table 2 and Figure 15
// matrices of benchmark × scheduler cells) and a mopserve matrix request
// from submit to last cell, in process, with tracing off. A separate
// traced run (--trace 1) prints the per-layer metrics, the layer self
// times, and writes its spans as a Chrome trace-event file.
//
// Every simulated result is checked: the timed runs' simulated statistics
// must equal a checked run's of the same cell, and checksums must agree
// across the configs of one benchmark. The last line of output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload sweep-fig15 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// params are one workload run's settings.
type params struct {
	workload string
	seed     uint64
	seconds  time.Duration
	insts    int64 // instruction budget per cell
	workers  int   // simulation workers (the service's pool on serve-mixed)
	setups   int   // setups per run; setup_s is their median
	serve    serveParams
}

// workloadDef is one named workload and why the benchmark has it.
type workloadDef struct {
	name, why string
	insts     int64
	run       func(p params, tr *tracer) (*report, error)
}

// The sweeps run 120k instructions per cell, the budget of BENCH_core.json's
// table2 section. From there on a cell's host time per instruction is
// within a few percent of a 400k- or 1M-instruction cell's (the budgets of
// mopbench and moppaper), and its stage shares are close; shorter cells
// still run each program's cold start and cost about a fifth more per
// instruction. serve-mixed runs the service's default budget.
var workloads = []workloadDef{
	{
		name:  "sweep-table2",
		why:   "Table 2's unchecked base matrix at 32-entry and unrestricted queues: no MOP work, the control for mop or insert changes, widest scheduler window",
		insts: 120_000,
		run:   func(p params, tr *tracer) (*report, error) { return runSweep(p, table2Configs(), tr) },
	},
	{
		name:  "sweep-fig15",
		why:   "Figure 15's unchecked eight-config matrix, the paper's headline: six configs run MOP detection and formation, and each program streams eight times",
		insts: 120_000,
		run:   func(p params, tr *tracer) (*report, error) { return runSweep(p, fig15Configs(), tr) },
	},
	{
		name:  "serve-mixed",
		why:   "in-process mopserve: closed-loop matrix requests with seeded repeats beside open-loop cache-hit reads; the only path with checker, journal, queue and cache",
		insts: 200_000,
		run:   runServe,
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sweep-table2, sweep-fig15, serve-mixed, or all (each in turn, in this process)")
	seed := fs.Uint64("seed", 1, "workload seed: sweeps fold it into every profile seed; serve-mixed draws its requests from it")
	seconds := fs.Int("seconds", 10, "measured seconds per workload")
	traced := fs.Int("trace", 0, "1 makes the traced run: per-layer metrics, layer self times and a Chrome trace file")
	traceOut := fs.String("trace-out", "", "trace file (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	var defs []workloadDef
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			defs = append(defs, w)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}

	base := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, workers: runtime.NumCPU(), setups: 7, serve: defaultServe}
	out, err := bench(defs, base, *traced == 1, *traceOut, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs each workload in turn with the settings of base and returns
// the result line. With more than one workload, metric names carry the
// workload as a prefix.
func bench(defs []workloadDef, base params, traced bool, traceOut string, stdout io.Writer) (result, error) {
	out := result{Metrics: map[string]metric{}}
	for _, w := range defs {
		p := base
		p.workload, p.insts = w.name, w.insts
		path := traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, p.seed))
		}
		r, err := measure(w, p, traced, path, stdout)
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.name, err)
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		prefix := ""
		if len(defs) > 1 {
			prefix = w.name + ":"
		}
		for _, d := range jsonDefs(traced) {
			out.Metrics[prefix+d.name] = metric{Value: r.values[d.name], Unit: d.unit}
		}
	}
	out.Correct = out.Failed == 0
	return out, nil
}

// jsonDefs are the metrics of the last line: the end-to-end metrics of
// BENCHMARK.json untraced, its per-layer metrics traced.
func jsonDefs(traced bool) []metricDef {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var out []metricDef
	for _, d := range defs {
		if d.inJSON {
			out = append(out, d)
		}
	}
	return out
}

// measure runs one workload and prints its report.
func measure(w workloadDef, p params, traced bool, tracePath string, stdout io.Writer) (*report, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r, err := w.run(p, tr)
	if err != nil {
		return nil, err
	}
	mem, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("mem_peak_mb", mem, "peak RSS")
	r.set("failed_frac", ratio(float64(r.failed), float64(r.attempted)), fmt.Sprintf("%d of %d", r.failed, r.attempted))
	for _, d := range jsonDefs(traced) {
		if _, ok := r.values[d.name]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
	}

	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%.0f insts/cell=%d workers=%d trace=%v\n",
		p.workload, p.seed, p.seconds.Seconds(), p.insts, p.workers, traced)
	title := "end-to-end (tracing off)"
	if traced {
		title = "end-to-end (untraced half of the traced run)"
	}
	printTable(stdout, title, r, endToEnd)
	for _, l := range r.info {
		fmt.Fprintf(stdout, "  %s\n", l)
	}
	if traced {
		printTable(stdout, "per-layer", r, perLayer)
		printSelfTimes(stdout, tr)
		if err := tr.writeChrome(tracePath); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", tracePath)
	}
	for _, pr := range r.problems {
		fmt.Fprintf(stdout, "FAILED: %s\n", pr)
	}
	return r, nil
}
