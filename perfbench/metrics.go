package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricDef describes one metric: the unit it is printed in, which way is
// better, the workloads it is measured on, and (for per-layer metrics) the
// end-to-end metric and workload it should move. inJSON marks the metrics
// listed in BENCHMARK.json, which every workload prints in its last line;
// the rest exist on one workload only or read 0 when all is well, so they
// are printed in the report above it.
type metricDef struct {
	name, unit, better string
	on                 string
	moves              string
	inJSON             bool
}

const (
	allWorkloads = "all"
	serveOnly    = "serve-mixed"
)

// endToEnd are measured with tracing off.
var endToEnd = []metricDef{
	{"uops_per_s", "uops/s", "higher", allWorkloads, "", true},
	{"setup_s", "s", "lower", allWorkloads, "", true},
	{"mem_peak_mb", "MB", "lower", allWorkloads, "", false},
	{"matrix_s.p50", "s", "lower", allWorkloads, "", true},
	{"matrix_s.tail", "s", "lower", allWorkloads, "", true},
	{"failed_frac", "ratio", "lower", allWorkloads, "", false},
	{"hit_ms.p50", "ms", "lower", serveOnly, "", false},
	{"hit_ms.tail", "ms", "lower", serveOnly, "", false},
}

// perLayer are measured by the traced run.
var perLayer = []metricDef{
	{"workload.generate_s", "s", "lower", allWorkloads, "setup_s on all workloads", true},
	{"functional.ns_per_inst", "ns", "lower", allWorkloads, "uops_per_s, sweep-fig15 more than sweep-table2", true},
	{"cell.invariant_share", "ratio", "lower", allWorkloads, "uops_per_s on sweep-fig15", true},
	{"core.ns_per_uop", "ns", "lower", allWorkloads, "uops_per_s on all workloads", true},
	{"core.ns_per_cycle", "ns", "lower", allWorkloads, "uops_per_s on all workloads", true},
	{"core.fetch_share", "ratio", "lower", allWorkloads, "uops_per_s on all workloads", true},
	{"core.insert_share", "ratio", "lower", allWorkloads, "uops_per_s on sweep-fig15; little or none on sweep-table2", true},
	{"core.sched_share", "ratio", "lower", allWorkloads, "uops_per_s on all workloads; widest window on sweep-table2", true},
	{"core.execute_share", "ratio", "lower", allWorkloads, "uops_per_s on all workloads", true},
	{"core.commit_share", "ratio", "lower", allWorkloads, "uops_per_s on all workloads", true},
	{"sim.cycles", "cycles", "lower", allWorkloads, "none; must stay identical under a simulator-only speed-up", true},
	{"sched.replay_ratio", "ratio", "lower", allWorkloads, "none; must stay identical under a simulator-only speed-up", true},
	{"mop.grouped_frac", "ratio", "higher", allWorkloads, "none; must stay identical under a simulator-only speed-up", true},
	{"checker.ns_per_uop", "ns", "lower", allWorkloads, "matrix_s.* and uops_per_s on serve-mixed", true},
	{"checker.share", "ratio", "lower", allWorkloads, "matrix_s.* and uops_per_s on serve-mixed", true},
	{"experiments.parallel_eff", "ratio", "higher", allWorkloads, "uops_per_s on both sweeps", true},
	{"journal.append_ms.p50", "ms", "lower", allWorkloads, "matrix_s.* on serve-mixed", true},
	{"journal.append_ms.tail", "ms", "lower", allWorkloads, "matrix_s.* on serve-mixed", true},
	{"go.alloc_bytes_per_uop", "B/uop", "lower", allWorkloads, "uops_per_s and mem_peak_mb on all workloads", true},
	{"go.gc_cpu_share", "ratio", "lower", allWorkloads, "uops_per_s on all workloads", true},
	{"trace.overhead_share", "ratio", "lower", allWorkloads, "none", true},
	{"service.admit_ms.p50", "ms", "lower", serveOnly, "matrix_s.* on serve-mixed", false},
	{"service.queue_ms.p50", "ms", "lower", serveOnly, "matrix_s.* on serve-mixed", false},
	{"service.queue_ms.tail", "ms", "lower", serveOnly, "matrix_s.* on serve-mixed", false},
	{"service.hit_queue_ms.tail", "ms", "lower", serveOnly, "hit_ms.tail on serve-mixed", false},
	{"service.cell_ms.p50", "ms", "lower", serveOnly, "matrix_s.* on serve-mixed", false},
	{"service.cell_ms.tail", "ms", "lower", serveOnly, "matrix_s.* on serve-mixed", false},
	{"service.hit_ratio", "ratio", "higher", serveOnly, "matrix_s.* and uops_per_s on serve-mixed", false},
	{"service.executions", "count", "lower", serveOnly, "none; must equal the distinct cells the seeded mix asked for", false},
}

// report is one workload run's measurements.
type report struct {
	values    map[string]float64
	notes     map[string]string // sample counts and chosen percentiles
	attempted int
	failed    int
	problems  []string // first few correctness failures, for the log
	info      []string // further lines for the log
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setDist records a sample distribution as name.p50 and name.tail.
func (r *report) setDist(name string, xs []float64) {
	p50, n := quantile(xs, 50), len(xs)
	tp, tv := tail(xs)
	r.set(name+".p50", p50, fmt.Sprintf("n=%d", n))
	r.set(name+".tail", tv, fmt.Sprintf("p%s of n=%d", strconv.FormatFloat(tp, 'f', -1, 64), n))
}

// fail counts one failed operation and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// tailPercentiles are the candidates for a distribution's tail: 99.9,
// then every whole percentile from 99 down to 50.
var tailPercentiles = func() []float64 {
	ps := []float64{99.9}
	for p := 99; p >= 50; p-- {
		ps = append(ps, float64(p))
	}
	return ps
}()

// quantile is the nearest-rank p-th percentile of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tail is the highest candidate percentile with at least ten samples
// beyond it; with fewer than twenty samples that is none, and the median
// stands in.
func tail(xs []float64) (p, v float64) {
	for _, p := range tailPercentiles {
		if len(xs)-rank(len(xs), p) >= 10 {
			return p, quantile(xs, p)
		}
	}
	return 50, quantile(xs, 50)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 { return quantile(xs, 50) }

// peakRSSMB is the process's resident-set high-water mark. A process
// that runs several workloads reports the peak of all of them so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// printTable prints every metric of defs the report holds, with its unit,
// and for per-layer metrics what it should move.
func printTable(w io.Writer, title string, r *report, defs []metricDef) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-26s %16s %-7s %-16s", d.name, formatValue(v), d.unit, r.notes[d.name])
		if d.moves != "" {
			line += "  moves: " + d.moves
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0 || a >= 1e4:
		return strconv.FormatFloat(v, 'f', 1, 64)
	case a >= 1:
		return strconv.FormatFloat(v, 'f', 4, 64)
	default:
		return strconv.FormatFloat(v, 'g', 5, 64)
	}
}
