package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"macroop/internal/config"
	"macroop/internal/optsched"
	"macroop/internal/simerr"
	"macroop/internal/stats"
)

// GapReport is the scheduler-vs-optimum gap result over a benchmark set:
// per benchmark, the exact (or certified-bound) window cycles next to
// each scheduling model's kernel replay of the identical windows. It is
// the JSON-serializable unit the gap endpoint caches and journals.
type GapReport struct {
	Spec    optsched.GapSpec    `json:"spec"`
	Machine string              `json:"machine"` // short label, e.g. "table1"
	Benches []optsched.BenchGap `json:"benches"`
}

// Violations sums admissibility violations across all benchmarks; any
// non-zero value means the oracle is broken and the report untrustworthy.
func (rep *GapReport) Violations() int {
	n := 0
	for _, b := range rep.Benches {
		n += b.Violations
	}
	return n
}

// OptimalWindows sums proven-optimal windows across benchmarks.
func (rep *GapReport) OptimalWindows() (optimal, total int) {
	for _, b := range rep.Benches {
		optimal += b.OptimalWindows
		total += b.Windows
	}
	return optimal, total
}

// gapModelVersion identifies the scheduling model behind a gap report:
// the window model, the kernel replay and the solver. Bump it whenever
// optsched or the scheduler kernel changes what a report contains, so
// journaled reports from older code re-run instead of being served.
const gapModelVersion = "kernel-replay-1"

// GapFingerprint is the content identity of a gap report: a stable hash
// over the model version, the benchmark list, the machine configuration,
// and the resolved gap spec — everything that determines the result. The
// service keys its gap cache and journal records on it.
func GapFingerprint(benchmarks []string, m config.Machine, spec optsched.GapSpec) string {
	spec = spec.WithDefaults()
	cfgJSON, err := json.Marshal(m)
	if err != nil {
		cfgJSON = []byte(fmt.Sprintf("%+v", m))
	}
	return simerr.Fingerprint("gap", gapModelVersion, fmt.Sprint(benchmarks), string(cfgJSON),
		fmt.Sprint(spec.Window), fmt.Sprint(spec.Stride), fmt.Sprint(spec.MaxWindows), fmt.Sprint(spec.NodeBudget))
}

// Gap runs the gap pipeline over a benchmark set in parallel: per
// benchmark, extract windows under the machine's window model, replay
// every model in optsched.Models on the production scheduler kernel, and
// solve each window exactly. An empty benches falls back to the runner's
// configured set. Benchmarks are independent, so they fan out under the
// runner's concurrency cap. The explicit parameter (rather than mutating
// r.Benchmarks) lets a long-lived service share one runner — and its
// per-benchmark program futures — across concurrent gap requests.
func (r *Runner) Gap(ctx context.Context, benches []string, m config.Machine, spec optsched.GapSpec) (*GapReport, error) {
	spec = spec.WithDefaults()
	if len(benches) == 0 {
		benches = r.benchmarks()
	}
	rep := &GapReport{Spec: spec, Machine: "table1", Benches: make([]optsched.BenchGap, len(benches))}

	workers := r.Concurrency
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, bench string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p, err := r.Program(bench)
			if err != nil {
				errs[i] = fmt.Errorf("gap %s: %w", bench, err)
				rep.Benches[i] = optsched.BenchGap{Bench: bench}
				return
			}
			g, err := optsched.RunGap(ctx, p, m, spec)
			if err != nil {
				errs[i] = fmt.Errorf("gap %s: %w", bench, err)
			}
			rep.Benches[i] = g
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// GapTable renders a gap report as the paper-style results table: one
// row per benchmark x scheduling model with the model's window cycles on
// the kernel, the exact optimum (and its certified lower bound), and the
// gap percentage.
func GapTable(rep *GapReport) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Gap report: scheduler vs optimal schedule (%d-uop windows, stride %d, <=%d windows/bench, node budget %d)",
			rep.Spec.Window, rep.Spec.Stride, rep.Spec.MaxWindows, rep.Spec.NodeBudget),
		"benchmark", "scheduler", "cycles", "optimum", "bound", "gap%", "windows", "optimal-windows", "violations")
	for _, b := range rep.Benches {
		for _, m := range optsched.Models {
			t.AddRow(b.Bench, m.String(), b.Heur[m.String()], b.OptCycles, b.BoundCycles,
				b.GapPct(m), b.Windows, b.OptimalWindows, b.Violations)
		}
	}
	return t
}
