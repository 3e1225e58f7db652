// Command moppaper regenerates every table and figure of the paper's
// evaluation, in order, printing each as a text table. This is the
// one-shot reproduction harness behind EXPERIMENTS.md.
//
// Usage:
//
//	moppaper -insts 1000000            # full suite (takes a few minutes)
//	moppaper -only fig14,fig16
//	moppaper -only gap -bench gzip,mcf,vortex -gap-budget 50000
//	moppaper -journal paper.journal    # crash-safe: re-run resumes the sweep
//	moppaper -journal paper.journal -from-journal   # render without simulating
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"macroop/internal/config"
	"macroop/internal/experiments"
	"macroop/internal/journal"
	"macroop/internal/optsched"
	"macroop/internal/stats"
)

// exp is one registered experiment. The suite slice below is the single
// source of truth: the -only flag's help text and key matching are both
// derived from it, so adding an experiment here is the whole change —
// the flag documentation cannot drift.
type exp struct {
	key string
	run func(r *experiments.Runner) (*stats.Table, error)
}

// Gap knobs (the "gap" experiment only; zero values take the
// optsched defaults: 32-uop windows, 8 windows/bench, 200k nodes).
var (
	gapWindow = flag.Int("gap-window", 0, "gap: uop window size, 4..64 (0 = default 32)")
	gapStride = flag.Int("gap-stride", 0, "gap: start-to-start window distance (0 = window size)")
	gapCount  = flag.Int("gap-max-windows", 0, "gap: windows per benchmark (0 = default 8)")
	gapBudget = flag.Int64("gap-budget", 0, "gap: branch-and-bound node budget per window (0 = default 200000)")
)

var suite = []exp{
	{"table1", func(*experiments.Runner) (*stats.Table, error) { return experiments.Table1(), nil }},
	{"table2", (*experiments.Runner).Table2},
	{"fig6", (*experiments.Runner).Figure6},
	{"fig7", (*experiments.Runner).Figure7},
	{"fig13", (*experiments.Runner).Figure13},
	{"fig14", (*experiments.Runner).Figure14},
	{"fig15", (*experiments.Runner).Figure15},
	{"fig16", (*experiments.Runner).Figure16},
	{"delay", (*experiments.Runner).DetectionDelay},
	{"lastarrive", (*experiments.Runner).LastArriving},
	{"indep", (*experiments.Runner).IndependentMOPs},
	{"mopsize", (*experiments.Runner).MOPSize},
	{"heuristic", (*experiments.Runner).HeuristicCoverage},
	{"qsweep", func(r *experiments.Runner) (*stats.Table, error) { return r.QueueSweep("gap") }},
	{"wsweep", func(r *experiments.Runner) (*stats.Table, error) { return r.WidthSweep("gap") }},
	{"gap", runGapTable},
}

// runGapTable runs the scheduler-vs-optimum oracle over the runner's
// benchmark set on the paper's Table 1 machine and renders the gap
// table. Unlike the simulation experiments it needs no instruction
// budget: the oracle works on extracted instruction windows. Any
// violation fails the run: it means the kernel issued a uop before its
// producer completed, or the oracle exceeded a kernel schedule.
func runGapTable(r *experiments.Runner) (*stats.Table, error) {
	spec := optsched.GapSpec{
		Window:     *gapWindow,
		Stride:     *gapStride,
		MaxWindows: *gapCount,
		NodeBudget: *gapBudget,
	}
	rep, err := r.Gap(context.Background(), nil, config.Default(), spec)
	if err != nil {
		return nil, err
	}
	t := experiments.GapTable(rep)
	if v := rep.Violations(); v > 0 {
		return t, fmt.Errorf("gap: %d admissibility violation(s) — a kernel schedule is infeasible or the oracle exceeded one", v)
	}
	return t, nil
}

// suiteKeys renders the registered experiment keys for the -only help.
func suiteKeys() string {
	keys := make([]string, len(suite))
	for i, e := range suite {
		keys[i] = e.key
	}
	return strings.Join(keys, ",")
}

func main() {
	var (
		insts   = flag.Int64("insts", 1_000_000, "committed instructions per simulation")
		only    = flag.String("only", "", "comma-separated subset: "+suiteKeys())
		bench   = flag.String("bench", "", "comma-separated benchmark subset (default: all 12)")
		check   = flag.Bool("check", false, "attach the lockstep differential oracle to every simulation (slower; any divergence fails that cell)")
		timeout = flag.Duration("cell-timeout", 0, "wall-clock limit per simulation cell (0 = none); a timed-out cell renders as zeros and is reported")
		jpath   = flag.String("journal", "", "write-ahead journal: every finished cell is durably recorded as it completes, and a re-run over the same journal skips recorded cells (crash-safe resume)")
		fromJ   = flag.Bool("from-journal", false, "render from the journal without simulating; cells the sweep never completed render as zeros and are reported as missing")
	)
	flag.Parse()

	r := experiments.NewRunner(*insts)
	r.Check = *check
	r.CellTimeout = *timeout
	if *jpath != "" {
		j, err := journal.Open(*jpath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "moppaper: journal: %v\n", err)
			os.Exit(1)
		}
		defer j.Close()
		r.Journal = j
		r.JournalOnly = *fromJ
	} else if *fromJ {
		fmt.Fprintln(os.Stderr, "moppaper: -from-journal requires -journal")
		os.Exit(1)
	}
	if *bench != "" {
		r.Benchmarks = strings.Split(*bench, ",")
	}
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k = strings.TrimSpace(k); k != "" {
			if !knownKey(k) {
				fmt.Fprintf(os.Stderr, "moppaper: unknown experiment %q (want one of: %s)\n", k, suiteKeys())
				os.Exit(2)
			}
			want[k] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	failures := 0
	for _, e := range suite {
		if !sel(e.key) {
			continue
		}
		start := time.Now()
		t, err := e.run(r)
		if t != nil {
			fmt.Println(t)
			fmt.Printf("(%s in %.1fs)\n\n", e.key, time.Since(start).Seconds())
		}
		if err != nil {
			// Failed cells render as zero rows above; say which and why
			// instead of discarding the experiments that did succeed.
			fmt.Fprintf(os.Stderr, "moppaper: %s: %v\n", e.key, err)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "moppaper: %d experiment(s) had failures\n", failures)
		os.Exit(1)
	}
}

// knownKey reports whether k names a registered experiment.
func knownKey(k string) bool {
	for _, e := range suite {
		if e.key == k {
			return true
		}
	}
	return false
}
