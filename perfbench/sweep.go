package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/program"
	"macroop/internal/workload"
)

// namedConfig is one column of a paper matrix.
type namedConfig struct {
	name string
	m    config.Machine
}

// table2Configs is Table 2's matrix: the base scheduler at a 32-entry
// and at an unrestricted issue queue.
func table2Configs() []namedConfig {
	return []namedConfig{
		{"iq32", config.Default().WithSched(config.SchedBase)},
		{"unres", config.Unrestricted().WithSched(config.SchedBase)},
	}
}

// fig15Configs is Figure 15's matrix at a 32-entry issue queue: base,
// 2-cycle, and macro-op scheduling with 2-source or wired-OR wakeup at 0,
// 1 or 2 extra formation stages.
func fig15Configs() []namedConfig {
	cfgs := []namedConfig{
		{"base", config.Default().WithSched(config.SchedBase)},
		{"2-cycle", config.Default().WithSched(config.SchedTwoCycle)},
	}
	for _, w := range []config.WakeupStyle{config.WakeupCAM2Src, config.WakeupWiredOR} {
		for stages := 0; stages <= 2; stages++ {
			mc := config.DefaultMOP()
			mc.Wakeup = w
			mc.ExtraFormationStages = stages
			cfgs = append(cfgs, namedConfig{fmt.Sprintf("MOP-%s+%d", w, stages), config.Default().WithIQ(32).WithMOP(mc)})
		}
	}
	return cfgs
}

// sweepCells lays the matrix out benchmark-major in the paper's order.
func sweepCells(progs map[string]*program.Program, cfgs []namedConfig, insts int64) []simCell {
	var cells []simCell
	for _, b := range workload.Names() {
		for _, c := range cfgs {
			cells = append(cells, simCell{bench: b, cfg: c.name, m: c.m, prog: progs[b], insts: insts})
		}
	}
	return cells
}

// pass is one unchecked run of every cell of a matrix.
type pass struct {
	wall      time.Duration
	cellNS    []float64 // core.New plus Core.Run, by cell
	runNS     []float64 // Core.Run alone, by cell
	stats     []cellStats
	errs      []error
	committed int64
}

// runPass simulates every cell once from a fresh core at instruction 0,
// with workers pulling cells in order, as Runner.RunMatrix does for an
// unchecked sweep. Spans go to tr under parent when tracing.
func runPass(cells []simCell, workers int, tr *tracer, parent int64) *pass {
	p := &pass{
		cellNS: make([]float64, len(cells)), runNS: make([]float64, len(cells)),
		stats: make([]cellStats, len(cells)), errs: make([]error, len(cells)),
	}
	ps := tr.begin("matrix", parent, trackMain)
	start := time.Now()
	forEach(len(cells), workers, func(i, track int) { p.runCell(i, cells[i], tr, ps.id, track) })
	p.wall = time.Since(start)
	for i, s := range p.stats {
		if p.errs[i] == nil {
			p.committed += s.Committed
		}
	}
	ps.end(map[string]any{"cells": len(cells)})
	return p
}

// forEach calls f for every index below n from workers goroutines that
// take the indices in order, as Runner.RunMatrix's workers take cells.
// track is the calling worker's trace track.
func forEach(n, workers int, f func(i, track int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i, track)
			}
		}(trackWorker + w)
	}
	wg.Wait()
}

func (p *pass) runCell(i int, c simCell, tr *tracer, parent int64, track int) {
	cs := tr.begin("cell", parent, track)
	t0 := time.Now()
	k, err := core.New(c.m, c.prog)
	if err != nil {
		p.errs[i] = err
		cs.end(map[string]any{"benchmark": c.bench, "config": c.cfg, "error": err.Error()})
		return
	}
	rs := tr.begin("core.Run", cs.id, track)
	t1 := time.Now()
	res, err := k.Run(c.insts)
	t2 := time.Now()
	rs.end(nil)
	p.cellNS[i], p.runNS[i] = float64(t2.Sub(t0)), float64(t2.Sub(t1))
	if err != nil {
		p.errs[i] = fmt.Errorf("%s/%s: %w", c.bench, c.cfg, err)
		cs.end(map[string]any{"benchmark": c.bench, "config": c.cfg, "error": err.Error()})
		return
	}
	p.stats[i] = statsOf(res)
	cs.end(map[string]any{"benchmark": c.bench, "config": c.cfg, "cycles": res.Cycles, "committed": res.Committed})
}

// sweepSetup generates the seeded suite p.setups times and reports the
// median time of one setup. The last suite is the one the run uses.
func sweepSetup(p params, tr *tracer, parent int64) (map[string]*program.Program, []float64, error) {
	var progs map[string]*program.Program
	var times []float64
	for i := 0; i < p.setups; i++ {
		ss := tr.begin("setup", parent, trackMain)
		var err error
		var d time.Duration
		progs, d, err = generateSuite(splitmix(p.seed), tr, ss.id)
		ss.end(nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return progs, times, nil
}

// runSweep measures one paper matrix. Untraced, it repeats whole passes
// for p.seconds and reports the end-to-end metrics. Traced, it measures
// passes untraced for half the time, repeats the same number of passes
// with spans on, and then probes every cell's layers once.
func runSweep(p params, cfgs []namedConfig, tr *tracer) (*report, error) {
	r := newReport()
	root := tr.begin("workload:"+p.workload, 0, trackMain)
	defer root.end(map[string]any{"seed": p.seed, "insts": p.insts})

	progs, setupS, err := sweepSetup(p, tr, root.id)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", median(setupS), fmt.Sprintf("median of %d", len(setupS)))
	cells := sweepCells(progs, cfgs, p.insts)

	runPass(cells, p.workers, nil, 0) // warm-up: heap growth and first-touch page faults stay out of the window
	window := p.seconds
	if tr != nil {
		window /= 2
	}
	g0 := readGo()
	var passes []*pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < window {
		passes = append(passes, runPass(cells, p.workers, nil, 0))
	}
	g1 := readGo()
	uops := reportPasses(r, passes)
	if tr == nil {
		sweepGate(r, cells, passes, checkAll(r, cells, p.workers))
		return r, nil
	}

	// Traced half: the same passes with spans, then the layer probes.
	g0.reportUntil(r, g1, uops)
	traced := make([]*pass, len(passes))
	for i := range traced {
		traced[i] = runPass(cells, p.workers, tr, root.id)
	}
	r.set("trace.overhead_share", sum(wallsOf(traced))/sum(wallsOf(passes))-1, fmt.Sprintf("%d passes each", len(passes)))

	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probe, err := probeCells(cells, p.workers, dir, tr, root.id)
	if err != nil {
		return nil, err
	}
	all := append(passes, traced...)
	var cellNS, runNS, allUops float64
	for _, ps := range passes {
		cellNS += sum(ps.cellNS)
	}
	for _, ps := range all {
		runNS += sum(ps.runNS)
		allUops += float64(ps.committed)
	}
	perPass := cellNS / float64(len(passes)) // unchecked core.New plus Core.Run over one pass
	var cycles float64
	var tot simTotals
	for _, s := range passes[0].stats {
		tot.add(s)
		cycles += float64(s.Cycles)
	}
	r.set("workload.generate_s", median(setupS), "median of setups")
	r.set("core.ns_per_uop", runNS/allUops, "")
	r.set("core.ns_per_cycle", runNS/(cycles*float64(len(all))), "")
	r.set("experiments.parallel_eff", cellNS/(sum(wallsOf(passes))*1e9*float64(p.workers)), fmt.Sprintf("%d workers", p.workers))
	tot.report(r)
	probe.report(r, perPass, median(setupS)*1e9)
	for _, err := range probe.errs {
		r.fail("probe: %v", err)
	}
	sweepGate(r, cells, all, probe.checked)
	return r, nil
}

func wallsOf(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// reportPasses sets the end-to-end metrics of a window of passes and
// returns the instructions they committed.
func reportPasses(r *report, passes []*pass) float64 {
	var uops float64
	for _, p := range passes {
		uops += float64(p.committed)
	}
	walls := wallsOf(passes)
	r.set("uops_per_s", uops/sum(walls), fmt.Sprintf("%d passes", len(passes)))
	r.setDist("matrix_s", walls)
	return uops
}

// checkAll makes the gate's reference: a checked run of every cell,
// after the timed window, on the sweep's workers.
func checkAll(r *report, cells []simCell, workers int) []checked {
	ref := make([]checked, len(cells))
	errs := make([]error, len(cells))
	forEach(len(cells), workers, func(i, _ int) { ref[i], errs[i] = runChecked(cells[i]) })
	for _, err := range errs {
		if err != nil {
			r.fail("%v", err)
		}
	}
	return ref
}

// sweepGate is the correctness gate. Every timed cell's statistics must
// equal a checked run's of the same cell in ref, and a benchmark's
// checksum must be the same under every config.
func sweepGate(r *report, cells []simCell, passes []*pass, ref []checked) {
	r.attempted += len(cells)
	for _, p := range passes {
		r.attempted += len(cells)
		for i, c := range cells {
			if p.errs[i] != nil {
				r.fail("%v", p.errs[i])
				continue
			}
			mismatch(r, c, "timed", p.stats[i], "checked", ref[i].stats)
		}
	}
	checksumGate(r, cells, ref)
}

// mismatch fails the cell when two runs of it disagree on a simulated
// statistic.
func mismatch(r *report, c simCell, gotName string, got cellStats, wantName string, want cellStats) {
	if got != want {
		r.fail("%s/%s: %s %+v, %s %+v", c.bench, c.cfg, gotName, got, wantName, want)
	}
}

// checksumGate fails every checked cell whose architectural checksum
// differs from its benchmark's first config: schedulers change when
// instructions execute, never what they compute.
func checksumGate(r *report, cells []simCell, ref []checked) {
	first := map[string]uint64{}
	for i, c := range cells {
		if ref[i].commits == 0 {
			continue // the checked run itself failed and is already counted
		}
		want, ok := first[c.bench]
		if !ok {
			first[c.bench] = ref[i].checksum
			continue
		}
		if ref[i].checksum != want {
			r.fail("%s/%s: checksum %016x, other configs %016x", c.bench, c.cfg, ref[i].checksum, want)
		}
	}
}
