package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/experiments"
	"macroop/internal/functional"
	"macroop/internal/journal"
	"macroop/internal/program"
	"macroop/internal/service"
	"macroop/internal/workload"
)

// cellStats are the simulated statistics of one cell. They repeat exactly
// for a cell, so the correctness gate compares them between the timed run
// and a checked run of the same cell.
type cellStats struct {
	Cycles, Committed, Replays, Grants, MOPsFormed, Grouped int64
}

func statsOf(r *core.Result) cellStats {
	return cellStats{
		Cycles: r.Cycles, Committed: r.Committed,
		Replays: r.SchedStats.Replays, Grants: r.SchedStats.Grants,
		MOPsFormed: r.MOPsFormed, Grouped: r.GroupedInsts(),
	}
}

// simTotals accumulates simulated counts into the sim.*, sched.* and mop.*
// metrics.
type simTotals struct{ cycles, committed, replays, grants, grouped int64 }

func (t *simTotals) add(s cellStats) {
	t.cycles += s.Cycles
	t.committed += s.Committed
	t.replays += s.Replays
	t.grants += s.Grants
	t.grouped += s.Grouped
}

func (t *simTotals) report(r *report) {
	r.set("sim.cycles", float64(t.cycles), "")
	r.set("sched.replay_ratio", ratio(float64(t.replays), float64(t.grants)), "")
	r.set("mop.grouped_frac", ratio(float64(t.grouped), float64(t.committed)), "")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simCell is one (benchmark, machine, budget) simulation.
type simCell struct {
	bench, cfg string
	m          config.Machine
	prog       *program.Program
	insts      int64
}

// checked is the outcome of a cell run under the differential checker.
type checked struct {
	stats    cellStats
	checksum uint64
	commits  int64
	res      core.Result // a copy: a *core.Result from Core.Run keeps its whole core reachable
	dur      time.Duration
}

// runChecked runs the cell from a fresh core under the differential
// checker, through checker.CheckedRun as the service does for every cell.
// Hooks never change timing, so its statistics must equal an unchecked
// run's.
func runChecked(c simCell) (checked, error) {
	t0 := time.Now()
	res, summary, err := checker.CheckedRun(c.m, c.prog, c.insts, c.insts)
	if err != nil {
		return checked{}, fmt.Errorf("%s/%s checked: %w", c.bench, c.cfg, err)
	}
	return checked{stats: statsOf(res), checksum: summary.Checksum, commits: summary.Commits, res: *res, dur: time.Since(t0)}, nil
}

// generateSuite generates the twelve benchmark programs, each from its
// profile with seedMix folded into the profile seed (0 keeps the
// profiles' own seeds, which is what the service generates).
func generateSuite(seedMix uint64, tr *tracer, parent int64) (map[string]*program.Program, time.Duration, error) {
	progs := map[string]*program.Program{}
	var total time.Duration
	for _, prof := range workload.Profiles() {
		if seedMix != 0 {
			prof.Seed = splitmix(prof.Seed ^ seedMix)
		}
		sp := tr.begin("workload.Generate", parent, trackMain)
		t0 := time.Now()
		p, err := workload.Generate(prof)
		total += time.Since(t0)
		sp.end(map[string]any{"benchmark": prof.Name})
		if err != nil {
			return nil, 0, fmt.Errorf("generate %s: %w", prof.Name, err)
		}
		progs[prof.Name] = p
	}
	return progs, total, nil
}

// splitmix is the SplitMix64 finalizer, used to spread a workload seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// probeOut is what the layer probes measured over a set of cells.
type probeOut struct {
	checked                []checked // by cell index
	replayNS, replaySteps  float64
	stageNS                float64
	stage                  [5]float64 // fetch, insert, sched, execute, commit: time-weighted
	appendMS               []float64
	checkedNS, checkedUops float64
	errs                   []error
}

// probeCells runs, for every cell, the layer calls the timed passes do
// not isolate: a checked run, a functional replay over the cell's
// committed count, a run with stage accounting on, and a journal append
// of the cell's cellres payload into a journal in dir. Workers share the
// cells as the timed passes do.
func probeCells(cells []simCell, workers int, dir string, tr *tracer, parent int64) (*probeOut, error) {
	jnl, err := journal.Open(filepath.Join(dir, "probe.journal"))
	if err != nil {
		return nil, err
	}
	out := &probeOut{checked: make([]checked, len(cells))}
	var mu sync.Mutex
	forEach(len(cells), workers, func(i, track int) {
		p, err := probeCell(cells[i], jnl, tr, parent, track)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			out.errs = append(out.errs, err)
			return
		}
		out.checked[i] = p.chk
		out.checkedNS += float64(p.chk.dur)
		out.checkedUops += float64(p.chk.stats.Committed)
		out.replayNS += float64(p.replay)
		out.replaySteps += float64(p.steps)
		out.stageNS += float64(p.stageDur)
		for s, f := range p.stageFracs() {
			out.stage[s] += f * float64(p.stageDur)
		}
		out.appendMS = append(out.appendMS, float64(p.appendDur)/1e6)
	})
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

type probed struct {
	chk                         checked
	replay, stageDur, appendDur time.Duration
	steps                       int64
	stage                       core.StageBreakdown
}

func (p probed) stageFracs() [5]float64 {
	b := p.stage
	return [5]float64{b.Fetch, b.Insert, b.Sched, b.Execute, b.Commit}
}

func probeCell(c simCell, jnl *journal.Journal, tr *tracer, parent int64, track int) (probed, error) {
	var p probed
	cs := tr.begin("probe", parent, track)
	defer func() { cs.end(map[string]any{"benchmark": c.bench, "config": c.cfg}) }()

	sp := tr.begin("checker.run", cs.id, track)
	chk, err := runChecked(c)
	sp.end(map[string]any{"cycles": chk.stats.Cycles, "committed": chk.stats.Committed})
	if err != nil {
		return p, err
	}
	p.chk = chk

	// Executor.Step runs once per instruction: one span carries the count
	// and the total time.
	sp = tr.begin("functional.replay", cs.id, track)
	e := functional.NewExecutor(c.prog)
	var d functional.DynInst
	t0 := time.Now()
	for p.steps < chk.stats.Committed {
		if err := e.Step(&d); err != nil {
			break
		}
		p.steps++
	}
	p.replay = time.Since(t0)
	sp.end(map[string]any{"steps": p.steps, "step_ns": float64(p.replay) / float64(max(p.steps, 1))})

	sp = tr.begin("core.stage_run", cs.id, track)
	t0 = time.Now()
	k, err := core.New(c.m, c.prog)
	if err != nil {
		return p, err
	}
	k.SetStageAccounting(true)
	if _, err := k.Run(c.insts); err != nil {
		return p, fmt.Errorf("%s/%s stage run: %w", c.bench, c.cfg, err)
	}
	p.stageDur = time.Since(t0)
	p.stage = k.StageBreakdown()
	sp.end(map[string]any{"cycles": p.stage.Cycles})

	cw, err := service.WireFromRecord(&service.CachedResult{Bench: c.bench, Result: &chk.res, Checksum: chk.checksum, Commits: chk.commits})
	if err != nil {
		return p, err
	}
	data, err := json.Marshal(cw)
	if err != nil {
		return p, err
	}
	sp = tr.begin("journal.append", cs.id, track)
	t0 = time.Now()
	err = jnl.Append(service.KeyCell+experiments.CellFingerprint(c.bench, c.m, c.insts, true), data)
	p.appendDur = time.Since(t0)
	sp.end(map[string]any{"bytes": len(data)})
	return p, err
}

// report turns probe output into per-layer metrics. uncheckedNS is the
// summed unchecked host time (core.New plus Core.Run) of one run of each
// probed cell, and generateNS the time to generate the programs.
func (o *probeOut) report(r *report, uncheckedNS, generateNS float64) {
	r.set("functional.ns_per_inst", ratio(o.replayNS, o.replaySteps), fmt.Sprintf("%.0f steps", o.replaySteps))
	r.set("cell.invariant_share", ratio(generateNS+o.replayNS, uncheckedNS), "")
	r.set("checker.ns_per_uop", ratio(o.checkedNS-uncheckedNS, o.checkedUops), "")
	r.set("checker.share", ratio(o.checkedNS-uncheckedNS, o.checkedNS), "")
	for i, name := range []string{"core.fetch_share", "core.insert_share", "core.sched_share", "core.execute_share", "core.commit_share"} {
		r.set(name, ratio(o.stage[i], o.stageNS), "")
	}
	r.setDist("journal.append_ms", o.appendMS)
}

// goCounters snapshots the Go runtime's allocation and GC CPU counters.
type goCounters struct{ alloc, gcCPU, totalCPU float64 }

func readGo() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return goCounters{alloc: float64(ms.TotalAlloc), gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// reportUntil sets the go.* metrics for the interval from g to now, over
// uops simulated instructions.
func (g goCounters) reportUntil(r *report, now goCounters, uops float64) {
	r.set("go.alloc_bytes_per_uop", ratio(now.alloc-g.alloc, uops), "")
	r.set("go.gc_cpu_share", ratio(now.gcCPU-g.gcCPU, now.totalCPU-g.totalCPU), "")
}
