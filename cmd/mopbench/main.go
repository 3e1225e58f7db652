// Command mopbench measures simulator performance — not simulated-machine
// performance — and records it in a machine-readable trajectory file so
// perf regressions are visible across commits.
//
// Three sections are produced:
//
//   - host: a calibration leg that runs no simulator code, a fixed
//     pointer chase with hashing over a permutation larger than any L1
//     data cache, reporting steps/sec. It is the denominator of every
//     ratio the regression gate compares.
//   - configs: one steady-state measurement per scheduler model
//     (baseline, 2-cycle, MOP-CAM, MOP-wired-OR, select-free) on one
//     benchmark, plus baseline and MOP-CAM again with the lockstep
//     checker attached (the +check cells, mopserve's per-cell path),
//     reporting simulated uops/sec, cycles/sec, a per-stage wall-time
//     breakdown from a separate accounting leg, and — after a warm-up
//     run that grows every pool and scratch buffer — allocations and
//     bytes per simulated cycle. The steady-state cycle loop, checked
//     or not, is required to be allocation-free; the run exits non-zero
//     when any config exceeds -max-allocs-per-cycle.
//   - table2: the end-to-end Table 2 experiment (every benchmark, base
//     scheduler, two queue sizes), the same work BenchmarkTable2 does,
//     reporting aggregate simulated uops/sec.
//
// Every timed leg — host, config cell, table2 sweep — repeats the same
// fixed work from a fresh start, and the report keeps the median of its
// N wall-clock repetitions; the host legs run interleaved round-robin
// with the legs they normalize, so a transient host slowdown cannot land
// on one side of a ratio. -short lowers N only, never the work, and a
// median, unlike a best-of-N, does not drift with N.
//
// When -baseline names a previous report, each configs cell and the
// table2 figure is divided by its own report's host steps/sec, and any
// whose normalized throughput drops more than -max-regress below the
// baseline's fails the run. Host speed cancels out of every ratio, so a
// -short CI run gates against a committed full baseline. Cells absent
// from the baseline (new models, schema growth) are skipped.
//
// Usage:
//
//	go run ./cmd/mopbench                   # full suite -> BENCH_core.json
//	go run ./cmd/mopbench -short            # CI smoke (fewer repetitions)
//	go run ./cmd/mopbench -out /tmp/b.json  # write elsewhere (-o is an alias)
//	go run ./cmd/mopbench -short -baseline BENCH_core.json   # regression gate
//	go run ./cmd/mopbench -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/experiments"
	"macroop/internal/program"
	"macroop/internal/workload"
)

// HostResult is the host-calibration leg's median repetition.
type HostResult struct {
	Steps       int64   `json:"steps"`
	PermBytes   int64   `json:"perm_bytes"`
	WallSec     float64 `json:"wall_sec"`
	StepsPerSec float64 `json:"steps_per_sec"`
}

// ConfigResult is one steady-state measurement of the cycle loop.
type ConfigResult struct {
	Name           string              `json:"name"`
	Benchmark      string              `json:"benchmark"`
	Insts          int64               `json:"insts"`
	Cycles         int64               `json:"cycles"`
	WallSec        float64             `json:"wall_sec"`
	UopsPerSec     float64             `json:"uops_per_sec"`
	CyclesPerSec   float64             `json:"cycles_per_sec"`
	AllocsPerCycle float64             `json:"allocs_per_cycle"`
	BytesPerCycle  float64             `json:"bytes_per_cycle"`
	Stages         core.StageBreakdown `json:"stage_breakdown"`
}

// Table2Result is the end-to-end experiment measurement.
type Table2Result struct {
	InstsPerCell int64   `json:"insts_per_cell"`
	Cells        int     `json:"cells"`
	Committed    int64   `json:"committed"`
	WallSec      float64 `json:"wall_sec"`
	UopsPerSec   float64 `json:"uops_per_sec"`
}

// Report is the BENCH_core.json schema.
type Report struct {
	GoVersion string `json:"go_version"`
	Short     bool   `json:"short"`
	// InstsPerConfig is the timed window of every configs leg; with
	// Table2.InstsPerCell it fixes the work a report measures.
	InstsPerConfig int64          `json:"insts_per_config"`
	Host           HostResult     `json:"host"`
	Configs        []ConfigResult `json:"configs"`
	Table2         Table2Result   `json:"table2"`
}

// schedConfig is one configs cell: a machine, and whether its legs run
// with the lockstep checker attached.
type schedConfig struct {
	name  string
	m     config.Machine
	check bool
}

func schedConfigs() []schedConfig {
	camMOP := config.DefaultMOP()
	camMOP.Wakeup = config.WakeupCAM2Src
	worMOP := config.DefaultMOP()
	worMOP.Wakeup = config.WakeupWiredOR
	return []schedConfig{
		{"baseline", config.Default(), false},
		{"two-cycle", config.Default().WithSched(config.SchedTwoCycle), false},
		{"mop-cam", config.Default().WithMOP(camMOP), false},
		{"mop-wired-or", config.Default().WithMOP(worMOP), false},
		{"select-free", config.Default().WithSched(config.SchedSelectFreeScoreboard), false},
		{"baseline+check", config.Default(), true},
		{"mop-cam+check", config.Default().WithMOP(camMOP), true},
	}
}

// The host-calibration leg chases pointers through a fixed permutation
// and hashes every slot it visits. It imports no simulator package, so
// its speed moves only with the host and the Go toolchain, never with a
// change under test. hostPermLen uint32 slots make 256 KiB, more than
// any L1 data cache, so like the simulator's own working set the chase
// runs out of L2. hostSteps is one leg's fixed work, a few tens of
// milliseconds.
const (
	hostPermLen = 1 << 16
	hostSteps   = 1 << 23
)

// hostSink keeps the calibration hash live so the compiler cannot drop
// the loop that computes it.
var hostSink uint64

// hostPerm returns a single cycle through all hostPermLen slots, built by
// Sattolo's algorithm from a fixed xorshift seed, so every run on every
// host chases the same sequence.
func hostPerm() []uint32 {
	p := make([]uint32, hostPermLen)
	for i := range p {
		p[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := len(p) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// measureHost runs one timed calibration leg and returns its wall time.
// Like every timed leg it starts from a collected heap.
func measureHost(perm []uint32) float64 {
	runtime.GC()
	start := time.Now()
	h := uint64(14695981039346656037) // FNV-1a offset basis
	i := uint32(0)
	for n := 0; n < hostSteps; n++ {
		i = perm[i]
		h = (h ^ uint64(i)) * 1099511628211 // FNV-1a prime
	}
	wall := time.Since(start).Seconds()
	hostSink = h
	return wall
}

// median returns the median of xs, sorting xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// allocWindow is the number of bare cycles stepped between MemStats
// snapshots for the allocs/cycle gate. Large enough that a per-cycle
// leak dominates any measurement noise, small enough to stay inside the
// region the warm-up leg has already paged in.
const allocWindow = 20_000

// allocWindows is how many alloc windows are sampled per config; the
// minimum is reported.
const allocWindows = 3

// stageWindow is the number of cycles run with per-stage wall-time
// accounting on. The accounting leg is separate from (and precedes) the
// throughput leg because bracketing every stage with clock reads roughly
// doubles the cost of a cycle.
const stageWindow = 60_000

// cell is one scheduler config's measurement in flight: what its timed
// legs simulate plus everything measured so far. Cells stay alive across
// the whole configs section so their timed throughput legs can be
// interleaved (see run).
type cell struct {
	sc    schedConfig
	prog  *program.Program
	warm  int64     // untimed prefix run before every measurement
	insts int64     // timed window after the prefix
	walls []float64 // wall seconds of each timed leg
	res   ConfigResult
}

// newCore builds a fresh core for one of sc's legs, with the lockstep
// checker attached for a +check cell.
func newCore(sc schedConfig, prog *program.Program) (*core.Core, error) {
	c, err := core.New(sc.m, prog)
	if err != nil {
		return nil, fmt.Errorf("%s: configure: %w", sc.name, err)
	}
	if sc.check {
		c.SetHooks(checker.New(prog, sc.m.IQEntries, 0))
	}
	return c, nil
}

// prepareConfig runs one cell's untimed legs — warm-up, allocation
// windows, stage-accounting window — and returns the cell ready for timed
// throughput legs.
func prepareConfig(sc schedConfig, bench string, prog *program.Program, insts int64) (*cell, error) {
	name := sc.name
	c, err := newCore(sc, prog)
	if err != nil {
		return nil, err
	}
	// Warm-up leg: grow every pool, ring, and scratch buffer (and the
	// functional model's memory pages the warm window touches) before
	// measuring.
	warm := insts / 5
	if warm < 30_000 {
		warm = 30_000
	}
	if _, err := c.Run(warm); err != nil {
		return nil, fmt.Errorf("%s: warmup: %w", name, err)
	}

	// Allocation window: a bounded span of bare cycles right after
	// warm-up, so the allocs/cycle gate covers exactly the steady-state
	// cycle loop — the property the zero-alloc tests assert. An
	// unmeasured settle leg first absorbs any last high-water-mark
	// growth (a pool or scratch slice doubling once more as occupancy
	// peaks just past the warm-up point).
	if _, err := c.StepCycles(allocWindow); err != nil {
		return nil, fmt.Errorf("%s: settle: %w", name, err)
	}
	// Take the minimum over a few windows: the Go runtime itself makes
	// a rare tiny allocation on a background thread (e.g. the scavenger
	// re-arming its timer) that MemStats cannot distinguish from
	// simulator work. A real per-cycle leak shows up in every window;
	// one-off runtime noise cannot.
	var winAllocs, winBytes uint64
	var allocCycles int64
	for w := 0; w < allocWindows; w++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		cycles, err := c.StepCycles(allocWindow)
		if err != nil {
			return nil, fmt.Errorf("%s: alloc window: %w", name, err)
		}
		runtime.ReadMemStats(&after)
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if w == 0 || allocs < winAllocs || (allocs == winAllocs && bytes < winBytes) {
			winAllocs, winBytes, allocCycles = allocs, bytes, cycles
		}
	}

	// Stage-accounting leg: attribute wall time to pipeline stages over a
	// bounded cycle window, then switch accounting back off so the timed
	// throughput leg below runs the unbracketed cycle loop.
	c.SetStageAccounting(true)
	if _, err := c.StepCycles(stageWindow); err != nil {
		return nil, fmt.Errorf("%s: stage window: %w", name, err)
	}
	stages := c.StageBreakdown()
	c.SetStageAccounting(false)

	return &cell{
		sc:    sc,
		prog:  prog,
		warm:  warm,
		insts: insts,
		res: ConfigResult{
			Name:           name,
			Benchmark:      bench,
			AllocsPerCycle: float64(winAllocs) / float64(allocCycles),
			BytesPerCycle:  float64(winBytes) / float64(allocCycles),
			Stages:         stages,
		},
	}, nil
}

// measureThroughput runs one timed wall-clock leg. Each leg builds a
// fresh core, runs the warm-up prefix untimed and times the next insts
// instructions, so every leg of every report covers the same instruction
// window and legs differ only by host noise. A +check cell's checker
// runs from the first cycle, so the timed window is checked throughout.
func (cl *cell) measureThroughput() error {
	c, err := newCore(cl.sc, cl.prog)
	if err != nil {
		return err
	}
	if _, err := c.Run(cl.warm); err != nil {
		return fmt.Errorf("%s: warmup: %w", cl.res.Name, err)
	}
	preCycles, preInsts := c.Progress()
	// Collect the previous legs' cores now, so their garbage is not
	// collected during the timed window, which after the warm-up
	// allocates almost nothing itself.
	runtime.GC()
	start := time.Now()
	res, err := c.Run(preInsts + cl.insts)
	wall := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("%s: simulate: %w", cl.res.Name, err)
	}
	cl.res.Insts = res.Committed - preInsts
	cl.res.Cycles = res.Cycles - preCycles
	cl.walls = append(cl.walls, wall)
	return nil
}

// finish sets the cell's throughput from the median of its timed legs.
func (cl *cell) finish() {
	wall := median(cl.walls)
	cl.res.WallSec = wall
	cl.res.UopsPerSec = float64(cl.res.Insts) / wall
	cl.res.CyclesPerSec = float64(cl.res.Cycles) / wall
}

// runTable2 runs the end-to-end Table 2 sweep once. Like a config leg it
// starts from a collected heap, so the sweep pays only for its own
// garbage.
func runTable2(r *experiments.Runner, insts int64) (Table2Result, error) {
	runtime.GC()
	start := time.Now()
	res, err := r.RunMatrix(map[string]config.Machine{
		"iq32":  config.Default().WithSched(config.SchedBase),
		"unres": config.Unrestricted().WithSched(config.SchedBase),
	})
	wall := time.Since(start).Seconds()
	if err != nil {
		return Table2Result{}, fmt.Errorf("table2: %w", err)
	}
	var committed int64
	cells := 0
	for _, byCfg := range res {
		for _, cell := range byCfg {
			committed += cell.Committed
			cells++
		}
	}
	return Table2Result{
		InstsPerCell: insts,
		Cells:        cells,
		Committed:    committed,
		WallSec:      wall,
		UopsPerSec:   float64(committed) / wall,
	}, nil
}

// perHost is uops/sec normalized by the same report's host-calibration
// steps/sec: simulated uops per calibration step.
func perHost(rep *Report, uopsPerSec float64) float64 {
	return uopsPerSec / rep.Host.StepsPerSec
}

// gateRegressions compares the two reports cell by cell, each cell's
// uops/sec divided by its own report's host steps/sec. Both sides of each
// ratio were timed interleaved in one process, so host speed cancels,
// and a report from another machine or with another repetition count
// stays comparable; one with other instruction budgets times other
// windows and is refused. Returns one message per cell whose normalized
// throughput dropped more than maxRegress; cells missing from the
// baseline are skipped, so schema growth never trips the gate.
func gateRegressions(rep, base *Report, maxRegress float64) []string {
	if base.Host.StepsPerSec <= 0 {
		return []string{"baseline has no host-calibration leg: nothing comparable, regenerate it"}
	}
	if rep.InstsPerConfig != base.InstsPerConfig || rep.Table2.InstsPerCell != base.Table2.InstsPerCell {
		return []string{fmt.Sprintf("budgets %d/%d differ from the baseline's %d/%d (-insts/-table2-insts): the timed windows are not comparable",
			rep.InstsPerConfig, rep.Table2.InstsPerCell, base.InstsPerConfig, base.Table2.InstsPerCell)}
	}
	var fails []string
	check := func(cell string, now, then float64) {
		if then <= 0 {
			return
		}
		nowN, thenN := perHost(rep, now), perHost(base, then)
		if nowN < (1-maxRegress)*thenN {
			fails = append(fails, fmt.Sprintf("%s: %.4f uops/host-step vs baseline %.4f (-%.1f%%)",
				cell, nowN, thenN, 100*(1-nowN/thenN)))
		}
	}
	baseCells := make(map[string]float64, len(base.Configs))
	for _, c := range base.Configs {
		baseCells[c.Name] = c.UopsPerSec
	}
	for _, c := range rep.Configs {
		check(c.Name, c.UopsPerSec, baseCells[c.Name])
	}
	check("table2", rep.Table2.UopsPerSec, base.Table2.UopsPerSec)
	return fails
}

func main() {
	var (
		out        = flag.String("out", "BENCH_core.json", "output file for the JSON report")
		outAlias   = flag.String("o", "", "alias for -out")
		short      = flag.Bool("short", false, "fewer repetitions for CI smoke runs (every leg still times the same window, so a short report gates against a full one)")
		insts      = flag.Int64("insts", 400_000, "per-config timed instruction window (steady-state section)")
		cfgReps    = flag.Int("config-reps", 5, "interleaved throughput legs per config cell and host leg (the report keeps the median)")
		t2Insts    = flag.Int64("table2-insts", 120_000, "per-cell instruction budget (table2 section)")
		t2Reps     = flag.Int("table2-reps", 5, "interleaved table2 sweeps and host legs (the report keeps the median)")
		bench      = flag.String("bench", "gzip", "benchmark for the steady-state section")
		maxAllocs  = flag.Float64("max-allocs-per-cycle", 0, "fail when any config allocates more than this per steady-state cycle")
		baseline   = flag.String("baseline", "", "previous report to gate host-normalized per-cell regressions against")
		maxRegress = flag.Float64("max-regress", 0.15, "with -baseline: fail when any cell's host-normalized uops/sec drops more than this fraction")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()
	if *outAlias != "" {
		if ex := explicitly("out"); ex && *outAlias != *out {
			fatalf("-o and -out disagree (%q vs %q); pass one of them", *outAlias, *out)
		}
		*out = *outAlias
	}
	if *cfgReps < 1 || *t2Reps < 1 {
		fatalf("-config-reps and -table2-reps must be at least 1")
	}
	if *short {
		if !explicitly("config-reps") {
			*cfgReps = 3
		}
		if !explicitly("table2-reps") {
			*t2Reps = 3
		}
	}

	// Load the baseline before anything can overwrite it: -out often
	// points at the same file the baseline was committed as.
	var base *Report
	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		base = &Report{}
		if err := json.Unmarshal(raw, base); err != nil {
			fatalf("baseline %s: %v", *baseline, err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
	}

	// The steady-state loop is allocation-free, so GC work is pure
	// measurement noise: collections only re-scan the long-lived pools.
	// Raising the GC target makes throughput numbers noticeably more
	// stable without hiding leaks (the alloc windows force explicit GCs
	// and count mallocs, not collections).
	debug.SetGCPercent(400)

	failed := run(base, *out, *short, *insts, *cfgReps, *t2Insts, *t2Reps, *bench, *maxAllocs, *maxRegress)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("wrote %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatalf("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *memprofile)
	}
	if failed {
		os.Exit(1)
	}
}

// run executes the whole suite and returns whether any gate failed.
func run(base *Report, out string, short bool, insts int64, cfgReps int, t2Insts int64, t2Reps int, bench string, maxAllocs, maxRegress float64) bool {
	rep := Report{GoVersion: runtime.Version(), Short: short, InstsPerConfig: insts}
	perm := hostPerm()

	prof, err := workload.ByName(bench)
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := workload.Generate(prof)
	if err != nil {
		fatalf("generate: %v", err)
	}

	failed := false
	var cells []*cell
	for _, sc := range schedConfigs() {
		cl, err := prepareConfig(sc, bench, prog, insts)
		if err != nil {
			fatalf("%v", err)
		}
		cells = append(cells, cl)
	}
	// Timed legs, interleaved round-robin: one host leg, then one
	// throughput leg per cell, cfgReps rounds.
	var hostWalls []float64
	for r := 0; r < cfgReps; r++ {
		hostWalls = append(hostWalls, measureHost(perm))
		for _, cl := range cells {
			if err := cl.measureThroughput(); err != nil {
				fatalf("%v", err)
			}
		}
	}
	for _, cl := range cells {
		cl.finish()
	}

	// End-to-end Table 2 sweep, the BenchmarkTable2 workload, on
	// pre-generated programs, alternating with host legs.
	r := experiments.NewRunner(t2Insts)
	for _, b := range workload.Names() {
		if _, err := r.Program(b); err != nil {
			fatalf("generate %s: %v", b, err)
		}
	}
	var t2Walls []float64
	for i := 0; i < t2Reps; i++ {
		hostWalls = append(hostWalls, measureHost(perm))
		if rep.Table2, err = runTable2(r, t2Insts); err != nil {
			fatalf("%v", err)
		}
		t2Walls = append(t2Walls, rep.Table2.WallSec)
	}
	// Every sweep commits the same instructions; only its wall time varies.
	rep.Table2.WallSec = median(t2Walls)
	rep.Table2.UopsPerSec = float64(rep.Table2.Committed) / rep.Table2.WallSec
	hostWall := median(hostWalls)
	rep.Host = HostResult{Steps: hostSteps, PermBytes: 4 * hostPermLen, WallSec: hostWall, StepsPerSec: hostSteps / hostWall}

	fmt.Printf("%-14s %8.1f Msteps/s (%d steps over a %d KiB permutation)\n",
		"host", rep.Host.StepsPerSec/1e6, rep.Host.Steps, rep.Host.PermBytes>>10)
	for _, cl := range cells {
		cr := cl.res
		rep.Configs = append(rep.Configs, cr)
		status := "ok"
		if cr.AllocsPerCycle > maxAllocs {
			status = fmt.Sprintf("FAIL (> %.3f)", maxAllocs)
			failed = true
		}
		fmt.Printf("%-14s %8.0f kuops/s %7.4f uops/host-step %9.0f kcycles/s %7.4f allocs/cycle %6.1f B/cycle  sched %2.0f%% insert %2.0f%% fetch %2.0f%%  %s\n",
			cr.Name, cr.UopsPerSec/1e3, perHost(&rep, cr.UopsPerSec), cr.CyclesPerSec/1e3,
			cr.AllocsPerCycle, cr.BytesPerCycle,
			100*cr.Stages.Sched, 100*cr.Stages.Insert, 100*cr.Stages.Fetch, status)
	}
	fmt.Printf("%-14s %8.0f kuops/s %7.4f uops/host-step (%d cells, %.2fs wall)\n",
		"table2", rep.Table2.UopsPerSec/1e3, perHost(&rep, rep.Table2.UopsPerSec),
		rep.Table2.Cells, rep.Table2.WallSec)

	if base != nil {
		fails := gateRegressions(&rep, base, maxRegress)
		for _, m := range fails {
			fmt.Printf("regression %s\n", m)
			failed = true
		}
		if len(fails) == 0 {
			fmt.Printf("baseline gate ok (max regress %.0f%%)\n", 100*maxRegress)
		}
	}

	f, err := os.Create(out)
	if err != nil {
		fatalf("%v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		fatalf("write: %v", err)
	}
	fmt.Printf("wrote %s\n", out)
	if failed {
		fmt.Fprintln(os.Stderr, "mopbench: perf gate failed (allocs/cycle or baseline regression)")
	}
	return failed
}

// explicitly reports whether the named flag was set on the command line
// (as opposed to holding its default).
func explicitly(name string) bool {
	found := false
	flag.Visit(func(f *flag.Flag) { found = found || f.Name == name })
	return found
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mopbench: "+format+"\n", args...)
	os.Exit(1)
}
