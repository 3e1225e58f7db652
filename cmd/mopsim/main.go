// Command mopsim runs one benchmark under one scheduler configuration and
// prints detailed timing results.
//
// Usage:
//
//	mopsim -bench gzip -sched mop -wakeup wired-or -iq 32 -insts 1000000
//	mopsim -bench gzip -sched mop -check              # lockstep verification
//	mopsim -bench gzip -check -inject-fault 5000      # prove the oracle bites
//	mopsim -bench gzip -timeout 30s                   # wall-clock bound
//	mopsim -bench gzip -insts 20000 -faults all       # fault-injection campaign
//	mopsim -faults all -journal c.journal             # crash-safe campaign
//	mopsim -faults all -journal c.journal -resume     # continue after a crash
//	mopsim -faults all -shrink                        # minimize detections to repros/
//	mopsim -repro repros/gzip-base-dropped-wakeup.json  # replay a bundle
//	mopsim -bench gzip -cpuprofile cpu.pprof          # profile the simulation
//
// Schedulers: base, 2cycle, mop, sf-squash, sf-scoreboard.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"time"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/fault"
	"macroop/internal/functional"
	"macroop/internal/journal"
	"macroop/internal/shrink"
	"macroop/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "gzip", "benchmark name ("+strings.Join(workload.Names(), ", ")+")")
		sched    = flag.String("sched", "base", "scheduler: base, 2cycle, mop, sf-squash, sf-scoreboard")
		wakeup   = flag.String("wakeup", "wired-or", "MOP wakeup style: 2src, wired-or")
		iq       = flag.Int("iq", 32, "issue queue entries (0 = unrestricted)")
		stages   = flag.Int("stages", 1, "extra MOP formation stages (0..2)")
		delay    = flag.Int("detect-delay", 3, "MOP detection delay in cycles")
		insts    = flag.Int64("insts", 1_000_000, "committed instructions to simulate")
		noIndep  = flag.Bool("no-indep", false, "disable independent MOP grouping")
		trace    = flag.Int("trace", 0, "print a pipeline timeline for the first N instructions")
		noFilter = flag.Bool("no-filter", false, "disable the last-arriving operand filter")
		check    = flag.Bool("check", false, "attach the lockstep differential oracle (cross-checks every commit against the functional model)")
		inject   = flag.Int64("inject-fault", -1, "corrupt the dynamic instruction at/after this sequence number (with -check: demonstrates divergence detection)")
		timeout  = flag.Duration("timeout", 0, "wall-clock limit for the simulation (0 = none); expiry aborts with a typed cancellation error")
		watchdog = flag.Int("watchdog-cycles", 0, "forward-progress watchdog window in cycles (0 = default, negative = disabled)")
		faults   = flag.String("faults", "", "run a fault-injection campaign on the selected benchmark instead of one simulation: \"all\" or a comma-separated subset of "+strings.Join(faultNames(), ", "))
		jpath    = flag.String("journal", "", "write-ahead journal for the campaign (-faults): completed cells are durably recorded as they finish, and a re-run with -resume skips them")
		resume   = flag.Bool("resume", false, "continue a previous campaign from the -journal file (without this flag an existing non-empty journal is refused)")
		repro    = flag.String("repro", "", "replay a repro bundle (JSON, written by -shrink) and verify it still fails exactly as recorded; all other flags are ignored")
		doShrink = flag.Bool("shrink", false, "minimize failures into replayable repro bundles: every detected campaign cell (with -faults), or the single failing run otherwise")
		shrOut   = flag.String("shrink-out", "", "where -shrink writes bundles (default repro.json, or the repros/ directory for a campaign)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile at exit to this file (inspect with go tool pprof -sample_index=alloc_objects)")
		exeTrace = flag.String("exectrace", "", "write a runtime execution trace to this file (inspect with go tool trace); -trace prints the pipeline timeline instead")
	)
	flag.Parse()
	validateFlags(*sched, *repro, *faults)
	defer startProfiling(*cpuProf, *memProf, *exeTrace)()

	if *repro != "" {
		replayBundle(*repro)
		return
	}

	if *faults != "" {
		runCampaign(*bench, *faults, *insts, *watchdog, openJournal(*jpath, *resume), *doShrink, *shrOut)
		return
	}

	m := config.Default().WithIQ(*iq).WithWatchdog(*watchdog)
	switch *sched {
	case "base":
		m = m.WithSched(config.SchedBase)
	case "2cycle":
		m = m.WithSched(config.SchedTwoCycle)
	case "mop":
		mc := config.DefaultMOP()
		mc.ExtraFormationStages = *stages
		mc.DetectionDelay = *delay
		mc.GroupIndependent = !*noIndep
		mc.LastArrivingFilter = !*noFilter
		switch *wakeup {
		case "2src":
			mc.Wakeup = config.WakeupCAM2Src
		case "wired-or":
			mc.Wakeup = config.WakeupWiredOR
		default:
			fatalf("unknown wakeup style %q", *wakeup)
		}
		m = m.WithMOP(mc)
	case "sf-squash":
		m = m.WithSched(config.SchedSelectFreeSquashDep)
	case "sf-scoreboard":
		m = m.WithSched(config.SchedSelectFreeScoreboard)
	default:
		fatalf("unknown scheduler %q", *sched)
	}

	prof, err := workload.ByName(*bench)
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := workload.Generate(prof)
	if err != nil {
		fatalf("generate: %v", err)
	}
	var src functional.Source = functional.NewExecutor(prog)
	if *inject >= 0 {
		src = &checker.CorruptSource{Src: src, At: *inject}
	}
	c, err := core.NewFromSource(m, prog.Name, src)
	if err != nil {
		fatalf("configure: %v", err)
	}
	var tl *core.Timeline
	if *trace > 0 {
		tl = core.NewTimeline(*trace)
		c.SetTracer(tl)
	}
	var k *checker.Checker
	if *check {
		k = checker.New(prog, m.IQEntries, *insts)
		c.SetHooks(k)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := c.RunContext(ctx, *insts)
	if err != nil {
		if *doShrink {
			out := *shrOut
			if out == "" {
				out = "repro.json"
			}
			b := shrink.New(*bench, m, *insts)
			b.Check = *check
			if *inject >= 0 {
				at := *inject
				b.CorruptAt = &at
			}
			shrinkTo(b, out)
		}
		fatalf("simulate: %v", err)
	}
	if tl != nil {
		fmt.Println(tl)
	}
	fmt.Print(res)
	if k != nil {
		s := k.Summary()
		fmt.Printf("  check: ok, %d commits cross-checked, checksum %016x\n", s.Commits, s.Checksum)
	}
}

// validateFlags cross-checks flag combinations so misuse fails fast with
// a pointed message instead of silently ignoring a flag (or worse,
// silently changing what ran — an unchecked -inject-fault corrupts the
// simulation with nothing watching for the divergence).
func validateFlags(sched, repro, faults string) {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if flag.NArg() > 0 {
		fatalf("unexpected argument %q: mopsim takes flags only (did you mean -bench %s?)", flag.Arg(0), flag.Arg(0))
	}
	if repro != "" {
		// Replay is self-contained: the bundle records the machine, budget
		// and fault. Any other simulation flag would be silently ignored.
		for name := range set {
			switch name {
			case "repro", "cpuprofile", "memprofile", "exectrace":
			default:
				fatalf("-%s conflicts with -repro: a repro bundle fixes the whole configuration", name)
			}
		}
		return
	}
	if set["resume"] && !set["journal"] {
		fatalf("-resume needs -journal: there is no journal to continue from")
	}
	if set["shrink-out"] && !set["shrink"] {
		fatalf("-shrink-out needs -shrink: nothing would be written there")
	}
	if set["inject-fault"] && !set["check"] && faults == "" {
		fatalf("-inject-fault needs -check: without the oracle the corruption runs silently and the timing numbers are garbage")
	}
	if faults != "" {
		// A campaign sweeps every scheduler and drives the oracle itself.
		for _, name := range []string{"sched", "wakeup", "iq", "stages", "detect-delay", "no-indep", "no-filter", "trace", "check", "inject-fault", "timeout"} {
			if set[name] {
				fatalf("-%s conflicts with -faults: the campaign sweeps all schedulers with the oracle attached", name)
			}
		}
		return
	}
	if set["journal"] {
		fatalf("-journal only applies to campaign mode (-faults); sweep journaling lives in moppaper -journal")
	}
	if sched != "mop" {
		for _, name := range []string{"wakeup", "stages", "detect-delay", "no-indep", "no-filter"} {
			if set[name] {
				fatalf("-%s only applies to -sched mop (got -sched %s)", name, sched)
			}
		}
	}
}

// startProfiling starts the requested CPU profile and execution trace and
// returns the shutdown function that also writes the allocation profile.
func startProfiling(cpu, mem, trace string) func() {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			fatalf("exectrace: %v", err)
		}
		if err := rtrace.Start(f); err != nil {
			fatalf("exectrace: %v", err)
		}
		stops = append(stops, func() {
			rtrace.Stop()
			f.Close()
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			runtime.GC() // settle the heap so the profile shows retained objects accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
			f.Close()
		}
	}
}

func faultNames() []string {
	ks := fault.Kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.String()
	}
	return names
}

// openJournal opens (or creates) a campaign journal. Continuing into an
// existing non-empty journal changes behaviour — already-recorded cells
// are skipped — so that requires the explicit -resume opt-in.
func openJournal(path string, resume bool) *journal.Journal {
	if path == "" {
		return nil
	}
	j, err := journal.Open(path)
	if err != nil {
		fatalf("journal: %v", err)
	}
	if j.Len() > 0 && !resume {
		fatalf("journal %s already holds %d record(s); pass -resume to continue it, or remove the file to start over", path, j.Len())
	}
	return j
}

// replayBundle replays a shrunken repro bundle and verifies it fails
// exactly as recorded.
func replayBundle(path string) {
	b, err := shrink.Load(path)
	if err != nil {
		fatalf("repro: %v", err)
	}
	if err := b.Verify(); err != nil {
		fatalf("repro %s: %v", path, err)
	}
	fmt.Printf("repro %s: %s/%s reproduced %s (fingerprint %s, %d insts)\n",
		path, b.Benchmark, b.Machine.Sched, b.ExpectKind, b.ExpectFingerprint, b.MaxInsts)
}

// shrinkTo minimizes a failing configuration and writes the bundle.
func shrinkTo(b *shrink.Bundle, out string) {
	min, err := shrink.Minimize(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mopsim: shrink: %v\n", err)
		return
	}
	if err := min.Save(out); err != nil {
		fmt.Fprintf(os.Stderr, "mopsim: shrink: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mopsim: wrote %s (%s, maxInsts %d -> %d)\n",
		out, min.ExpectKind, min.OriginalMaxInsts, min.MaxInsts)
}

// runCampaign injects the selected fault kinds into the benchmark under
// every scheduler model and reports which verification layer caught each.
// Exits nonzero if any fired fault escaped detection.
func runCampaign(bench, kinds string, insts int64, watchdog int, j *journal.Journal, doShrink bool, shrOut string) {
	cfg := fault.DefaultCampaign()
	cfg.Benchmarks = []string{bench}
	cfg.MaxInsts = insts
	cfg.Journal = j
	if j != nil {
		defer j.Close()
	}
	if watchdog != 0 {
		cfg.WatchdogCycles = watchdog
	}
	if kinds != "all" {
		cfg.Faults = nil
		for _, s := range strings.Split(kinds, ",") {
			k, err := fault.ParseKind(strings.TrimSpace(s))
			if err != nil {
				fatalf("%v", err)
			}
			cfg.Faults = append(cfg.Faults, k)
		}
	}
	start := time.Now()
	res, err := fault.RunCampaign(cfg)
	if err != nil {
		fatalf("campaign: %v", err)
	}
	fmt.Print(res)
	fmt.Printf("(%d cells in %.1fs, %d simulated here)\n", len(res.Outcomes), time.Since(start).Seconds(), res.Executed)
	if doShrink {
		dir := shrOut
		if dir == "" {
			dir = "repros"
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("shrink: %v", err)
		}
		for _, o := range res.Outcomes {
			if !o.Fired || !o.Detected {
				continue
			}
			b := shrink.New(o.Bench, config.Default().WithSched(o.Sched).WithWatchdog(cfg.WatchdogCycles), cfg.MaxInsts)
			b.Fault = &shrink.FaultSpec{Kind: o.Fault.String(), TriggerCommits: cfg.TriggerCommits}
			shrinkTo(b, filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", o.Bench, o.Sched, o.Fault)))
		}
	}
	if esc := res.Escapes(); len(esc) > 0 {
		fatalf("%d fault(s) escaped detection", len(esc))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mopsim: "+format+"\n", args...)
	os.Exit(1)
}
