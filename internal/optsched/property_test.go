package optsched

import (
	"context"
	"math/rand"
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/workload"
)

// benchWindows extracts windows from a generated benchmark program.
func benchWindows(t *testing.T, bench string, spec ExtractSpec) []Window {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatalf("workload %s: %v", bench, err)
	}
	p, err := workload.Generate(prof)
	if err != nil {
		t.Fatalf("generate %s: %v", bench, err)
	}
	wins := Extract(p, config.Default(), spec)
	if len(wins) == 0 {
		t.Fatalf("no windows extracted from %s", bench)
	}
	for i := range wins {
		if err := wins[i].Validate(); err != nil {
			t.Fatalf("%s window %d: %v", bench, i, err)
		}
	}
	return wins
}

// TestAdmissibilityOnBenchmarks is the oracle's core property on real
// windows: for every extracted window, the exact result never exceeds
// any kernel replay, every schedule validates, and bounds are
// consistent. It also cross-checks the solver's certified bound against
// the per-class initiation-interval bound of a modulo scheduler
// (SNIPPETS.md Snippet 3): no schedule can issue the n_c uops of class c
// in fewer than ceil(n_c/U_c) cycles, nor all N consuming uops in fewer
// than ceil(N/Width), and the last of them completes a cycle or more
// after issuing. A small node budget keeps many searches cut short, so
// the certified bound is exercised, not just the proven optimum.
func TestAdmissibilityOnBenchmarks(t *testing.T) {
	res := defRes()
	for _, bench := range []string{"gzip", "mcf", "vortex"} {
		for _, size := range []int{16, 32} {
			for _, w := range benchWindows(t, bench, ExtractSpec{Window: size, MaxWindows: 4}) {
				w := w
				for _, budget := range []int64{1_000, 50_000} {
					_, out := solveAll(t, &w, res, budget)
					if ii := classIIBound(&w, res); out.Bound < ii {
						t.Fatalf("%s %d-uop window at seq %d, budget %d: certified bound %d below the II bound %d",
							bench, size, w.Start, budget, out.Bound, ii)
					}
				}
			}
		}
	}
}

// classIIBound is max(max_c ceil(n_c/U_c), ceil(N/Width)) + 1 over the
// window's resource-consuming uops: the per-class resource bound of a
// modulo scheduler's II, plus the one cycle the last issued uop needs to
// complete.
func classIIBound(w *Window, res Resources) int {
	res = res.normalized()
	var cnt [isa.NumClasses]int
	total := 0
	for i := range w.Uops {
		if c := w.Uops[i].Class; consumes(c) {
			cnt[c]++
			total++
		}
	}
	ii := (total + res.Width - 1) / res.Width
	for c, m := range cnt {
		if v := (m + res.Units[c] - 1) / res.Units[c]; v > ii {
			ii = v
		}
	}
	return ii + 1
}

// bruteOptimum exhaustively enumerates dependence-respecting schedules —
// every feasible subset each cycle, including empty and non-maximal ones
// — and returns the minimum makespan. It is the independent ground truth
// the branch-and-bound's dominance arguments are checked against.
// ClassNone uops issue at their ready time (they consume no resources,
// so delaying one can only delay its consumers). ub must be an
// achievable makespan (a kernel replay's) so the search terminates.
func bruteOptimum(w *Window, res Resources, ub int) int {
	res = res.normalized()
	n := len(w.Uops)
	best := ub
	var dfs func(issue []int, numIss, c, maxFin int)
	dfs = func(issue []int, numIss, c, maxFin int) {
		next := append([]int(nil), issue...)
		nf, ni := maxFin, numIss
		// Free uops issue at their ready time.
		for changed := true; changed; {
			changed = false
			for i := 0; i < n; i++ {
				if next[i] != 0 || consumes(w.Uops[i].Class) {
					continue
				}
				r, ok := 1, true
				for _, d := range w.Uops[i].Deps {
					if next[d] == 0 {
						ok = false
						break
					}
					if v := next[d] + effLat(&w.Uops[d]); v > r {
						r = v
					}
				}
				if ok && r <= c {
					next[i] = r
					ni++
					if f := r + effLat(&w.Uops[i]); f > nf {
						nf = f
					}
					changed = true
				}
			}
		}
		if ni == n {
			if nf < best {
				best = nf
			}
			return
		}
		if nf >= best {
			return
		}
		if c+1 >= best {
			return // every remaining uop finishes at best or later
		}
		// Critical-path prune (obviously sound: pure longest-path with
		// infinite resources, so the solver's resource and dominance
		// reasoning is still checked by the enumeration itself).
		est := make([]int, n)
		bound := nf
		for i := 0; i < n; i++ {
			if next[i] != 0 {
				est[i] = next[i]
				continue
			}
			e := 1
			if consumes(w.Uops[i].Class) {
				e = c
			}
			for _, d := range w.Uops[i].Deps {
				if v := est[d] + effLat(&w.Uops[d]); v > e {
					e = v
				}
			}
			est[i] = e
			if f := e + effLat(&w.Uops[i]); f > bound {
				bound = f
			}
		}
		if bound >= best {
			return
		}
		var ready []int
		for i := 0; i < n; i++ {
			if next[i] != 0 || !consumes(w.Uops[i].Class) {
				continue
			}
			r, ok := 1, true
			for _, d := range w.Uops[i].Deps {
				if next[d] == 0 {
					ok = false
					break
				}
				if v := next[d] + effLat(&w.Uops[d]); v > r {
					r = v
				}
			}
			if ok && r <= c {
				ready = append(ready, i)
			}
		}
		// Every subset of the ready set, feasibility-checked.
		for sub := 0; sub < 1<<len(ready); sub++ {
			width := 0
			var units [isa.NumClasses]int
			feasible := true
			cand := append([]int(nil), next...)
			cf, ci := nf, ni
			for bit, i := range ready {
				if sub&(1<<bit) == 0 {
					continue
				}
				width++
				units[w.Uops[i].Class]++
				if width > res.Width || units[w.Uops[i].Class] > res.Units[w.Uops[i].Class] {
					feasible = false
					break
				}
				cand[i] = c
				ci++
				if f := c + effLat(&w.Uops[i]); f > cf {
					cf = f
				}
			}
			if feasible {
				dfs(cand, ci, c+1, cf)
			}
		}
	}
	dfs(make([]int, n), 0, 1, 0)
	return best
}

// TestExhaustiveAgreementTiny proves the branch-and-bound returns the
// true optimum on every window small enough to enumerate outright:
// extracted 8-uop benchmark windows plus randomized synthetic DAGs.
func TestExhaustiveAgreementTiny(t *testing.T) {
	res := defRes()
	check := func(t *testing.T, w *Window) {
		t.Helper()
		ub := 1 << 30
		var seed Schedule
		for _, m := range Models {
			s := replay(t, w, res, m)
			if s.Cycles < ub {
				ub, seed = s.Cycles, s
			}
		}
		out, err := Solver{}.Solve(context.Background(), w, res, seed)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if !out.Optimal {
			t.Fatalf("%d-uop window not proven optimal (bound %d, cycles %d)", len(w.Uops), out.Bound, out.Cycles)
		}
		if brute := bruteOptimum(w, res, ub); out.Cycles != brute {
			t.Fatalf("exact %d != exhaustive optimum %d (uops %+v)", out.Cycles, brute, w.Uops)
		}
	}

	for _, bench := range []string{"gzip", "parser"} {
		for _, w := range benchWindows(t, bench, ExtractSpec{Window: 8, Stride: 5, MaxWindows: 6}) {
			w := w
			check(t, &w)
		}
	}

	// Random DAGs over the full latency/class mix, seeded for
	// reproducibility.
	mix := []isa.Op{isa.ADD, isa.ADD, isa.ADD, isa.MUL, isa.LD, isa.FADD, isa.STA, isa.DIV}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(5) // 4..8 uops
		uops := make([]Uop, n)
		for i := range uops {
			op := mix[rng.Intn(len(mix))]
			var deps []int32
			for _, d := range rng.Perm(i) {
				if len(deps) == 2 {
					break
				}
				if rng.Intn(3) == 0 {
					deps = append(deps, int32(d))
				}
			}
			uops[i] = tu(op, deps...)
		}
		w := twin(uops...)
		check(t, w)
	}
}

// TestGapPipeline runs the full per-benchmark pipeline on one benchmark
// and asserts the aggregate invariants the service endpoint relies on.
func TestGapPipeline(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunGap(context.Background(), p, config.Default(), GapSpec{Window: 16, MaxWindows: 4, NodeBudget: 20_000})
	if err != nil {
		t.Fatalf("RunGap: %v", err)
	}
	if g.Bench != "gzip" || g.Windows != 4 {
		t.Fatalf("got bench %q windows %d, want gzip/4", g.Bench, g.Windows)
	}
	if g.Violations != 0 {
		t.Fatalf("%d admissibility violations", g.Violations)
	}
	if g.BoundCycles > g.OptCycles {
		t.Fatalf("bound %d above optimum %d", g.BoundCycles, g.OptCycles)
	}
	for _, m := range Models {
		if g.Heur[m.String()] < g.OptCycles {
			t.Fatalf("%v cycles %d below optimum %d", m, g.Heur[m.String()], g.OptCycles)
		}
	}
	// The pipeline is deterministic: a second run must agree exactly.
	g2, err := RunGap(context.Background(), p, config.Default(), GapSpec{Window: 16, MaxWindows: 4, NodeBudget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if g.OptCycles != g2.OptCycles || g.Heur["base"] != g2.Heur["base"] || g.Nodes != g2.Nodes {
		t.Fatalf("gap pipeline nondeterministic: %+v vs %+v", g, g2)
	}
	// Cancellation surfaces ctx.Err without corrupting the partial result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunGap(ctx, p, config.Default(), GapSpec{Window: 16, MaxWindows: 4}); err == nil {
		t.Fatal("cancelled RunGap returned nil error")
	}
}
