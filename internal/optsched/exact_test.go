package optsched

import (
	"context"
	"slices"
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
)

// tu builds a test uop from an opcode and its producer indices, with the
// default machine's window-model latency.
func tu(op isa.Op, deps ...int32) Uop {
	return Uop{Op: op, Class: op.FUClass(), Lat: uopLat(op, config.Default()), Deps: deps}
}

// twin wraps uops into a window.
func twin(uops ...Uop) *Window {
	return &Window{Bench: "test", Uops: uops}
}

func defRes() Resources { return ResourcesFrom(config.Default()) }

// replay runs one model's kernel replay, failing the test on an error.
func replay(t *testing.T, w *Window, res Resources, model config.SchedModel) Schedule {
	t.Helper()
	s, err := Replay(w, res, model)
	if err != nil {
		t.Fatalf("%v replay: %v", model, err)
	}
	return s
}

// solveAll replays every model plus the exact solver and validates each
// schedule, returning (replay cycles per model, outcome).
func solveAll(t *testing.T, w *Window, res Resources, budget int64) (map[config.SchedModel]int, Outcome) {
	t.Helper()
	if err := w.Validate(); err != nil {
		t.Fatalf("window invalid: %v", err)
	}
	cycles := make(map[config.SchedModel]int, len(Models))
	best := Schedule{}
	for _, m := range Models {
		s := replay(t, w, res, m)
		if err := ValidateSchedule(w, res, s.Issue); err != nil {
			t.Fatalf("%v schedule infeasible: %v", m, err)
		}
		if s.Cycles != makespan(w, s.Issue) {
			t.Fatalf("%v reports %d cycles, makespan is %d", m, s.Cycles, makespan(w, s.Issue))
		}
		cycles[m] = s.Cycles
		if best.Issue == nil || s.Cycles < best.Cycles {
			best = s
		}
	}
	out, err := Solver{NodeBudget: budget}.Solve(context.Background(), w, res, best)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := ValidateSchedule(w, res, out.Issue); err != nil {
		t.Fatalf("exact schedule infeasible: %v", err)
	}
	if got := makespan(w, out.Issue); got != out.Cycles {
		t.Fatalf("outcome reports %d cycles, schedule makespan is %d", out.Cycles, got)
	}
	if out.Bound > out.Cycles {
		t.Fatalf("lower bound %d exceeds best found %d", out.Bound, out.Cycles)
	}
	if out.Optimal != (out.Bound == out.Cycles) {
		t.Fatalf("Optimal=%v inconsistent with Bound=%d Cycles=%d", out.Optimal, out.Bound, out.Cycles)
	}
	for m, c := range cycles {
		if out.Cycles > c {
			t.Fatalf("admissibility violation: exact %d > %v %d", out.Cycles, m, c)
		}
	}
	return cycles, out
}

func TestSerialChain(t *testing.T) {
	// add -> add -> add -> add: base issues back to back (makespan 5),
	// the 2-cycle loop leaves a bubble per edge (8), and macro-op fuses
	// (0,1) and (2,3): the first MOP's single tag broadcast makes the
	// second selectable at head+2 (DESIGN §5), so it recovers every
	// bubble (5). The optimum equals base.
	w := twin(tu(isa.ADD), tu(isa.ADD, 0), tu(isa.ADD, 1), tu(isa.ADD, 2))
	cycles, out := solveAll(t, w, defRes(), 0)
	base, two, mop := cycles[config.SchedBase], cycles[config.SchedTwoCycle], cycles[config.SchedMOP]
	if base != 5 || two != 8 || mop != 5 {
		t.Errorf("chain cycles = base %d, 2-cycle %d, mop %d; want 5, 8, 5", base, two, mop)
	}
	if !out.Optimal || out.Cycles != 5 {
		t.Errorf("exact = %d (optimal %v), want proven 5", out.Cycles, out.Optimal)
	}
}

// TestFigure5Window replays the paper's Figure 5 example,
//
//	1: add r1   2: lw r4,0(r1)   3: sub r5,r1   4: bez r5
//
// extracted from an assembled program, to the issue cycles that
// sched.TestFigure5Timing asserts on the kernel directly. Macro-op fuses
// (1,3): the MOP's single tag makes 2 and 4 selectable at head+2.
func TestFigure5Window(t *testing.T) {
	p := assemble(t, `
add r1, r2, r3
ld r4, 0(r1)
sub r5, r1, r6
beq r5, r0, done
done: halt
`)
	wins := Extract(p, config.Default(), ExtractSpec{Window: 4, MaxWindows: 1})
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1", len(wins))
	}
	w := &wins[0]
	for m, want := range map[config.SchedModel][]int{
		config.SchedBase:     {1, 2, 2, 3},
		config.SchedTwoCycle: {1, 3, 3, 5},
		config.SchedMOP:      {1, 3, 2, 3},
	} {
		s := replay(t, w, defRes(), m)
		if !slices.Equal(s.Issue, want) {
			t.Errorf("%v issues at %v, want %v", m, s.Issue, want)
		}
	}
}

func TestWidthBound(t *testing.T) {
	// Eight independent adds on a 4-wide machine: two full issue groups,
	// makespan 3, for every model (no dependences to stretch).
	uops := make([]Uop, 8)
	for i := range uops {
		uops[i] = tu(isa.ADD)
	}
	w := twin(uops...)
	cycles, out := solveAll(t, w, defRes(), 0)
	if !out.Optimal || out.Cycles != 3 {
		t.Errorf("exact = %d (optimal %v), want proven 3", out.Cycles, out.Optimal)
	}
	// Select-free arbitration losers have no mis-woken dependents here,
	// so they simply request again the next cycle.
	for m, c := range cycles {
		if c != 3 {
			t.Errorf("%v = %d, want 3", m, c)
		}
	}
}

func TestUnitBound(t *testing.T) {
	// Four independent muls but only two integer-mul units: two issue
	// cycles, last mul finishes at 2+3 = 5.
	w := twin(tu(isa.MUL), tu(isa.MUL), tu(isa.MUL), tu(isa.MUL))
	_, out := solveAll(t, w, defRes(), 0)
	if !out.Optimal || out.Cycles != 5 {
		t.Errorf("exact = %d (optimal %v), want proven 5", out.Cycles, out.Optimal)
	}
}

func TestPriorityMatters(t *testing.T) {
	// A long-latency chain competing with filler: the optimum must start
	// the critical op first even though age order favors the fillers.
	// div (20) feeding an add, plus six independent adds: critical path
	// 1+20+1 = issue div at 1, dependent add at 21 -> makespan 22.
	uops := []Uop{tu(isa.DIV)}
	for i := 0; i < 6; i++ {
		uops = append(uops, tu(isa.ADD))
	}
	uops = append(uops, tu(isa.ADD, 0))
	w := twin(uops...)
	_, out := solveAll(t, w, defRes(), 0)
	if !out.Optimal || out.Cycles != 22 {
		t.Errorf("exact = %d (optimal %v), want proven 22", out.Cycles, out.Optimal)
	}
}

func TestSelectFreePenalty(t *testing.T) {
	// Two-wide: adds 0 and 1 win cycle 1, add 2 loses after waking its
	// dependent add 3 speculatively. Base issues 2 then 3 back to back
	// (makespan 4). Squash-dep squashes add 3 until add 2's grant-time
	// rebroadcast, which costs one cycle (5). Scoreboard lets add 3
	// issue beside add 2 at cycle 2, detects the invalid issue two
	// cycles later, and reissues it after the replay penalty (7). The
	// optimum issues the chain head first (3).
	res := defRes()
	res.Width = 2
	w := twin(tu(isa.ADD), tu(isa.ADD), tu(isa.ADD), tu(isa.ADD, 2))
	cycles, out := solveAll(t, w, res, 0)
	for m, want := range map[config.SchedModel]int{
		config.SchedBase:                 4,
		config.SchedSelectFreeSquashDep:  5,
		config.SchedSelectFreeScoreboard: 7,
	} {
		if cycles[m] != want {
			t.Errorf("%v = %d, want %d", m, cycles[m], want)
		}
	}
	if !out.Optimal || out.Cycles != 3 {
		t.Errorf("exact = %d (optimal %v), want proven 3", out.Cycles, out.Optimal)
	}
}

func TestBudgetDegradesToCertifiedBound(t *testing.T) {
	// A contended window with a tiny node budget must return the seeded
	// base replay plus a certified bound, never hang or panic.
	uops := make([]Uop, 24)
	for i := range uops {
		if i%3 == 0 && i > 0 {
			uops[i] = tu(isa.MUL, int32(i-1))
		} else {
			uops[i] = tu(isa.ADD)
		}
	}
	w := twin(uops...)
	res := defRes()
	seed := replay(t, w, res, config.SchedBase)
	out, err := Solver{NodeBudget: 3}.Solve(context.Background(), w, res, seed)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if out.Cycles > seed.Cycles {
		t.Errorf("budget-cut result %d worse than seed %d", out.Cycles, seed.Cycles)
	}
	if out.Bound > out.Cycles {
		t.Errorf("bound %d above best %d", out.Bound, out.Cycles)
	}
	if out.Bound < 1 {
		t.Errorf("bound %d is not a meaningful lower bound", out.Bound)
	}
	if err := ValidateSchedule(w, res, out.Issue); err != nil {
		t.Errorf("budget-cut schedule infeasible: %v", err)
	}
}

func TestSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	uops := make([]Uop, 40)
	for i := range uops {
		uops[i] = tu(isa.ADD)
	}
	w := twin(uops...)
	res := defRes()
	seed := replay(t, w, res, config.SchedBase)
	out, err := Solver{}.Solve(ctx, w, res, seed)
	if err == nil {
		// The ctx check runs every 1024 nodes; a search this small can
		// legitimately finish first. A non-nil error must be ctx's.
		return
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out.Cycles != seed.Cycles && out.Cycles > seed.Cycles {
		t.Errorf("cancelled result %d worse than seed %d", out.Cycles, seed.Cycles)
	}
}

func TestEmptySeedFallsBack(t *testing.T) {
	w := twin(tu(isa.ADD), tu(isa.ADD, 0))
	out, err := Solver{}.Solve(context.Background(), w, defRes(), Schedule{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !out.Optimal || out.Cycles != 3 {
		t.Errorf("exact = %d (optimal %v), want proven 3", out.Cycles, out.Optimal)
	}
}

func TestValidateScheduleRejects(t *testing.T) {
	w := twin(tu(isa.ADD), tu(isa.ADD, 0))
	res := defRes()
	for name, issue := range map[string][]int{
		"short":          {1},
		"zero cycle":     {0, 2},
		"dep violation":  {1, 1},
		"width overflow": nil, // built below
	} {
		if name == "width overflow" {
			wide := twin(tu(isa.ADD), tu(isa.ADD), tu(isa.ADD), tu(isa.ADD), tu(isa.ADD))
			if err := ValidateSchedule(wide, res, []int{1, 1, 1, 1, 1}); err == nil {
				t.Errorf("%s: accepted", name)
			}
			continue
		}
		if err := ValidateSchedule(w, res, issue); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
