package optsched

import (
	"context"
	"math"

	"macroop/internal/config"
	"macroop/internal/program"
)

// GapSpec bounds one scheduler-vs-optimum gap run over a benchmark.
type GapSpec struct {
	Window     int   // uops per window (default 32, clamped to [MinWindow, MaxWindow])
	Stride     int   // uops between window starts (default Window)
	MaxWindows int   // windows per benchmark (default 8)
	NodeBudget int64 // exact-search node budget per window (default DefaultNodeBudget)
}

// WithDefaults resolves zero fields to the pipeline defaults.
func (s GapSpec) WithDefaults() GapSpec {
	if s.Window == 0 {
		s.Window = 32
	}
	if s.Window < MinWindow {
		s.Window = MinWindow
	}
	if s.Window > MaxWindow {
		s.Window = MaxWindow
	}
	if s.Stride <= 0 {
		s.Stride = s.Window
	}
	if s.MaxWindows <= 0 {
		s.MaxWindows = 8
	}
	if s.NodeBudget <= 0 {
		s.NodeBudget = DefaultNodeBudget
	}
	return s
}

// BenchGap aggregates one benchmark's windows: summed cycles for the
// exact schedule (upper bound), its certified lower bound, and each
// scheduling model's kernel replay of the identical windows. Violations
// counts admissibility failures — a replay error, any schedule failing
// ValidateSchedule, or an exact result exceeding a replay on the same
// window — and must be zero on every run; a non-zero count means the
// kernel issued a uop early or the oracle itself is broken.
type BenchGap struct {
	Bench          string           `json:"bench"`
	Windows        int              `json:"windows"`
	OptimalWindows int              `json:"optimal_windows"` // proven-optimal windows
	OptCycles      int64            `json:"opt_cycles"`      // summed best-found makespans
	BoundCycles    int64            `json:"bound_cycles"`    // summed certified lower bounds
	Nodes          int64            `json:"nodes"`           // summed search nodes
	Violations     int              `json:"violations"`
	Heur           map[string]int64 `json:"heuristic_cycles"` // model name -> summed makespans
}

// GapPct returns the model's cycle overhead over the optimum in percent
// (the headline number of the gap table).
func (g BenchGap) GapPct(m config.SchedModel) float64 {
	if g.OptCycles == 0 {
		return 0
	}
	return float64(g.Heur[m.String()]-g.OptCycles) / float64(g.OptCycles) * 100
}

// RunGap extracts windows from the benchmark program, replays every
// model in Models over each on the production kernel, solves each window
// exactly (seeded with the best valid replay), and aggregates.
// Cancelling the context returns the partial aggregate plus ctx.Err().
func RunGap(ctx context.Context, p *program.Program, m config.Machine, spec GapSpec) (BenchGap, error) {
	spec = spec.WithDefaults()
	res := ResourcesFrom(m)
	g := BenchGap{Bench: p.Name, Heur: make(map[string]int64, len(Models))}
	for _, model := range Models {
		g.Heur[model.String()] = 0
	}
	solver := Solver{NodeBudget: spec.NodeBudget}

	wins := Extract(p, m, ExtractSpec{Window: spec.Window, Stride: spec.Stride, MaxWindows: spec.MaxWindows})
	cycles := make([]int, len(Models)) // per model; 0 = no valid replay
	for wi := range wins {
		w := &wins[wi]
		if err := ctx.Err(); err != nil {
			return g, err
		}
		best := Schedule{Cycles: math.MaxInt}
		for mi, model := range Models {
			s, err := Replay(w, res, model)
			if err == nil {
				err = ValidateSchedule(w, res, s.Issue)
			}
			if err != nil {
				g.Violations++
				cycles[mi] = 0
				continue
			}
			cycles[mi] = s.Cycles
			if s.Cycles < best.Cycles {
				best = s
			}
		}
		out, err := solver.Solve(ctx, w, res, best)
		if err != nil {
			return g, err
		}
		if err := ValidateSchedule(w, res, out.Issue); err != nil {
			g.Violations++
		}
		g.Windows++
		if out.Optimal {
			g.OptimalWindows++
		}
		g.OptCycles += int64(out.Cycles)
		g.BoundCycles += int64(out.Bound)
		g.Nodes += out.Nodes
		for mi, model := range Models {
			g.Heur[model.String()] += int64(cycles[mi])
			if cycles[mi] > 0 && out.Cycles > cycles[mi] {
				g.Violations++
			}
		}
	}
	return g, nil
}
