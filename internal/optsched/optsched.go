// Package optsched is the optimal-schedule oracle: an exact
// branch-and-bound scheduler over dependence-respecting issue orders on
// bounded windows (up to 64 uops) of the committed instruction stream,
// plus a driver that replays the same windows on the production
// scheduler kernel (sched.NewBit) under each of the paper's scheduling
// models. Comparing the two yields the scheduler-vs-optimum gap table
// the paper never had: how far each relaxed scheduling loop, as this
// simulator implements it, sits from the true optimum, not just from
// the other models.
//
// The window model deliberately abstracts the full pipeline down to the
// scheduling subproblem the exact solver and the kernel share: a
// window's uops are all present in the issue queue at cycle 0 and
// selectable from cycle 1 (perfect fetch/rename), loads hit the DL1, and
// the per-cycle resources are the machine's issue width and functional
// unit counts. Every kernel schedule must be feasible under the relaxed
// (base-latency) constraint set the exact solver optimizes over, which
// is what makes the oracle admissible: optimum <= every replay, on every
// window (proven by the property tests). A replay that is not feasible
// means the kernel issued a uop before its producer completed.
package optsched

import (
	"fmt"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/isa"
	"macroop/internal/program"
)

// MaxWindow is the largest supported window size: scheduled-set state is
// a 64-bit mask in the exact solver.
const MaxWindow = 64

// MinWindow is the smallest window the gap pipeline accepts. (The exact
// solver itself handles any size >= 1; tests use tiny windows.)
const MinWindow = 4

// Uop is one dynamic instruction of a window. Deps are window-relative
// producer indices, each strictly less than the uop's own index —
// windows are dependence-closed by construction because dependences in
// the committed stream always point backwards.
type Uop struct {
	Seq   int64     // dynamic sequence number in the committed stream
	PC    int       // static instruction index
	Op    isa.Op    // opcode (for rendering and MOP candidacy)
	Class isa.Class // functional-unit class (resource consumption)
	Lat   int       // window-model latency (loads include the DL1 hit)
	Deps  []int32   // window-relative producer indices, each < own index
}

// Window is one bounded, dependence-closed slice of a benchmark's
// committed uop stream.
type Window struct {
	Bench string // benchmark name (labelling only)
	Start int64  // Seq of the first uop
	Uops  []Uop
}

// Len returns the number of uops in the window.
func (w *Window) Len() int { return len(w.Uops) }

// Validate checks the dependence-closure invariant every extracted (or
// fuzzed) window must satisfy: every intra-window producer precedes its
// consumer, and latencies/classes are sane. The fuzz harness asserts it
// on every window extraction ever produces.
func (w *Window) Validate() error {
	if len(w.Uops) == 0 {
		return fmt.Errorf("optsched: empty window")
	}
	if len(w.Uops) > MaxWindow {
		return fmt.Errorf("optsched: window of %d uops exceeds the %d-uop bound", len(w.Uops), MaxWindow)
	}
	for i, u := range w.Uops {
		if u.Lat < 0 {
			return fmt.Errorf("optsched: uop %d has negative latency %d", i, u.Lat)
		}
		if u.Class >= isa.NumClasses {
			return fmt.Errorf("optsched: uop %d has invalid class %d", i, u.Class)
		}
		for _, d := range u.Deps {
			if d < 0 || int(d) >= i {
				return fmt.Errorf("optsched: uop %d (seq %d) depends on %d — window not dependence-closed", i, u.Seq, d)
			}
		}
	}
	return nil
}

// Resources is the per-cycle capacity the window model schedules
// against: total issue width plus per-class functional unit counts.
// ClassNone uops (STD) consume neither width nor a unit — the core
// fuses each STD into its STA, so it never occupies a scheduler entry.
type Resources struct {
	Width         int
	Units         [isa.NumClasses]int
	ReplayPenalty int // cycles before a replayed kernel entry may reissue
}

// ResourcesFrom extracts the window model's resource vector from a
// machine configuration (Table 1 by default).
func ResourcesFrom(m config.Machine) Resources {
	var r Resources
	r.Width = m.Width
	r.Units[isa.ClassIntALU] = m.IntALUs
	r.Units[isa.ClassIntMul] = m.IntMuls
	r.Units[isa.ClassFP] = m.FPALUs
	r.Units[isa.ClassFPMul] = m.FPMuls
	r.Units[isa.ClassMem] = m.MemPorts
	r.ReplayPenalty = m.ReplayPenalty
	if r.ReplayPenalty < 1 {
		r.ReplayPenalty = 1
	}
	return r
}

// consumes reports whether class c occupies an issue slot and a unit.
func consumes(c isa.Class) bool { return c != isa.ClassNone }

// uopLat assigns the window-model latency: the opcode's fixed execution
// latency, with loads additionally paying the DL1 hit latency (the
// window model assumes first-level hits; the real hierarchy's variable
// latency is a documented abstraction gap).
func uopLat(op isa.Op, m config.Machine) int {
	lat := op.Latency()
	if op.IsLoad() {
		lat += m.Mem.DL1.Latency
	}
	return lat
}

// streamUop is one collected committed uop with absolute (stream-index)
// dependences, before windows are sliced out of the stream.
type streamUop struct {
	seq  int64
	pc   int
	op   isa.Op
	lat  int
	deps [4]int32 // absolute stream indices; -1 = unused
	ndep int
}

func (s *streamUop) addDep(d int32) {
	if d < 0 {
		return
	}
	for i := 0; i < s.ndep; i++ {
		if s.deps[i] == d {
			return
		}
	}
	if s.ndep < len(s.deps) {
		s.deps[s.ndep] = d
		s.ndep++
	}
}

// ExtractSpec bounds a window extraction.
type ExtractSpec struct {
	// Window is the uops per window (clamped to [1, MaxWindow]).
	Window int
	// Stride is the uop distance between consecutive window starts
	// (<= 0 means Window: non-overlapping tiling).
	Stride int
	// MaxWindows caps how many windows are extracted (<= 0 means 16).
	MaxWindows int
	// MaxInsts caps how many committed instructions are executed while
	// collecting uops (<= 0 means exactly enough for MaxWindows).
	MaxInsts int64
}

func (s ExtractSpec) withDefaults() ExtractSpec {
	if s.Window < 1 {
		s.Window = 1
	}
	if s.Window > MaxWindow {
		s.Window = MaxWindow
	}
	if s.Stride <= 0 {
		s.Stride = s.Window
	}
	if s.MaxWindows <= 0 {
		s.MaxWindows = 16
	}
	return s
}

// Extract runs the program functionally and slices its committed uop
// stream into dependence-closed windows. Dependences recorded per uop:
// register RAW (nearest earlier writer of each source) and the STA ->
// STD pairing. There is no memory RAW edge: the simulated core never
// makes a load wait on a store in its scheduler, so the oracle must not
// charge the schedulers for a constraint the machine does not have.
// HALT terminates collection; a functional fault (e.g. a wild PC on a
// fuzzed program) simply ends the stream with whatever was collected.
// Extract never panics and every returned window satisfies
// Window.Validate.
func Extract(p *program.Program, m config.Machine, spec ExtractSpec) []Window {
	spec = spec.withDefaults()
	need := int64(spec.Window + (spec.MaxWindows-1)*spec.Stride)
	budget := spec.MaxInsts
	if budget <= 0 || budget > need {
		budget = need
	}

	stream := collectStream(p, m, budget)

	var wins []Window
	for start := 0; start+spec.Window <= len(stream) && len(wins) < spec.MaxWindows; start += spec.Stride {
		wins = append(wins, sliceWindow(p.Name, stream[start:start+spec.Window], start))
	}
	return wins
}

// collectStream executes up to budget committed instructions, recording
// each uop with its absolute-dependence edges.
func collectStream(p *program.Program, m config.Machine, budget int64) []streamUop {
	e := functional.NewExecutor(p)
	var d functional.DynInst

	stream := make([]streamUop, 0, budget)
	var lastWriter [isa.NumRegs]int32 // absolute index of last writer, -1 = outside
	for i := range lastWriter {
		lastWriter[i] = -1
	}

	for int64(len(stream)) < budget {
		if err := e.Step(&d); err != nil {
			break // halted or faulted: extract from what we have
		}
		idx := int32(len(stream))
		u := streamUop{seq: d.Seq, pc: d.PC, op: d.Inst.Op, lat: uopLat(d.Inst.Op, m)}
		if r := d.Inst.Src1; r != isa.NoReg && r.Valid() && r != isa.R0 {
			u.addDep(lastWriter[r])
		}
		if r := d.Inst.Src2; r != isa.NoReg && r.Valid() && r != isa.R0 {
			u.addDep(lastWriter[r])
		}
		if d.Inst.Op == isa.STD && idx > 0 && stream[idx-1].op == isa.STA {
			u.addDep(idx - 1) // the STD pairs with the immediately preceding STA
		}
		if d.Inst.WritesReg() {
			lastWriter[d.Inst.Dest] = idx
		}
		stream = append(stream, u)
	}
	return stream
}

// sliceWindow converts one contiguous stream slice into a Window,
// dropping dependences that point before the window (their producers
// are architecturally complete by assumption) and re-basing the rest.
func sliceWindow(bench string, s []streamUop, base int) Window {
	w := Window{Bench: bench, Uops: make([]Uop, len(s))}
	w.Start = s[0].seq
	for i, su := range s {
		u := Uop{Seq: su.seq, PC: su.pc, Op: su.op, Class: su.op.FUClass(), Lat: su.lat}
		for k := 0; k < su.ndep; k++ {
			if rel := int(su.deps[k]) - base; rel >= 0 {
				u.Deps = append(u.Deps, int32(rel))
			}
		}
		w.Uops[i] = u
	}
	return w
}
