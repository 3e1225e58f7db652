package optsched

import (
	"fmt"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/sched"
)

// Models lists the scheduling models the gap table grades, in display
// order: the paper's Figure 16 set.
var Models = []config.SchedModel{config.SchedBase, config.SchedTwoCycle, config.SchedMOP,
	config.SchedSelectFreeSquashDep, config.SchedSelectFreeScoreboard}

// Schedule is a complete issue-time assignment for one window.
type Schedule struct {
	Issue  []int // per-uop issue cycle, >= 1
	Cycles int   // makespan: the cycle by which every result is available
}

// mopScope is the macro-op pairing scope in instructions (the paper's
// 2-group × 4-wide = 8-instruction detection scope).
const mopScope = 8

// replayCycleLimit bounds one window replay: a 64-uop window settles in
// a few thousand cycles, so a replay still running has lost a wakeup.
const replayCycleLimit = 1 << 16

// effLat is a uop's effective completion latency: at least one cycle
// (STD's architectural latency is 0 but its slot still spans a cycle).
func effLat(u *Uop) int {
	if u.Lat < 1 {
		return 1
	}
	return u.Lat
}

// normalized clamps a resource vector so every class has at least one
// unit and the width is at least one — the kernel replays and the exact
// solver schedule against the same normalized vector, which is what
// keeps the admissibility invariant meaningful on degenerate configs.
func (r Resources) normalized() Resources {
	if r.Width < 1 {
		r.Width = 1
	}
	for c := range r.Units {
		if r.Units[c] < 1 {
			r.Units[c] = 1
		}
	}
	if r.ReplayPenalty < 1 {
		r.ReplayPenalty = 1
	}
	return r
}

// makespan computes the completion cycle of a full issue assignment.
func makespan(w *Window, issue []int) int {
	m := 0
	for i := range w.Uops {
		if f := issue[i] + effLat(&w.Uops[i]); f > m {
			m = f
		}
	}
	return m
}

// Replay schedules the window on sched.NewBit, the kernel every
// simulation runs, under the given model: each resource-consuming uop is
// inserted at cycle 0 with its in-window producers as sources (MOP pairs
// from mopPairs share an entry), loads hit the DL1, and a uop issues at
// its entry's final grant plus its op index. Free uops (STD) are not
// scheduler entries, since the core fuses each STD into its STA, so they
// issue at their ready time, as in the exact solver. Replay fails on a
// kernel error or a window not settled within replayCycleLimit cycles.
func Replay(w *Window, res Resources, model config.SchedModel) (Schedule, error) {
	res = res.normalized()
	n := len(w.Uops)
	k := sched.NewBit(sched.Config{
		Model:         model,
		Width:         res.Width,
		FU:            res.Units,
		ReplayPenalty: res.ReplayPenalty,
		Window:        n,
	})
	pair := mopPairs(w, model)
	ent := make([]*sched.Entry, n)
	opIdx := make([]int, n) // the uop's op index within its entry
	var srcs []sched.SrcSpec
	for i := range w.Uops {
		u := &w.Uops[i]
		if !consumes(u.Class) {
			continue
		}
		info := sched.OpInfo{Seq: u.Seq, FU: u.Class, Latency: effLat(u), IsLoad: u.Op.IsLoad()}
		if h := pair[i]; h >= 0 && h < i {
			// The head is the tail's only in-window producer, which the
			// fused entry satisfies internally.
			ent[i], opIdx[i] = ent[h], 1
			k.AttachTail(ent[i], info, nil)
			continue
		}
		srcs = srcs[:0]
		for _, d := range u.Deps {
			if ent[d] != nil {
				srcs = append(srcs, sched.SrcSpec{Prod: ent[d], ProdOp: opIdx[d]})
			}
		}
		ent[i] = k.Insert(info, srcs, pair[i] > i)
	}

	for now := int64(1); k.Occupied() > 0; now++ {
		if now > replayCycleLimit {
			return Schedule{}, fmt.Errorf("optsched: %v replay of the %s window at seq %d did not settle within %d cycles",
				model, w.Bench, w.Start, replayCycleLimit)
		}
		for _, g := range k.Tick(now) {
			op := g.Entry.Op(g.OpIdx)
			// As in the core, an invalidly issued load probes no cache
			// and is reissued; a valid one hits.
			if op.IsLoad && k.OperandsValid(g.Entry) {
				k.SetLoadResult(g.Entry, g.OpIdx, g.Cycle+int64(op.Latency), g.Cycle)
			}
		}
		if err := k.Err(); err != nil {
			return Schedule{}, err
		}
	}

	issue := make([]int, n)
	for i := range w.Uops {
		if e := ent[i]; e != nil {
			issue[i] = int(e.Grant()) + opIdx[i]
			continue
		}
		issue[i] = 1
		for _, d := range w.Uops[i].Deps {
			if r := issue[d] + effLat(&w.Uops[d]); r > issue[i] {
				issue[i] = r
			}
		}
	}
	return Schedule{Issue: issue, Cycles: makespan(w, issue)}, nil
}

// mopPairs returns each uop's macro-op partner under the model, or -1:
// a head's partner is its (later) tail and a tail's its (earlier) head.
// Only SchedMOP pairs, greedily in program order: a value-generating
// candidate head with the first candidate within mopScope whose only
// in-window producer is that head, so no third producer can hold the
// fused entry back.
func mopPairs(w *Window, model config.SchedModel) []int {
	pair := make([]int, len(w.Uops))
	for i := range pair {
		pair[i] = -1
	}
	for head := range pair {
		if model != config.SchedMOP || pair[head] >= 0 || !w.Uops[head].Op.IsValueGenCandidate() {
			continue
		}
		for tail := head + 1; tail < len(pair) && tail < head+mopScope; tail++ {
			t := &w.Uops[tail]
			if pair[tail] < 0 && t.Op.IsMOPCandidate() && len(t.Deps) == 1 && int(t.Deps[0]) == head {
				pair[head], pair[tail] = tail, head
				break
			}
		}
	}
	return pair
}

// ValidateSchedule checks that an issue assignment is feasible in the
// relaxed base-latency window model: every uop issues at cycle >= 1, no
// earlier than each producer's issue plus the producer's effective
// latency, and no cycle exceeds the issue width or any unit count
// (ClassNone uops are exempt from capacity). Every exact-solver schedule
// must pass, and so must every kernel replay: a replay that fails means
// the kernel issued a uop before its producer completed, which the gap
// pipeline counts as a violation.
func ValidateSchedule(w *Window, res Resources, issue []int) error {
	res = res.normalized()
	if len(issue) != len(w.Uops) {
		return fmt.Errorf("optsched: schedule has %d issue slots for %d uops", len(issue), len(w.Uops))
	}
	width := make(map[int]int)
	units := make(map[int]*[isa.NumClasses]int)
	for i := range w.Uops {
		u := &w.Uops[i]
		if issue[i] < 1 {
			return fmt.Errorf("optsched: uop %d issues at cycle %d (< 1)", i, issue[i])
		}
		for _, d := range u.Deps {
			dj := int(d)
			if need := issue[dj] + effLat(&w.Uops[dj]); issue[i] < need {
				return fmt.Errorf("optsched: uop %d issues at %d before producer %d completes at %d", i, issue[i], dj, need)
			}
		}
		if !consumes(u.Class) {
			continue
		}
		width[issue[i]]++
		if width[issue[i]] > res.Width {
			return fmt.Errorf("optsched: cycle %d issues %d uops (width %d)", issue[i], width[issue[i]], res.Width)
		}
		cu := units[issue[i]]
		if cu == nil {
			cu = new([isa.NumClasses]int)
			units[issue[i]] = cu
		}
		cu[u.Class]++
		if cu[u.Class] > res.Units[u.Class] {
			return fmt.Errorf("optsched: cycle %d issues %d uops of class %d (%d units)", issue[i], cu[u.Class], u.Class, res.Units[u.Class])
		}
	}
	return nil
}
