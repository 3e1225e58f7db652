package optsched

import (
	"context"
	"math"

	"macroop/internal/config"
	"macroop/internal/isa"
)

// DefaultNodeBudget is the per-window search-node budget used when a
// Solver does not set one. On the benchmark windows the vast majority of
// 32-uop searches close in well under this.
const DefaultNodeBudget = 200_000

// memoCap bounds the dominance memo; past it the search stops inserting
// (still sound, just prunes less).
const memoCap = 1 << 20

// Solver is the exact branch-and-bound window scheduler.
type Solver struct {
	// NodeBudget caps search nodes per Solve; <= 0 means
	// DefaultNodeBudget. On exhaustion Solve degrades to a certified
	// bound instead of hanging.
	NodeBudget int64
}

// Outcome is the result of one exact search.
type Outcome struct {
	// Cycles is the makespan of the best schedule found — an upper
	// bound on the optimum, and (because the search is seeded with the
	// best kernel replay) never worse than any replay.
	Cycles int
	// Bound is a certified lower bound on the optimal makespan: when
	// the search completes it equals Cycles; when the node budget (or
	// the context) cuts the search it is min(Cycles, the smallest
	// admissible lower bound over all abandoned subtrees).
	Bound int
	// Optimal reports Bound == Cycles: the schedule is proven optimal.
	Optimal bool
	// Nodes is the number of search nodes expanded.
	Nodes int64
	// Issue is the best schedule found (always passes ValidateSchedule).
	Issue []int
}

// Gap returns Cycles - Bound, the residual optimality gap in cycles
// (zero when proven optimal).
func (o Outcome) Gap() int { return o.Cycles - o.Bound }

// Solve finds the minimum-makespan dependence-respecting schedule of the
// window under the normalized resource vector, seeded with an incumbent
// schedule (callers pass the best kernel replay, which makes the oracle
// admissible by construction: the result can never exceed it). A
// missing seed falls back to the base model's replay.
//
// The search branches only on cycles where the ready set exceeds
// capacity — when everything ready fits, issuing all of it is dominant
// (resources are renewable per cycle, so pulling a ready uop into an
// idle slot can only relax later constraints). ClassNone uops issue the
// moment they are ready. Subtrees are pruned by an admissible bound
// (critical path over remaining uops, per-class and width resource
// counts) and by a dominance memo keyed on the issued set plus each
// unissued uop's cycle-relative readiness (shift-invariant, so a state
// reached later than an already-explored copy can be cut).
//
// On context cancellation Solve returns the same certified Outcome it
// returns on budget exhaustion, plus ctx.Err().
func (s Solver) Solve(ctx context.Context, w *Window, res Resources, seed Schedule) (Outcome, error) {
	res = res.normalized()
	n := len(w.Uops)
	if n == 0 {
		return Outcome{Optimal: true}, nil
	}
	if len(seed.Issue) != n {
		var err error
		if seed, err = Replay(w, res, config.SchedBase); err != nil {
			return Outcome{}, err
		}
	}
	budget := s.NodeBudget
	if budget <= 0 {
		budget = DefaultNodeBudget
	}

	b := &bnb{
		ctx:       ctx,
		w:         w,
		res:       res,
		n:         n,
		lat:       make([]int, n),
		issue:     make([]int32, n),
		best:      seed.Cycles,
		bestIssue: make([]int32, n),
		budget:    budget,
		minOpen:   math.MaxInt,
		memo:      make(map[string]uint64),
		keyBuf:    make([]byte, 8+n),
		est:       make([]int, n),
	}
	for i := range w.Uops {
		b.lat[i] = effLat(&w.Uops[i])
		b.bestIssue[i] = int32(seed.Issue[i])
	}

	b.expand(1, 0)

	out := Outcome{Cycles: b.best, Bound: b.best, Nodes: b.nodes, Issue: make([]int, n)}
	for i, v := range b.bestIssue {
		out.Issue[i] = int(v)
	}
	if b.exhausted || b.cancelled {
		if b.minOpen < out.Bound {
			out.Bound = b.minOpen
		}
	}
	out.Optimal = out.Bound == out.Cycles
	if b.cancelled {
		return out, ctx.Err()
	}
	return out, nil
}

// bnb is the mutable search state of one Solve call.
type bnb struct {
	ctx context.Context
	w   *Window
	res Resources
	n   int
	lat []int // effective (and base-edge) latency per uop

	issue  []int32 // 0 = unissued
	numIss int

	best      int
	bestIssue []int32
	nodes     int64
	budget    int64
	exhausted bool
	cancelled bool
	minOpen   int // min admissible LB over abandoned subtrees

	memo   map[string]uint64 // state key -> packed (cycle, relative completion)
	keyBuf []byte
	est    []int // lower-bound scratch
}

// expand explores the subtree rooted at the current partial schedule,
// with c the next undecided cycle and maxFin the completion cycle of
// everything issued so far.
func (b *bnb) expand(c, maxFin int) {
	b.nodes++
	if b.nodes&1023 == 0 && b.ctx.Err() != nil {
		b.cancelled = true
	}
	if b.nodes > b.budget {
		b.exhausted = true
	}
	if b.exhausted || b.cancelled {
		if lb := b.lowerBound(c, maxFin); lb < b.minOpen {
			b.minOpen = lb
		}
		return
	}

	var auto []int32 // ClassNone uops issued here, undone on return
	defer func() {
		for _, i := range auto {
			b.issue[i] = 0
			b.numIss--
		}
	}()

	// Advance to the next decision: auto-issue free uops, skip cycles
	// with nothing ready.
	for {
		if b.numIss == b.n {
			if maxFin < b.best {
				b.best = maxFin
				copy(b.bestIssue, b.issue)
			}
			return
		}
		minNext := math.MaxInt
		progressed := false
		for i := 0; i < b.n; i++ {
			if b.issue[i] != 0 {
				continue
			}
			r, blocked := b.readyAt(i)
			if blocked {
				continue
			}
			if !consumes(b.w.Uops[i].Class) && r <= c {
				// Free uop: issuing at its exact ready time is dominant.
				b.issue[i] = int32(r)
				b.numIss++
				auto = append(auto, int32(i))
				if f := r + b.lat[i]; f > maxFin {
					maxFin = f
				}
				progressed = true
				continue
			}
			if r < c {
				r = c
			}
			if r < minNext {
				minNext = r
			}
		}
		if progressed {
			continue // readiness may have cascaded
		}
		if minNext > c {
			c = minNext
			continue
		}
		break // at least one consuming uop is ready at c
	}

	lb := b.lowerBound(c, maxFin)
	if lb >= b.best {
		return // incumbent cut (sound: cannot beat the best schedule)
	}
	if !b.memoVisit(c, maxFin) {
		return // a dominating copy of this state was already explored
	}

	// Gather the ready consuming set.
	var ready []int32
	var cnt [isa.NumClasses]int
	for i := 0; i < b.n; i++ {
		if b.issue[i] != 0 || !consumes(b.w.Uops[i].Class) {
			continue
		}
		if r, blocked := b.readyAt(i); !blocked && r <= c {
			ready = append(ready, int32(i))
			cnt[b.w.Uops[i].Class]++
		}
	}

	fits := len(ready) <= b.res.Width
	for cl := range cnt {
		if cnt[cl] > b.res.Units[cl] {
			fits = false
		}
	}
	if fits {
		// Dominant move: issue the entire ready set this cycle.
		nf := maxFin
		for _, i := range ready {
			b.issue[i] = int32(c)
			b.numIss++
			if f := c + b.lat[i]; f > nf {
				nf = f
			}
		}
		b.expand(c+1, nf)
		for _, i := range ready {
			b.issue[i] = 0
			b.numIss--
		}
		return
	}

	// Contention: branch over every maximal feasible subset.
	var used [isa.NumClasses]int
	b.subsets(ready, 0, c, maxFin, 0, &used, lb)
}

// readyAt returns the earliest cycle uop i could issue given the issued
// producers, or blocked if any producer is unissued.
func (b *bnb) readyAt(i int) (cycle int, blocked bool) {
	r := 1
	for _, d := range b.w.Uops[i].Deps {
		if b.issue[d] == 0 {
			return 0, true
		}
		if v := int(b.issue[d]) + b.lat[d]; v > r {
			r = v
		}
	}
	return r, false
}

// subsets enumerates maximal capacity-feasible subsets of the ready set
// (include-first, so the first leaf approximates the age-ordered greedy
// schedule and tightens the incumbent early). parentLB certifies every
// subtree skipped when the budget runs out mid-enumeration.
func (b *bnb) subsets(ready []int32, pos, c, maxFin, widthUsed int, used *[isa.NumClasses]int, parentLB int) {
	b.nodes++
	if b.nodes > b.budget {
		b.exhausted = true
	}
	if b.exhausted || b.cancelled {
		if parentLB < b.minOpen {
			b.minOpen = parentLB
		}
		return
	}
	if widthUsed == b.res.Width {
		// Width saturated: the subset is maximal no matter what remains.
		b.expand(c+1, maxFin)
		return
	}
	if pos == len(ready) {
		// Keep only maximal subsets: if any excluded ready uop still
		// fits, a strictly better (dominating) sibling includes it.
		for _, i := range ready {
			if b.issue[i] == 0 && widthUsed < b.res.Width && used[b.w.Uops[i].Class] < b.res.Units[b.w.Uops[i].Class] {
				return
			}
		}
		b.expand(c+1, maxFin)
		return
	}
	i := ready[pos]
	cl := b.w.Uops[i].Class
	if widthUsed < b.res.Width && used[cl] < b.res.Units[cl] {
		b.issue[i] = int32(c)
		b.numIss++
		used[cl]++
		nf := maxFin
		if f := c + b.lat[i]; f > nf {
			nf = f
		}
		b.subsets(ready, pos+1, c, nf, widthUsed+1, used, parentLB)
		used[cl]--
		b.issue[i] = 0
		b.numIss--
	}
	b.subsets(ready, pos+1, c, maxFin, widthUsed, used, parentLB)
}

// memoVisit records the state in the dominance memo and reports whether
// it must be explored. States are keyed by the issued mask plus each
// unissued uop's readiness offset relative to c (clamped to a byte) —
// shift-invariant, so two states with the same key pose the same
// residual scheduling problem relative to their cycles. A state is cut
// when an explored copy dominates it on BOTH coordinates: earlier (or
// equal) cycle AND earlier (or equal) issued-work completion relative to
// its cycle — the dominating copy reaches every completion this state
// can, no later.
func (b *bnb) memoVisit(c, maxFin int) bool {
	var mask uint64
	for i := 0; i < b.n; i++ {
		if b.issue[i] != 0 {
			mask |= 1 << uint(i)
			b.keyBuf[8+i] = 0
			continue
		}
		kr := 0
		for _, d := range b.w.Uops[i].Deps {
			if b.issue[d] == 0 {
				continue
			}
			if v := int(b.issue[d]) + b.lat[d] - c; v > kr {
				kr = v
			}
		}
		if kr > 255 {
			kr = 255
		}
		b.keyBuf[8+i] = byte(kr)
	}
	for k := 0; k < 8; k++ {
		b.keyBuf[k] = byte(mask >> (8 * k))
	}
	relFin := maxFin - c
	if relFin < 0 {
		relFin = 0 // a completion below c is irrelevant: remaining work finishes after c
	}
	key := string(b.keyBuf)
	if prev, ok := b.memo[key]; ok {
		prevC, prevRel := int(prev>>32), int(prev&0xffffffff)
		if prevC <= c && prevRel <= relFin {
			return false
		}
		b.memo[key] = uint64(c)<<32 | uint64(relFin)
		return true
	}
	if len(b.memo) < memoCap {
		b.memo[key] = uint64(c)<<32 | uint64(relFin)
	}
	return true
}

// lowerBound returns an admissible lower bound on any completion of the
// current partial schedule: the max of (a) the completion of what is
// already issued, (b) a critical-path DP over unissued uops (window
// order is topological, so one forward pass suffices), and (c) per-class
// and total-width resource counts — the remaining uops of a class need
// ceil(m/units) distinct cycles starting no earlier than c.
func (b *bnb) lowerBound(c, maxFin int) int {
	lb := maxFin
	var cnt [isa.NumClasses]int
	var minLatCls [isa.NumClasses]int
	for i := range minLatCls {
		minLatCls[i] = math.MaxInt
	}
	totalCons, minLatAll := 0, math.MaxInt
	for i := 0; i < b.n; i++ {
		if b.issue[i] != 0 {
			b.est[i] = int(b.issue[i])
			continue
		}
		u := &b.w.Uops[i]
		e := 1
		if consumes(u.Class) {
			e = c // decided cycles are behind us for resource-consuming uops
		}
		for _, d := range u.Deps {
			if v := b.est[d] + b.lat[d]; v > e {
				e = v
			}
		}
		b.est[i] = e
		if f := e + b.lat[i]; f > lb {
			lb = f
		}
		if consumes(u.Class) {
			cl := u.Class
			cnt[cl]++
			totalCons++
			if b.lat[i] < minLatCls[cl] {
				minLatCls[cl] = b.lat[i]
			}
			if b.lat[i] < minLatAll {
				minLatAll = b.lat[i]
			}
		}
	}
	if totalCons > 0 {
		if v := c + (totalCons+b.res.Width-1)/b.res.Width - 1 + minLatAll; v > lb {
			lb = v
		}
		for cl := range cnt {
			if cnt[cl] == 0 {
				continue
			}
			if v := c + (cnt[cl]+b.res.Units[cl]-1)/b.res.Units[cl] - 1 + minLatCls[cl]; v > lb {
				lb = v
			}
		}
	}
	return lb
}
