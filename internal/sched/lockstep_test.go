package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
)

// Lockstep test of the production kernel. Two BitSchedulers that differ
// only in age-ring geometry are driven with byte-identical call scripts —
// inserts, MOP attaches/cancels, load results, releases — and must agree
// every cycle on the grant stream, occupancy, operand validity and
// dependence queries, on each entry's final state and grant, and at the
// end on all stats. Slot numbers are internal, so nothing observable may
// depend on them: the wide kernel's ring holds every age of the run
// without wrapping, while the tight one is a 64-slot ring that wraps
// every 64 inserts. Like a full 64-entry ROB, the script stops inserting
// while the oldest unsettled entry is 64 ages back, which keeps the live
// age span within the tight ring.
//
// The grant stream is also checked against the model rules every cycle
// (issue width, functional units, occupancy), and each entry once it
// settles against its producers: their results were actually available
// at its grant, it was granted no sooner than the model's scheduling loop
// can wake it, and a MOP's ops issued in consecutive cycles. After the
// last insert the script drains the queue, so every entry must settle.
//
// The script reacts only to outputs the kernels must agree on, so any
// divergence is pinpointed at the first cycle it occurs.

// duoSrc is one source operand of a scripted entry: the producer's
// script index and which of its ops produces the value.
type duoSrc struct{ prod, op int }

// duoEntry pairs the two kernels' handles for one scripted instruction.
type duoEntry struct {
	a, b     *Entry
	released bool
	// missDelay is the load's extra latency beyond the assumed hit
	// (decided at insert, applied at grant).
	missDelay int64
	attachBy  int64 // pending MOP head: cycle to attach or cancel by

	ops  []OpInfo // the entry's ops, head first
	srcs []duoSrc // the sources of every op
	// lastIssue is the cycle each op was last granted.
	lastIssue [MaxMOPOps]int64
	// grant and actual are the settled entry's head grant and per-op
	// result cycles, copied before its release because the kernel
	// recycles a released Entry.
	grant  int64
	actual [MaxMOPOps]int64
}

type duo struct {
	t      *testing.T
	cfg    Config
	a, b   *BitScheduler
	ents   []*duoEntry
	ixA    map[*Entry]int
	ixB    map[*Entry]int
	rng    *rand.Rand
	maxOps int
	// lo is the script index below which every entry is released.
	lo int

	// Counts of what the script did and saw, for the final stats check.
	inserts, attaches, mops, headGrants int64
	maxOcc                              int
}

// The kernels' Windows: the wide kernel's age ring exceeds every age a
// run inserts, and the tight one is the 64-slot minimum.
const (
	lockstepWideWindow  = 4096
	lockstepTightWindow = 64
)

func newDuo(t *testing.T, model config.SchedModel, iq int, seed int64) *duo {
	cfg := Config{Model: model, Width: 4, IQEntries: iq, ReplayPenalty: 2}
	cfg.FU = [isa.NumClasses]int{2, 1, 2, 2, 1, 4}
	wide, tight := cfg, cfg
	wide.Window = lockstepWideWindow
	tight.Window = lockstepTightWindow
	return &duo{
		t:      t,
		cfg:    cfg,
		a:      NewBit(wide),
		b:      NewBit(tight),
		ixA:    map[*Entry]int{},
		ixB:    map[*Entry]int{},
		rng:    rand.New(rand.NewSource(seed)),
		maxOps: 4,
	}
}

func (d *duo) fatalf(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("[%v] %s", d.cfg.Model, fmt.Sprintf(format, args...))
}

// candidates returns indices eligible as producers: recent, not released.
func (d *duo) candidates() []int {
	lo := len(d.ents) - 48
	if lo < 0 {
		lo = 0
	}
	var out []int
	for i := lo; i < len(d.ents); i++ {
		if !d.ents[i].released {
			out = append(out, i)
		}
	}
	return out
}

// pickSrcs draws up to two producers, skipping any that would close a
// dependence cycle through excl (checking both kernels' DependsOn answer
// against the script's own dependence graph).
func (d *duo) pickSrcs(excl *duoEntry) (sa, sb []SrcSpec, srcs []duoSrc) {
	cands := d.candidates()
	n := d.rng.Intn(3) // 0..2 sources
	for j := 0; j < n && len(cands) > 0; j++ {
		// Half the picks come from the four newest candidates, as most
		// of a program's dependences are short.
		from := cands
		if len(cands) > 4 && d.rng.Intn(2) == 0 {
			from = cands[len(cands)-4:]
		}
		pi := from[d.rng.Intn(len(from))]
		de := d.ents[pi]
		if de == excl {
			continue
		}
		if excl != nil {
			depA := d.a.DependsOn(de.a, excl.a)
			depB := d.b.DependsOn(de.b, excl.b)
			if want := d.dependsOn(pi, excl); depA != want || depB != want {
				d.fatalf("DependsOn(entry %d, its would-be consumer): wide=%v tight=%v, script %v", pi, depA, depB, want)
			}
			if depA {
				continue
			}
		}
		op := 0
		if k := de.a.NumOps(); k > 1 {
			op = d.rng.Intn(k)
		}
		sa = append(sa, SrcSpec{Prod: de.a, ProdOp: op})
		sb = append(sb, SrcSpec{Prod: de.b, ProdOp: op})
		srcs = append(srcs, duoSrc{prod: pi, op: op})
	}
	return sa, sb, srcs
}

// dependsOn reports whether entry i reaches target through sources whose
// producer has not settled, the dependence DependsOn must report: a
// settled producer's edges are severed.
func (d *duo) dependsOn(i int, target *duoEntry) bool {
	seen := map[int]bool{}
	stack := []int{i}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		de := d.ents[j]
		if de == target {
			return true
		}
		if seen[j] || de.released || de.a.Final() {
			continue
		}
		seen[j] = true
		for _, src := range de.srcs {
			stack = append(stack, src.prod)
		}
	}
	return false
}

func (d *duo) insertOne(now int64) {
	var op OpInfo
	pending := false
	var missDelay int64
	switch r := d.rng.Intn(10); {
	case r < 5:
		op = OpInfo{FU: isa.ClassIntALU, Latency: 1}
	case r < 6:
		op = OpInfo{FU: isa.ClassIntMul, Latency: 3}
	case r < 8:
		op = OpInfo{FU: isa.ClassMem, Latency: 3, IsLoad: true}
		switch d.rng.Intn(4) {
		case 0:
			missDelay = 8
		case 1:
			missDelay = 40
		}
	case r < 9:
		op = OpInfo{FU: isa.ClassNone, Latency: 1}
	default:
		op = OpInfo{FU: isa.ClassIntALU, Latency: 1}
		pending = d.cfg.Model == config.SchedMOP
	}
	op.Seq = int64(len(d.ents))
	de := &duoEntry{missDelay: missDelay, ops: []OpInfo{op}}
	if pending {
		de.attachBy = now + 1 + int64(d.rng.Intn(3))
	}
	sa, sb, srcs := d.pickSrcs(nil)
	de.srcs = srcs
	de.a = d.a.Insert(op, sa, pending)
	de.b = d.b.Insert(op, sb, pending)
	d.ixA[de.a] = len(d.ents)
	d.ixB[de.b] = len(d.ents)
	d.ents = append(d.ents, de)
	d.inserts++
	d.maxOcc = max(d.maxOcc, d.a.Occupied())
}

// settlePending attaches or cancels due MOP heads.
func (d *duo) settlePending(now int64) {
	for _, de := range d.ents[d.lo:] {
		if de.attachBy == 0 || de.attachBy > now || de.a.Final() {
			continue
		}
		if !de.a.PendingTail() {
			de.attachBy = 0
			continue
		}
		if d.rng.Intn(10) == 0 {
			d.a.CancelTail(de.a)
			d.b.CancelTail(de.b)
			de.attachBy = 0
			continue
		}
		op := OpInfo{FU: isa.ClassIntALU, Latency: 1, Seq: int64(len(d.ents))}
		sa, sb, srcs := d.pickSrcs(de)
		last := de.a.NumOps()+1 >= d.maxOps || d.rng.Intn(3) != 0
		if last && d.rng.Intn(4) == 0 {
			// A store-address tail (STA): one cycle on a memory port.
			op.FU = isa.ClassMem
		}
		d.a.AttachOp(de.a, op, sa, last)
		d.b.AttachOp(de.b, op, sb, last)
		de.ops = append(de.ops, op)
		de.srcs = append(de.srcs, srcs...)
		d.attaches++
		if last {
			de.attachBy = 0
			d.mops++
		} else {
			de.attachBy = now + 1
		}
	}
}

// step runs one cycle; insert says whether the script still adds entries.
func (d *duo) step(now int64, insert bool) {
	ga := d.a.Tick(now)
	gb := d.b.Tick(now)
	if len(ga) != len(gb) {
		d.fatalf("cycle %d: grant count diverged: wide=%d tight=%d\nwide=%v\ntight=%v",
			now, len(ga), len(gb), d.describe(ga, d.ixA), d.describe(gb, d.ixB))
	}
	for i := range ga {
		ia, ib := d.ixA[ga[i].Entry], d.ixB[gb[i].Entry]
		if ia != ib || ga[i].OpIdx != gb[i].OpIdx || ga[i].Cycle != gb[i].Cycle {
			d.fatalf("cycle %d: grant %d diverged: wide=(ent %d op %d @%d) tight=(ent %d op %d @%d)",
				now, i, ia, ga[i].OpIdx, ga[i].Cycle, ib, gb[i].OpIdx, gb[i].Cycle)
		}
	}
	d.checkGrants(now, ga)
	// Feed back load results exactly as the core would: only validly
	// issued loads probe the cache.
	for i := range ga {
		if ga[i].OpIdx != 0 {
			continue
		}
		de := d.ents[d.ixA[ga[i].Entry]]
		va, vb := d.a.OperandsValid(de.a), d.b.OperandsValid(de.b)
		if va != vb {
			d.fatalf("cycle %d: OperandsValid diverged for entry %d: wide=%v tight=%v", now, d.ixA[de.a], va, vb)
		}
		if de.ops[0].IsLoad && va {
			actual := now + int64(de.a.Op(0).Latency) + de.missDelay
			discover := now + 6
			d.a.SetLoadResult(de.a, 0, actual, discover)
			d.b.SetLoadResult(de.b, 0, actual, discover)
		}
	}
	if oa, ob := d.a.Occupied(), d.b.Occupied(); oa != ob {
		d.fatalf("cycle %d: occupancy diverged: wide=%d tight=%d", now, oa, ob)
	}
	if ha, hb := d.a.HasSpace(1), d.b.HasSpace(1); ha != hb {
		d.fatalf("cycle %d: HasSpace diverged: wide=%v tight=%v", now, ha, hb)
	}
	if ea, eb := d.a.Err(), d.b.Err(); ea != nil || eb != nil {
		d.fatalf("cycle %d: scheduling failure: wide=%v tight=%v", now, ea, eb)
	}
	d.checkOccupancy(now)

	d.settlePending(now)
	hi := len(d.ents)
	if insert {
		for j := d.rng.Intn(5); j > 0 && d.a.HasSpace(1) && d.span() < lockstepTightWindow; j-- {
			d.insertOne(now)
		}
		hi = len(d.ents) - 48
	}
	d.releaseSettled(now, hi)
}

// span is the live age span the next insert extends: the ages from the
// oldest unsettled entry up to the newest. Script indices are ages.
func (d *duo) span() int {
	for i := d.lo; i < len(d.ents); i++ {
		if de := d.ents[i]; !de.released && !de.a.Final() {
			return len(d.ents) - i
		}
	}
	return 0
}

// checkGrants checks one cycle's grants against the machine: no more
// than Width issue slots and each class's unit count, every grant stamped
// with this cycle, and no MOP head issuing before its last op attached.
// Ops a MOP sequences into this cycle hold their slot and unit even if
// the MOP was replayed since.
func (d *duo) checkGrants(now int64, gs []Grant) {
	if len(gs) > d.cfg.Width {
		d.fatalf("cycle %d: %d grants exceed width %d: %v", now, len(gs), d.cfg.Width, d.describe(gs, d.ixA))
	}
	var fu [isa.NumClasses]int
	for _, g := range gs {
		de := d.ents[d.ixA[g.Entry]]
		if g.Cycle != now {
			d.fatalf("cycle %d: entry %d op %d granted for cycle %d", now, d.ixA[g.Entry], g.OpIdx, g.Cycle)
		}
		if g.OpIdx == 0 {
			if g.Entry.PendingTail() {
				d.fatalf("cycle %d: MOP head %d granted while its tail is pending", now, d.ixA[g.Entry])
			}
			if g.Entry.Grant() != now {
				d.fatalf("cycle %d: entry %d granted but records grant %d", now, d.ixA[g.Entry], g.Entry.Grant())
			}
			d.headGrants++
		}
		de.lastIssue[g.OpIdx] = now
		if c := de.ops[g.OpIdx].FU; c != isa.ClassNone {
			fu[c]++
			if fu[c] > d.cfg.FU[c] {
				d.fatalf("cycle %d: %d grants exceed the %d units of class %v: %v",
					now, fu[c], d.cfg.FU[c], c, d.describe(gs, d.ixA))
			}
		}
	}
}

// checkOccupancy checks that the queue holds exactly the unsettled
// entries, within its capacity.
func (d *duo) checkOccupancy(now int64) {
	unsettled := 0
	for _, de := range d.ents[d.lo:] {
		if !de.released && !de.a.Final() {
			unsettled++
		}
	}
	occ := d.a.Occupied()
	if occ != unsettled {
		d.fatalf("cycle %d: occupancy %d, but %d entries are unsettled", now, occ, unsettled)
	}
	if iq := d.cfg.IQEntries; iq > 0 && occ > iq {
		d.fatalf("cycle %d: occupancy %d exceeds capacity %d", now, occ, iq)
	}
	if want := d.cfg.IQEntries == 0 || occ < d.cfg.IQEntries; d.a.HasSpace(1) != want {
		d.fatalf("cycle %d: HasSpace(1)=%v at occupancy %d of %d", now, !want, occ, d.cfg.IQEntries)
	}
}

// loopDelay is the fewest cycles from a producer's grant to a dependent's
// grant under the model (Figure 5, DESIGN §5): the atomic and select-free
// loops wake after the producer's latency, the pipelined ones after at
// least two cycles, and a MOP's single tag after all of its ops.
func (d *duo) loopDelay(p *duoEntry, op int) int64 {
	lat := int64(p.ops[op].Latency)
	switch d.cfg.Model {
	case config.SchedTwoCycle:
		return max(lat, 2)
	case config.SchedMOP:
		if len(p.ops) > 1 {
			return int64(len(p.ops))
		}
		return max(lat, 2)
	}
	return lat
}

// checkSettled checks a settled entry against its producers and records
// its final timing.
func (d *duo) checkSettled(i int) {
	de := d.ents[i]
	e := de.a
	if sa, sb := e.GetState(), de.b.GetState(); sa != sb {
		d.fatalf("entry %d state diverged: wide=%v tight=%v", i, sa, sb)
	}
	if e.Grant() != de.b.Grant() {
		d.fatalf("entry %d final grant diverged: wide=%d tight=%d", i, e.Grant(), de.b.Grant())
	}
	if e.NumOps() != len(de.ops) {
		d.fatalf("entry %d settled with %d ops, %d inserted", i, e.NumOps(), len(de.ops))
	}
	de.grant = e.Grant()
	for k := range de.ops {
		de.actual[k] = e.ActualReady(k)
		if de.lastIssue[k] != de.grant+int64(k) {
			d.fatalf("entry %d op %d last issued at %d, head granted at %d", i, k, de.lastIssue[k], de.grant)
		}
	}
	for _, src := range de.srcs {
		p := d.ents[src.prod]
		if !p.released && !p.a.Final() {
			d.fatalf("entry %d settled before its producer %d (%v)", i, src.prod, p.a.GetState())
		}
		if ready := p.actual[src.op]; de.grant < ready {
			d.fatalf("entry %d granted at %d, before producer %d op %d's result at %d",
				i, de.grant, src.prod, src.op, ready)
		}
		if wake := p.grant + d.loopDelay(p, src.op); de.grant < wake {
			d.fatalf("entry %d granted at %d, before producer %d (granted %d) can wake it at %d",
				i, de.grant, src.prod, p.grant, wake)
		}
	}
}

// releaseSettled checks and releases every entry below index hi that has
// settled and issued all of its ops by now, like the core releasing at
// commit: hi keeps recent entries available as producers. Producers
// precede their consumers, so by the time an entry is checked every
// settled producer has been checked and recorded.
func (d *duo) releaseSettled(now int64, hi int) {
	for i := d.lo; i < hi; i++ {
		de := d.ents[i]
		if de.released || !de.a.Final() || de.a.Grant()+int64(len(de.ops)-1) > now {
			continue
		}
		if !de.b.Final() {
			d.fatalf("entry %d finality diverged: wide=true tight=false", i)
		}
		d.checkSettled(i)
		for r := 0; r < de.a.NumOps(); r++ {
			d.a.Release(de.a)
			d.b.Release(de.b)
		}
		de.released = true
	}
	for d.lo < len(d.ents) && d.ents[d.lo].released {
		d.lo++
	}
}

// drain runs the script without inserts until every entry has settled
// and been released.
func (d *duo) drain(from int64) int64 {
	const limit = 2000
	for now := from; now < from+limit; now++ {
		d.step(now, false)
		if d.lo == len(d.ents) {
			return now
		}
	}
	d.fatalf("entry %d (%v) not settled %d cycles after the last insert:\n%s",
		d.lo, d.ents[d.lo].a.GetState(), limit, d.a.DumpActive(8))
	return 0
}

func (d *duo) finish(cycles int64) {
	if oa, ob := d.a.Occupied(), d.b.Occupied(); oa != 0 || ob != 0 {
		d.fatalf("drained queue holds wide=%d tight=%d entries", oa, ob)
	}
	sa, sb := d.a.Stats(), d.b.Stats()
	if sa != sb {
		d.fatalf("stats diverged after %d cycles:\nwide=%+v\ntight=%+v", cycles, sa, sb)
	}
	want := Stats{
		EntriesInserted: d.inserts,
		OpsInserted:     d.inserts + d.attaches,
		MOPsInserted:    d.mops,
		Grants:          d.headGrants,
		MaxOccupancy:    d.maxOcc,
	}
	got := sa
	got.Replays, got.CollisionVict, got.PileupVict = 0, 0, 0 // not counted by the script
	if got != want {
		d.fatalf("stats disagree with the script:\nkernel=%+v\nscript=%+v", got, want)
	}
	// The wide ring never wrapped; the tight one wrapped.
	if d.a.nextAge > int64(d.a.n) || d.a.n != lockstepWideWindow {
		d.fatalf("wide ring of %d slots took %d ages", d.a.n, d.a.nextAge)
	}
	if d.b.n != lockstepTightWindow || d.b.nextAge <= int64(d.b.n) {
		d.fatalf("tight ring of %d slots took only %d ages", d.b.n, d.b.nextAge)
	}
}

func (d *duo) describe(gs []Grant, ix map[*Entry]int) string {
	var out []string
	for _, g := range gs {
		out = append(out, fmt.Sprintf("(ent %d op %d @%d)", ix[g.Entry], g.OpIdx, g.Cycle))
	}
	return fmt.Sprintf("%v", out)
}

// TestKernelLockstep drives the two kernels over every scheduling model,
// with bounded and unrestricted queues, across several seeds.
func TestKernelLockstep(t *testing.T) {
	models := []config.SchedModel{
		config.SchedBase,
		config.SchedTwoCycle,
		config.SchedMOP,
		config.SchedSelectFreeSquashDep,
		config.SchedSelectFreeScoreboard,
	}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	cycles := int64(1500)
	if testing.Short() {
		seeds = seeds[:2]
		cycles = 600
	}
	for _, model := range models {
		for _, iq := range []int{16, 0} {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%v/iq%d/seed%d", model, iq, seed), func(t *testing.T) {
					d := newDuo(t, model, iq, seed)
					for now := int64(1); now <= cycles; now++ {
						d.step(now, true)
					}
					d.finish(d.drain(cycles + 1))
				})
			}
		}
	}
}
