package core

import (
	"errors"
	"fmt"
	"strings"

	"macroop/internal/branch"
	"macroop/internal/cache"
	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/isa"
	"macroop/internal/mop"
	"macroop/internal/program"
	"macroop/internal/sched"
	"macroop/internal/simerr"
)

const ringSize = 256 // recently fetched uops kept for MOP formation checks

// Core simulates one machine configuration over one instruction stream.
// In-flight instructions are heap-pooled *uop structs (uop.go) linked by
// pointer. This file holds the pipeline stages, form.go the MOP-formation
// half of rename, and pipeline.go the run loop.
type Core struct {
	cfg  config.Machine
	name string
	src  functional.Source
	pred *branch.Predictor
	mem  *cache.Hierarchy
	sch  *sched.BitScheduler
	det  *mop.Detector
	ptab *mop.PointerTable

	cycle int64

	// Fetch state.
	nextStreamIdx int64
	fetchDone     bool  // functional stream exhausted
	stallUntil    int64 // IL1-miss stall
	stallBranch   *uop  // mispredicted branch blocking fetch
	pendingDyn    functional.DynInst
	havePending   bool

	ring [ringSize]*uop // fetched uops by streamIdx%ringSize

	// Front-end delay line: fetched uops awaiting queue insertion. A
	// fixed-capacity ring (FetchBufEntries slots) — the old slice-of-uops
	// re-allocated on every append/advance cycle.
	feq     []*uop
	feqHead int
	feqLen  int

	// Rename state: architectural register -> producing entry/op.
	rename [isa.NumRegs]prodRef

	// MOP formation state.
	pendingHeads []*uop

	// ROB.
	rob      []*uop
	robHead  int
	robCount int

	// uopFree pools retired uops for reuse (recycled when their ring slot
	// is overwritten, i.e. well after any late reader is gone).
	uopFree []*uop

	// Per-call scratch for the rename path, reused every cycle. srcSpecs
	// returns slices into specsBuf/prodsBuf (valid until its next call);
	// groupBuf/dynsBuf/claimBuf back the insert-group, detector-feed, and
	// chain-claim loops.
	specsBuf [2]sched.SrcSpec
	prodsBuf [2]prodRef
	groupBuf []*uop
	dynsBuf  []*functional.DynInst
	claimBuf []*uop

	tracer  Tracer
	hooks   Hooks
	clock   *stageClock // per-stage wall-time accounting (nil = off)
	hookErr error
	srcErr  error // instruction-source fault (malformed stream, I/O error)

	// cnt batches the per-event statistics counters written on the hot
	// path; finishStats folds them into res. Counters are cumulative, so
	// repeated Run calls on one core stay consistent.
	cnt struct {
		committed, fetched, opsIssued                                         int64
		il1Misses, dl1Misses, branchMispredicts                               int64
		notCandidate, candNotGrouped, valueGenGrouped, nonValueGenGrouped     int64
		indepGrouped, mopsFormed, depMOPsFormed, indepMOPsFormed, mopsDemoted int64
		formCtrlMiss, formCycleAborts, formMissedScope, filterDeletes         int64
	}

	res Result

	// Hook event storage, rewritten for every event: hooks receive
	// pointers and slices into it that are valid only during the call.
	issueEv  IssueEvent
	commitEv CommitEvent
	mopSeqs  [sched.MaxMOPOps]int64
}

// NewFromSource builds a core that fetches from an arbitrary dynamic
// instruction source (a functional simulator, a trace reader, ...).
func NewFromSource(cfg config.Machine, name string, src functional.Source) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var fu [isa.NumClasses]int
	for c := range fu {
		fu[c] = cfg.FUCount(c)
	}
	pred, err := branch.New(cfg.Branch)
	if err != nil {
		return nil, err
	}
	mem, err := cache.NewHierarchy(cfg.Mem)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:      cfg,
		name:     name,
		src:      src,
		pred:     pred,
		mem:      mem,
		rob:      make([]*uop, cfg.ROBEntries),
		feq:      make([]*uop, cfg.FetchBufEntries),
		groupBuf: make([]*uop, 0, cfg.Width),
		dynsBuf:  make([]*functional.DynInst, 0, cfg.Width),
		claimBuf: make([]*uop, 0, sched.MaxMOPOps),
	}
	c.sch = sched.NewBit(sched.Config{
		Model:         cfg.Sched,
		Width:         cfg.Width,
		IQEntries:     cfg.IQEntries,
		FU:            fu,
		ReplayPenalty: cfg.ReplayPenalty,
		ReplayLimit:   cfg.ReplayStormLimit,
		// A non-final entry cannot commit, so its head and every younger
		// entry's head are still in the in-order ROB: the ROB bounds the
		// live age span, and an insert past the bound is an internal
		// error (insert stops at a full ROB before it gets there).
		Window: cfg.ROBEntries,
	})
	if cfg.Sched == config.SchedMOP {
		c.ptab = mop.NewPointerTable()
		c.det = mop.NewDetector(cfg.MOP, c.ptab)
	}
	c.res.Benchmark = name
	return c, nil
}

// drained reports whether the program has ended and the pipeline is empty.
func (c *Core) drained() bool {
	return c.fetchDone && c.robCount == 0 && c.feqLen == 0
}

// runErr reports a pending instruction-source or hook error.
func (c *Core) runErr() error {
	if c.srcErr != nil {
		return c.srcErr
	}
	return c.hookErr
}

// errCtx captures the machine's position for error reports.
func (c *Core) errCtx() simerr.Context {
	return simerr.Context{
		Benchmark: c.name,
		Sched:     c.cfg.Sched.String(),
		Cycle:     c.cycle,
		Committed: c.cnt.committed,
	}
}

// fillCtx completes an error context produced by a subsystem that only
// knows the cycle (e.g. the scheduler) with the run's identity.
func (c *Core) fillCtx(ctx *simerr.Context) {
	if ctx.Benchmark == "" {
		ctx.Benchmark = c.name
	}
	if ctx.Sched == "" {
		ctx.Sched = c.cfg.Sched.String()
	}
	if ctx.Cycle == 0 {
		ctx.Cycle = c.cycle
	}
	if ctx.Committed == 0 {
		ctx.Committed = c.cnt.committed
	}
}

// stateDump renders the pipeline state for deadlock diagnostics: ROB and
// issue-queue occupancy, the age of the stuck ROB head, replay counts,
// and the oldest unissued scheduler entries.
func (c *Core) stateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d: ROB %d/%d, IQ %d occupied, fetch buffer %d, fetchDone=%v\n",
		c.cycle, c.robCount, c.cfg.ROBEntries, c.sch.Occupied(), c.feqLen, c.fetchDone)
	st := c.sch.Stats()
	fmt.Fprintf(&b, "sched: %d grants, %d replays\n", st.Grants, st.Replays)
	if c.robCount > 0 {
		u := c.rob[c.robHead]
		fmt.Fprintf(&b, "ROB head: seq %d pc %d op %v, fetched cycle %d (age %d)",
			u.streamIdx, u.d.PC, u.d.Inst.Op, u.fetchCycle, c.cycle-u.fetchCycle)
		if u.entry != nil {
			fmt.Fprintf(&b, ", entry %d final=%v", u.entry.ID(), u.entry.Final())
		}
		b.WriteByte('\n')
	}
	b.WriteString(c.sch.DumpActive(8))
	return b.String()
}

// step advances one clock cycle.
func (c *Core) step() {
	if c.clock != nil {
		c.stepTimed()
		return
	}
	c.commit()
	c.issue()
	c.insert()
	c.fetch()
	if c.hooks != nil {
		// Fast path: with no hooks attached (the common case for sweeps)
		// the only cost per cycle is this one predictable branch.
		c.hookCycle()
	}
	c.cycle++
}

// stepTimed is step with per-stage wall-time accounting. It is a
// separate copy so the untimed loop pays only one nil check per cycle.
func (c *Core) stepTimed() {
	k := c.clock
	t0 := k.now()
	c.commit()
	t1 := k.now()
	grants := c.sch.Tick(c.cycle)
	t2 := k.now()
	c.applyGrants(grants)
	t3 := k.now()
	c.insert()
	t4 := k.now()
	c.fetch()
	t5 := k.now()
	if c.hooks != nil {
		c.hookCycle()
	}
	c.cycle++
	k.add(t0, t1, t2, t3, t4, t5)
}

// ringPut installs a freshly fetched uop in the recent-fetch ring,
// recycling the uop whose slot it overwrites. By then the old uop is
// ringSize fetches in the past — far beyond the in-flight window (ROB +
// fetch buffer), so nothing can still reference it except a fetch stall
// on a mispredicted branch (excluded explicitly).
func (c *Core) ringPut(u *uop) {
	idx := u.streamIdx % ringSize
	if old := c.ring[idx]; old != nil && old.committed && old != c.stallBranch {
		c.uopFree = append(c.uopFree, old)
	}
	c.ring[idx] = u
}

// allocUop pops the uop pool (or allocates on cold start) and returns a
// zeroed uop.
func (c *Core) allocUop() *uop {
	if n := len(c.uopFree); n > 0 {
		u := c.uopFree[n-1]
		c.uopFree[n-1] = nil
		c.uopFree = c.uopFree[:n-1]
		*u = uop{}
		return u
	}
	return new(uop)
}

// feqPush appends to the front-end delay line ring.
func (c *Core) feqPush(u *uop) {
	c.feq[(c.feqHead+c.feqLen)%len(c.feq)] = u
	c.feqLen++
}

// feqFront returns the oldest queued uop (feqLen must be > 0).
func (c *Core) feqFront() *uop { return c.feq[c.feqHead] }

// feqPop removes the oldest queued uop.
func (c *Core) feqPop() {
	c.feq[c.feqHead] = nil
	c.feqHead = (c.feqHead + 1) % len(c.feq)
	c.feqLen--
}

// ---------------------------------------------------------------------
// Issue (scheduling) stage: drive the scheduler and apply per-grant
// consequences (cache probes for loads, branch resolution bookkeeping).

func (c *Core) issue() {
	c.applyGrants(c.sch.Tick(c.cycle))
}

// applyGrants applies the per-grant consequences of one scheduler tick.
func (c *Core) applyGrants(grants []sched.Grant) {
	for _, g := range grants {
		// UserData holds the entry's head uop (a bare pointer, so storing
		// it in the interface never allocates); members[0] is the head
		// itself, later slots the attached chain members.
		h, ok := g.Entry.UserData.(*uop)
		if !ok || g.OpIdx >= len(h.members) {
			continue
		}
		uo := h.members[g.OpIdx]
		if uo == nil {
			continue
		}
		c.cnt.opsIssued++
		c.trace(uo, StageIssue, g.Cycle)
		c.hookIssue(uo, g.Cycle)
		if uo.isLoad() {
			// Probe the data hierarchy on the first grant only (issue
			// order is deterministic); if the load replays, its data
			// still arrives when the original access completes.
			agen := int64(uo.op().Latency())
			if !uo.memProbed {
				if !c.sch.OperandsValid(g.Entry) {
					// Invalidly issued (operands not really ready): the
					// address is not computable, so no cache access
					// happens; this grant will be rescinded and the load
					// reissued.
					continue
				}
				lat, hit := c.mem.Data(uo.d.MemAddr)
				if !hit {
					c.cnt.dl1Misses++
				}
				uo.memProbed = true
				uo.memFillAt = g.Cycle + agen + int64(lat)
			}
			actual := max(g.Cycle+agen+int64(c.loadAssumed()), uo.memFillAt)
			discover := g.Cycle + int64(c.cfg.ExecOffset) + 1
			c.sch.SetLoadResult(g.Entry, g.OpIdx, actual, discover)
		}
	}
}

// ---------------------------------------------------------------------
// Fetch stage.

func (c *Core) fetch() {
	if c.fetchDone {
		return
	}
	// Mispredicted branch: fetch resumes after it finally resolves. A
	// committed branch's entry is already released, so retire snapshots
	// the resolve cycle into branchResolveAt for us.
	if b := c.stallBranch; b != nil {
		var resolve int64
		switch {
		case b.committed:
			resolve = b.branchResolveAt
		case b.entry != nil && b.entry.Final():
			// (chain members execute opIdx cycles after the MOP issues)
			resolve = b.entry.Grant() + int64(c.cfg.ExecOffset) + int64(b.opIdx)
		default:
			return
		}
		resume := max(resolve+1, b.fetchCycle+int64(c.cfg.MinBranchPenalty))
		if c.cycle < resume {
			return
		}
		c.stallBranch = nil
	}
	if c.cycle < c.stallUntil {
		return
	}

	var curLine uint64
	haveLine := false
	for n := 0; n < c.cfg.Width && c.feqLen < c.cfg.FetchBufEntries; n++ {
		d := c.peekDyn()
		if d == nil {
			c.fetchDone = true
			return
		}
		// Instruction cache: one line access per group; crossing into a
		// new line probes again, and a miss cuts the group.
		line := program.ByteAddr(d.PC) / uint64(c.cfg.Mem.IL1.LineBytes)
		if !haveLine || line != curLine {
			lat, hit := c.mem.Fetch(program.ByteAddr(d.PC))
			if !hit {
				c.cnt.il1Misses++
				c.stallUntil = c.cycle + int64(lat-c.cfg.Mem.IL1.Latency)
				if n == 0 {
					return // group starts next cycle, after the fill
				}
				break
			}
			curLine, haveLine = line, true
		}

		u := c.takeDyn()
		u.fetchCycle = c.cycle
		c.trace(u, StageFetch, c.cycle)
		u.insertAt = c.cycle + int64(c.cfg.FrontLatency)
		if c.cfg.Sched == config.SchedMOP {
			u.insertAt += int64(c.cfg.MOP.ExtraFormationStages)
		}
		c.ringPut(u)
		c.feqPush(u)
		c.cnt.fetched++

		if u.isBranch() {
			if c.predictBranch(u) {
				break // taken (or mispredicted): group ends
			}
		}
	}
}

// predictBranch runs fetch-time prediction for u, updates predictor state,
// and reports whether the fetch group must end (redirect or mispredict).
func (c *Core) predictBranch(u *uop) bool {
	op := u.op()
	d := &u.d
	switch {
	case op.IsCondBranch():
		pred := c.pred.PredictDirection(d.PC)
		c.pred.UpdateDirection(d.PC, d.Taken)
		if pred != d.Taken {
			u.mispredicted = true
			c.cnt.branchMispredicts++
			c.stallBranch = u
			return true
		}
		if d.Taken {
			c.pred.UpdateTarget(d.PC, d.NextPC)
		}
		return d.Taken
	case op.IsDirectJump():
		// Direct targets are available from predecode; JAL pushes the RAS.
		if op == isa.JAL {
			c.pred.PushRAS(d.PC + 1)
		}
		c.pred.UpdateTarget(d.PC, d.NextPC)
		return true
	case op.IsIndirect():
		target, ok := c.pred.PopRAS()
		c.pred.RecordTargetOutcome(true, target, d.NextPC)
		if !ok || target != d.NextPC {
			u.mispredicted = true
			c.cnt.branchMispredicts++
			c.stallBranch = u
		}
		return true
	}
	return false
}

// peekDyn returns the next fused dynamic instruction without consuming
// it. The returned pointer aliases the core's single pending-instruction
// buffer: it is valid until the next peekDyn after a take.
func (c *Core) peekDyn() *functional.DynInst {
	if c.havePending {
		return &c.pendingDyn
	}
	if err := c.src.Step(&c.pendingDyn); err != nil {
		if errors.Is(err, functional.ErrHalted) {
			return nil
		}
		if c.srcErr == nil {
			e := simerr.New(simerr.KindInternal, c.errCtx(),
				"instruction source fault at stream index %d: %v", c.nextStreamIdx, err)
			e.Err = err
			c.srcErr = e
		}
		return nil
	}
	c.havePending = true
	return &c.pendingDyn
}

// takeDyn consumes the next fused dynamic instruction as a uop, merging a
// following STD into its STA.
func (c *Core) takeDyn() *uop {
	d := c.peekDyn()
	c.havePending = false
	u := c.allocUop()
	u.d = *d
	u.streamIdx = c.nextStreamIdx
	u.dataReg = isa.NoReg
	c.nextStreamIdx++
	if u.d.Inst.Op == isa.STA {
		// peekDyn reuses the pending buffer, so consult u.d (already
		// copied) rather than d from here on.
		std := c.peekDyn()
		if std == nil || std.Inst.Op != isa.STD {
			if c.srcErr == nil {
				c.srcErr = simerr.New(simerr.KindInternal, c.errCtx(),
					"STA at pc %d (stream index %d) not followed by STD", u.d.PC, u.streamIdx)
			}
			return u
		}
		u.dataReg = std.Inst.Src1
		c.havePending = false
	}
	return u
}

// ---------------------------------------------------------------------
// Queue-insert stage (rename + MOP formation + issue queue insertion).

func (c *Core) insert() {
	inserted := 0
	group := c.groupBuf[:0]
	for c.feqLen > 0 && inserted < c.cfg.Width {
		u := c.feqFront()
		if u.insertAt > c.cycle {
			break
		}
		if c.robCount >= c.cfg.ROBEntries {
			break
		}
		// A claimed member shares its head's entry; everything else needs
		// a fresh one, including a member whose chain link was refused.
		if !c.joinsHead(u) && !c.sch.HasSpace(1) {
			break
		}
		c.feqPop()
		c.renameAndInsert(u)
		c.robPush(u)
		group = append(group, u)
		inserted++
	}
	if len(group) > 0 {
		c.afterInsertGroup(group)
	}
}

// robPush appends to the ROB ring.
func (c *Core) robPush(u *uop) {
	c.rob[(c.robHead+c.robCount)%len(c.rob)] = u
	c.robCount++
	u.inserted = true
}

// srcSpecs builds the scheduler source list for u's register operands,
// excluding x (the intra-MOP producer) when attaching a tail.
// The returned slices are scratch (specsBuf/prodsBuf) valid until the
// next srcSpecs call; callers copy what they keep.
func (c *Core) srcSpecs(u *uop, exclude *sched.Entry) ([]sched.SrcSpec, []prodRef) {
	specs := c.specsBuf[:0]
	prods := c.prodsBuf[:0]
	for _, r := range [2]isa.Reg{u.d.Inst.Src1, u.d.Inst.Src2} {
		if r == isa.NoReg || r == isa.R0 {
			continue
		}
		p := c.rename[r]
		if p.entry == exclude && exclude != nil {
			continue // satisfied inside the MOP; no tag broadcast needed
		}
		specs = append(specs, sched.SrcSpec{Prod: p.entry, ProdOp: p.opIdx})
		prods = append(prods, p)
	}
	return specs, prods
}

func (c *Core) loadAssumed() int { return c.mem.LoadAssumedLatency() }

func (c *Core) finishStats() *Result {
	c.res.Cycles = c.cycle
	if c.cycle > 0 {
		c.res.IPC = float64(c.cnt.committed) / float64(c.cycle)
	}
	// Fold the hot-path counter block into the result (plain assignment:
	// cnt is cumulative, so repeated Run calls on one core stay correct).
	c.res.Committed = c.cnt.committed
	c.res.Fetched = c.cnt.fetched
	c.res.OpsIssued = c.cnt.opsIssued
	c.res.IL1Misses = c.cnt.il1Misses
	c.res.DL1Misses = c.cnt.dl1Misses
	c.res.BranchMispredicts = c.cnt.branchMispredicts
	c.res.NotCandidate = c.cnt.notCandidate
	c.res.CandNotGrouped = c.cnt.candNotGrouped
	c.res.ValueGenGrouped = c.cnt.valueGenGrouped
	c.res.NonValueGenGrouped = c.cnt.nonValueGenGrouped
	c.res.IndepGrouped = c.cnt.indepGrouped
	c.res.MOPsFormed = c.cnt.mopsFormed
	c.res.DepMOPsFormed = c.cnt.depMOPsFormed
	c.res.IndepMOPsFormed = c.cnt.indepMOPsFormed
	c.res.MOPsDemoted = c.cnt.mopsDemoted
	c.res.FormCtrlMiss = c.cnt.formCtrlMiss
	c.res.FormCycleAborts = c.cnt.formCycleAborts
	c.res.FormMissedScope = c.cnt.formMissedScope
	c.res.FilterDeletes = c.cnt.filterDeletes
	c.res.SchedStats = c.sch.Stats()
	if c.det != nil {
		c.res.DetectStats = c.det.Stats()
	}
	condSeen, condHit, _, _, rasSeen, rasHit := c.pred.Stats()
	c.res.CondBranches, c.res.CondCorrect = condSeen, condHit
	c.res.Returns, c.res.ReturnsCorrect = rasSeen, rasHit
	c.res.IL1MissRate = c.mem.IL1().MissRate()
	c.res.DL1MissRate = c.mem.DL1().MissRate()
	c.res.L2MissRate = c.mem.L2().MissRate()
	if c.ptab != nil {
		c.res.PointerInstalls = c.ptab.Installs()
		c.res.PointerDeletes = c.ptab.Deletes()
	}
	// Return a copy: callers keep results (the service's result cache
	// does), and a pointer into the core would keep the whole core live.
	r := c.res
	return &r
}

// ---------------------------------------------------------------------
// Commit stage.

func (c *Core) commit() {
	for n := 0; n < c.cfg.Width && c.robCount > 0; n++ {
		u := c.rob[c.robHead]
		if !c.committable(u) {
			return
		}
		c.retire(u)
		c.rob[c.robHead] = nil
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
	}
}

// committable reports whether the ROB head has fully completed.
func (c *Core) committable(u *uop) bool {
	if u.entry == nil || !u.entry.Final() {
		return false
	}
	if u.isStore() && u.dataProd.entry != nil && !u.dataProd.entry.Final() {
		return false
	}
	return c.cycle >= c.commitReadyAt(u)
}

// commitReadyAt returns the earliest cycle u may commit: its own result's
// availability, and for a fused store also the store-data producer's. The
// entry (and data producer, if any) must already be final.
func (c *Core) commitReadyAt(u *uop) int64 {
	done := u.entry.ActualReady(u.opIdx) + int64(c.cfg.ExecOffset)
	if u.isStore() && u.dataProd.entry != nil {
		p := u.dataProd
		done = max(done, p.entry.ActualReady(p.opIdx)+int64(c.cfg.ExecOffset))
	}
	return done
}

// retire commits one instruction: stores write the data cache, MOP
// statistics and the last-arriving filter run here.
func (c *Core) retire(u *uop) {
	u.committed = true
	c.trace(u, StageCommit, c.cycle)
	c.hookCommit(u)
	c.cnt.committed++
	if u.isStore() {
		// Stores write memory at commit (Section 2.1); the tag fill keeps
		// the data cache warm for later loads.
		c.mem.DL1().Touch(u.d.MemAddr)
	}
	c.accountMOP(u)
	if u.mopHead && c.cfg.Sched == config.SchedMOP && c.cfg.MOP.LastArrivingFilter {
		c.lastArrivingFilter(u)
	}
	if u.mispredicted {
		// Snapshot the resolve cycle before the entry reference is
		// dropped: the fetch stage may still be stalled on this branch
		// after its entry has been released and recycled.
		u.branchResolveAt = u.entry.Grant() + int64(c.cfg.ExecOffset) + int64(u.opIdx)
	}
	// Drop every entry reference this uop retained at rename time, in
	// reverse order of acquisition; the scheduler recycles an entry onto
	// its free list when the last reference goes.
	for _, p := range u.headProds {
		if p.entry != nil {
			c.sch.Release(p.entry)
		}
	}
	for _, p := range u.tailProds {
		if p.entry != nil {
			c.sch.Release(p.entry)
		}
	}
	if u.dataProd.entry != nil {
		c.sch.Release(u.dataProd.entry)
	}
	u.headProds = nil
	u.tailProds = nil
	u.dataProd = prodRef{}
	u.claimedBy = nil
	if u.opIdx == u.entry.NumOps()-1 {
		// Last member of the entry to commit: no more grants can arrive,
		// so the payload back-pointer can go too.
		u.entry.UserData = nil
	}
	c.sch.Release(u.entry) // the member op's own reference
	u.entry = nil
	// u.members stays: its backing array is embedded in the uop and is
	// zeroed wholesale when the pool reuses it.
}
