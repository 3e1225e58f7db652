package core

import (
	"macroop/internal/config"
	"macroop/internal/isa"
)

// renameAndInsert performs the rename-stage work for one uop: MOP
// formation (claiming a tail via the MOP pointer, or joining the head's
// entry as the tail), dependence translation into entry/op references,
// and issue queue insertion.
func (c *Core) renameAndInsert(u *uop) {
	u.insertedCycle = c.cycle
	c.trace(u, StageInsert, c.cycle)

	// Member side of a formed MOP: join the head's entry (insert already
	// ran joinsHead's chain-link check for this uop).
	if h := u.claimedBy; h != nil && h.entry != nil && h.entry.PendingTail() {
		specs, prods := c.srcSpecs(u, h.entry)
		h.attachedOps++
		last := h.attachedOps >= h.expectOps-1
		c.sch.AttachOp(h.entry, u.schedOpInfo(c.loadAssumed()), specs, last)
		u.entry, u.opIdx = h.entry, h.attachedOps
		// The head owns the member's producer references (released at the
		// head's commit, after the last-arriving filter has read them).
		for _, p := range prods {
			if p.entry != nil {
				p.entry.Retain()
			}
			h.tailProds = append(h.tailProds, p)
		}
		h.members = append(h.members, u)
		c.finishRename(u)
		if last {
			c.removePendingHead(h)
			c.hookMOPFormed(h)
			c.cnt.mopsFormed++
			if u.mopDep {
				c.cnt.depMOPsFormed++
			} else {
				c.cnt.indepMOPsFormed++
			}
		}
		return
	}
	u.claimedBy = nil // stale claim (head was demoted): insert normally

	pending := false
	if c.cfg.Sched == config.SchedMOP {
		pending = c.tryClaimTail(u)
	}
	specs, prods := c.srcSpecs(u, nil)
	e := c.sch.Insert(u.schedOpInfo(c.loadAssumed()), specs, pending)
	u.members = append(u.membersArr[:0], u)
	e.UserData = u // head back-pointer; a bare pointer in the interface never allocates
	u.entry, u.opIdx = e, 0
	u.headProds = u.headProdsArr[:0]
	u.tailProds = u.tailProdsArr[:0] // filled by attaching chain members
	for _, p := range prods {
		if p.entry != nil {
			p.entry.Retain()
		}
		u.headProds = append(u.headProds, p)
	}
	if pending {
		c.pendingHeads = append(c.pendingHeads, u)
	}
	c.finishRename(u)
}

// joinsHead reports whether u, about to insert, joins its claimed head's
// pending entry. Chain links beyond a pair need a transitive cycle check:
// one of u's producers may itself (transitively) wait on the merged entry,
// which would deadlock. The pair case is already covered by detection's
// conservative heuristic. A refused link demotes the head, and u then
// needs an issue queue entry of its own like any other uop, so insert
// runs this check before its queue-space test.
func (c *Core) joinsHead(u *uop) bool {
	h := u.claimedBy
	if h == nil || h.entry == nil || !h.entry.PendingTail() {
		return false
	}
	if h.expectOps > 2 {
		specs, _ := c.srcSpecs(u, h.entry)
		for _, sp := range specs {
			if sp.Prod != nil && c.sch.DependsOn(sp.Prod, h.entry) {
				c.demote(h) // unclaims u
				c.removePendingHead(h)
				c.cnt.formCycleAborts++
				return false
			}
		}
	}
	return true
}

// finishRename records the store-data producer and updates the rename
// table with this uop's destination (dependence translation: both MOP ops
// map to the same entry, Figure 10).
func (c *Core) finishRename(u *uop) {
	if u.dataReg != isa.NoReg && u.dataReg != isa.R0 {
		u.dataProd = c.rename[u.dataReg]
		if u.dataProd.entry != nil {
			u.dataProd.entry.Retain() // released at u's commit
		}
	}
	if u.d.Inst.WritesReg() {
		// Retain the new producer before releasing the displaced one: when
		// both ops of a MOP write the same register they share one entry,
		// and the swap must not drop its refcount to zero in between.
		u.entry.Retain()
		if old := c.rename[u.d.Inst.Dest].entry; old != nil {
			c.sch.Release(old)
		}
		c.rename[u.d.Inst.Dest] = prodRef{entry: u.entry, opIdx: u.opIdx}
	}
}

// tryClaimTail consults the MOP pointer for u and, when the designated
// tail is already fetched and the control flow matches the pointer,
// claims it; with the chained-MOP extension enabled it keeps following
// pointers up to MaxMOPSize members. Returns whether u was inserted as a
// pending MOP head.
func (c *Core) tryClaimTail(u *uop) bool {
	maxOps := c.cfg.MOP.MaxMOPSize
	members := append(c.claimBuf[:0], u)
	cur := u
	for len(members) < maxOps {
		t, ok := c.nextChainMember(cur, len(members) == 1)
		if !ok {
			break
		}
		members = append(members, t)
		cur = t
	}
	if len(members) < 2 {
		return false
	}
	for i, t := range members[1:] {
		t.claimedBy = u
		t.mopTail = true
		prev := members[i] // the member t's pointer hung off
		dep := prev.d.Inst.WritesReg() &&
			(t.d.Inst.Src1 == prev.d.Inst.Dest || t.d.Inst.Src2 == prev.d.Inst.Dest)
		t.mopDep = dep
		if i == 0 {
			u.mopDep = dep
		}
	}
	u.mopHead = true
	u.expectOps = len(members)
	u.tailPC = members[1].d.PC
	c.claimBuf = members[:0]
	return true
}

// nextChainMember resolves one MOP pointer link from cur, validating the
// insertion-window and control-flow constraints.
func (c *Core) nextChainMember(cur *uop, countStats bool) (*uop, bool) {
	ptr, tailPC, ok := c.ptab.Lookup(cur.d.PC, c.cycle)
	if !ok {
		return nil, false
	}
	tailIdx := cur.streamIdx + int64(ptr.Offset)
	if tailIdx >= c.nextStreamIdx {
		// Tail not even fetched: it cannot be in this or the next insert
		// group (Section 5.2.3's insertion policy).
		if countStats {
			c.cnt.formMissedScope++
		}
		return nil, false
	}
	t := c.ring[tailIdx%ringSize]
	if t == nil || t.streamIdx != tailIdx || t.inserted || t.claimedBy != nil || t.mopHead {
		if countStats {
			c.cnt.formMissedScope++
		}
		return nil, false
	}
	if t.d.PC != tailPC {
		// Different dynamic path than at detection time.
		if countStats {
			c.cnt.formCtrlMiss++
		}
		return nil, false
	}
	ctrl, flowOK := c.controlClassBetween(cur.streamIdx, tailIdx)
	if !flowOK || ctrl != ptr.Control {
		if countStats {
			c.cnt.formCtrlMiss++
		}
		return nil, false
	}
	return t, true
}

// controlClassBetween reclassifies the control flow between two fused
// stream positions with the same rules as MOP detection: no indirect
// jumps, at most one control instruction if any is taken; the returned
// bit records a single taken direct control.
func (c *Core) controlClassBetween(from, to int64) (controlBit, ok bool) {
	nControl, nTaken := 0, 0
	for i := from; i < to; i++ {
		x := c.ring[i%ringSize]
		if x == nil || x.streamIdx != i {
			return false, false // fell out of the formation window
		}
		op := x.op()
		if !op.IsControl() {
			continue
		}
		if op.IsIndirect() {
			return false, false
		}
		nControl++
		if x.d.Taken {
			nTaken++
		}
	}
	switch {
	case nTaken == 0:
		return false, true
	case nTaken == 1 && nControl == 1:
		return true, true
	default:
		return false, false
	}
}

// afterInsertGroup runs once per non-empty insert group: it feeds the MOP
// detector with the renamed group and demotes pending heads whose tail
// missed the same-or-next-group insertion window.
func (c *Core) afterInsertGroup(group []*uop) {
	if c.det != nil {
		// The detector copies each DynInst into its own slot value before
		// returning, so handing it scratch pointers into pooled uops is
		// safe.
		dyns := c.dynsBuf[:0]
		for _, u := range group {
			dyns = append(dyns, &u.d)
		}
		c.det.Observe(c.cycle, dyns)
		c.dynsBuf = dyns[:0]
	}
	kept := c.pendingHeads[:0]
	for _, h := range c.pendingHeads {
		if h.entry == nil || !h.entry.PendingTail() {
			continue // tail attached (or otherwise settled)
		}
		// Members are claimed only when already fetched (the model's
		// equivalent of the same-or-consecutive-stage window), so they
		// arrive within the next insert groups even under ROB or queue
		// backpressure — the stage latches hold. The demotion here is a
		// safety net against pathological front-end disruptions.
		if c.cycle-h.insertedCycle > pendingHeadTimeout {
			c.demote(h)
			continue
		}
		kept = append(kept, h)
	}
	c.pendingHeads = kept
}

// pendingHeadTimeout bounds how long a MOP head may wait for its claimed
// members before being demoted to a single-instruction entry.
const pendingHeadTimeout = 40

// demote cancels a pending MOP head: the entry proceeds with whatever
// members were attached (possibly just the head), and members that never
// arrived are unclaimed so they insert normally (Sections 5.2.3/5.3.2).
func (c *Core) demote(h *uop) {
	c.sch.CancelTail(h.entry)
	c.cnt.mopsDemoted++
	if h.attachedOps == 0 {
		h.mopHead = false
		h.mopDep = false
	} else {
		// The entry proceeds as a smaller multi-op group: report it so
		// commit-side atomicity checks know its final membership.
		c.hookMOPFormed(h)
	}
	// Unclaim chain members still waiting in the ring.
	for i := int64(0); i < ringSize; i++ {
		if t := c.ring[i]; t != nil && t.claimedBy == h && !t.inserted {
			t.claimedBy = nil
			t.mopTail = false
			t.mopDep = false
		}
	}
}

func (c *Core) removePendingHead(h *uop) {
	for i, x := range c.pendingHeads {
		if x == h {
			c.pendingHeads = append(c.pendingHeads[:i], c.pendingHeads[i+1:]...)
			return
		}
	}
}

// lastArrivingFilter implements Section 5.4.2: if the committed MOP's
// issue was triggered by a tail-side operand arriving after every
// head-side operand, the pointer is deleted (and the pair blacklisted) so
// detection finds an alternative pairing.
func (c *Core) lastArrivingFilter(h *uop) {
	if h.entry == nil || !h.entry.IsMOP() || h.entry.NumOps() != 2 {
		return
	}
	arrival := func(prods []prodRef) int64 {
		var m int64
		for _, p := range prods {
			if p.entry == nil {
				continue
			}
			if ar := p.entry.ActualReady(p.opIdx); ar > m && ar < (1<<61) {
				m = ar
			}
		}
		return m
	}
	headMax := arrival(h.headProds)
	tailMax := arrival(h.tailProds)
	if tailMax > headMax {
		c.ptab.Delete(h.d.PC, h.tailPC)
		c.cnt.filterDeletes++
	}
}

// accountMOP classifies a committed instruction for Figure 13.
func (c *Core) accountMOP(u *uop) {
	op := u.op()
	switch {
	case !op.IsMOPCandidate():
		c.cnt.notCandidate++
	case u.grouped() && !u.mopDep:
		c.cnt.indepGrouped++
	case u.grouped() && op.IsValueGenCandidate():
		c.cnt.valueGenGrouped++
	case u.grouped():
		c.cnt.nonValueGenGrouped++
	default:
		c.cnt.candNotGrouped++
	}
}
