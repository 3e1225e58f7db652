package core

import (
	"macroop/internal/functional"
	"macroop/internal/isa"
)

// IssueEvent reports one scheduler grant as seen by the core: the op that
// was selected, which entry it lives in, and the grant cycle. A single op
// may produce several issue events (speculative-scheduling replays); the
// last one before commit is the one that stands.
type IssueEvent struct {
	Cycle   int64
	Seq     int64 // dynamic sequence number of the issued instruction
	EntryID int64
	OpIdx   int
}

// CommitEvent reports one instruction retiring from the ROB, carrying
// everything an external oracle needs to cross-check the architectural
// work and the pipeline invariants around it.
type CommitEvent struct {
	Cycle int64
	// Dyn is the dynamic instruction being committed (a fused STA+STD
	// store commits once, as the STA, with DataReg naming the merged
	// store-data register).
	Dyn     *functional.DynInst
	DataReg isa.Reg

	// Issue queue entry identity, for MOP atomicity checks.
	EntryID int64
	OpIdx   int
	NumOps  int
	IsMOP   bool

	// EntryFinal is whether the scheduler considers the entry settled (no
	// replays outstanding); ReadyAt is the earliest cycle the result was
	// architecturally available, so Cycle >= ReadyAt must hold.
	EntryFinal bool
	ReadyAt    int64
}

// Hooks observes pipeline events for verification. All methods may veto
// by returning an error, which aborts the simulation: Core.Run returns
// the error verbatim. Attaching hooks never changes timing; a nil hook
// set costs one pointer test per event site.
//
// Event pointers and the seqs slice point into storage the core reuses
// for the next event, so they are valid only for the duration of the
// call: a hook that keeps an event, its Dyn or the member list past its
// return must copy it. This keeps the checked cycle loop allocation-free.
type Hooks interface {
	// OnIssue fires for every grant the core acts on.
	OnIssue(ev *IssueEvent) error
	// OnCommit fires for every instruction retiring, in program order.
	OnCommit(ev *CommitEvent) error
	// OnMOPFormed fires when a macro-op closes with its member sequence
	// numbers in op order (index == OpIdx at commit). Demoted heads that
	// kept at least one attached member also fire, with the smaller
	// member set they ended up with.
	OnMOPFormed(entryID int64, seqs []int64) error
	// OnCycle fires once at the end of every simulated cycle with the
	// current issue queue occupancy.
	OnCycle(cycle int64, iqOccupied int) error
}

// hookIssue forwards a grant to the hooks, capturing the first error.
func (c *Core) hookIssue(u *uop, cycle int64) {
	if c.hooks == nil || c.hookErr != nil {
		return
	}
	ev := &c.issueEv
	*ev = IssueEvent{
		Cycle:   cycle,
		Seq:     u.d.Seq,
		EntryID: u.entry.ID(),
		OpIdx:   u.opIdx,
	}
	c.hookErr = c.hooks.OnIssue(ev)
}

// hookCommit forwards a retirement to the hooks. It must run before
// retire severs the uop's producer references, while commitReadyAt can
// still see the store-data producer.
func (c *Core) hookCommit(u *uop) {
	if c.hooks == nil || c.hookErr != nil {
		return
	}
	ev := &c.commitEv
	*ev = CommitEvent{
		Cycle:      c.cycle,
		Dyn:        &u.d,
		DataReg:    u.dataReg,
		EntryID:    u.entry.ID(),
		OpIdx:      u.opIdx,
		NumOps:     u.entry.NumOps(),
		IsMOP:      u.entry.IsMOP(),
		EntryFinal: u.entry.Final(),
		ReadyAt:    c.commitReadyAt(u),
	}
	c.hookErr = c.hooks.OnCommit(ev)
}

// hookMOPFormed reports a closed (or demoted-but-nonempty) macro-op.
func (c *Core) hookMOPFormed(h *uop) {
	if c.hooks == nil || c.hookErr != nil {
		return
	}
	seqs := c.mopSeqs[:len(h.members)]
	for i, m := range h.members {
		seqs[i] = m.d.Seq
	}
	c.hookErr = c.hooks.OnMOPFormed(h.entry.ID(), seqs)
}

func (c *Core) hookCycle() {
	if c.hooks == nil || c.hookErr != nil {
		return
	}
	c.hookErr = c.hooks.OnCycle(c.cycle, c.sch.Occupied())
}
