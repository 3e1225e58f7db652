// Package core implements the 13-stage, 4-wide out-of-order pipeline of
// the paper (Figure 2): fetch (with IL1 and branch prediction), decode,
// rename (with MOP formation and dependence translation for macro-op
// scheduling), queue insertion (pending-bit policy), scheduling
// (internal/sched), dispatch/payload-RAM sequencing, execution with
// functional-unit and memory-port contention, speculative scheduling with
// selective replay, and in-order ROB commit.
//
// The core is execution-driven on the correct path: the functional model
// supplies the committed instruction stream (branch outcomes, addresses);
// the timing model decides when everything happens. Branch mispredictions
// stall fetch until the branch resolves plus the minimum recovery time;
// wrong-path instructions are not injected (their cache pollution is the
// one second-order effect this model omits — see DESIGN.md).
//
// In-flight instructions are the heap-pooled *uop structs below, linked
// by pointer. Core (entrycore.go) owns the pipeline state and stages,
// form.go performs MOP formation at rename, and pipeline.go holds the run
// loop; the scheduler is internal/sched's bit-parallel kernel.
package core

import (
	"macroop/internal/functional"
	"macroop/internal/isa"
	"macroop/internal/sched"
)

// uop is one in-flight instruction (a fused STA+STD store pair is one uop,
// as the paper's split-store machine commits one store).
type uop struct {
	d         functional.DynInst
	streamIdx int64 // fused-stream position (STDs not counted)

	// dataReg is the fused store-data register (NoReg otherwise); its
	// producer gates commit but is not a scheduling dependence.
	dataReg  isa.Reg
	dataProd prodRef

	// Fetch-time branch prediction outcome.
	mispredicted bool

	fetchCycle    int64
	insertAt      int64 // earliest queue-insert cycle (front-end latency)
	insertedCycle int64
	inserted      bool

	// Scheduling attachment: the issue queue entry holding this uop and
	// which of its (up to two) ops it is.
	entry *sched.Entry
	opIdx int

	// MOP formation state.
	claimedBy *uop // this uop is a designated MOP tail/chain member of claimedBy
	mopHead   bool
	mopTail   bool
	mopDep    bool // true: dependent MOP; false (when grouped): independent
	// expectOps/attachedOps track chain formation on the head: the head
	// plus expectOps-1 claimed members; members lists them in op order.
	expectOps   int
	attachedOps int
	members     []*uop
	headProds   []prodRef
	tailProds   []prodRef
	tailPC      int // for the last-arriving filter's pointer deletion

	// Embedded backing arrays for the three per-uop slices above, so the
	// steady-state rename path never allocates: members holds at most the
	// MOP size; the head carries at most 2 own sources and 2 sources per
	// attached member. The uop pool zeroes the whole struct on reuse.
	membersArr   [sched.MaxMOPOps]*uop
	headProdsArr [2]prodRef
	tailProdsArr [2 * (sched.MaxMOPOps - 1)]prodRef

	// branchResolveAt snapshots a mispredicted branch's resolve cycle at
	// commit, so the fetch stage can compute the resume cycle without
	// consulting the (released, possibly recycled) scheduler entry.
	branchResolveAt int64

	// Load memory-access memoization: the cache is probed once, on the
	// first grant; a replayed load's data still arrives when the original
	// miss fill completes.
	memProbed bool
	memFillAt int64

	committed bool
}

// prodRef names a producing entry/op pair recorded at rename time.
type prodRef struct {
	entry *sched.Entry
	opIdx int
}

func (u *uop) op() isa.Op { return u.d.Inst.Op }

func (u *uop) isLoad() bool  { return u.op().IsLoad() }
func (u *uop) isStore() bool { return u.op() == isa.STA }
func (u *uop) isBranch() bool {
	return u.op().IsControl()
}

// grouped reports whether the uop ended up inside a MOP.
func (u *uop) grouped() bool { return u.entry != nil && u.entry.IsMOP() }

// schedOpInfo builds the scheduler's view of this uop.
func (u *uop) schedOpInfo(loadAssumed int) sched.OpInfo {
	op := u.op()
	lat := op.Latency()
	if op.IsLoad() {
		lat += loadAssumed // agen + assumed DL1 hit
	}
	return sched.OpInfo{
		Seq:     u.d.Seq,
		FU:      op.FUClass(),
		Latency: lat,
		IsLoad:  op.IsLoad(),
	}
}
