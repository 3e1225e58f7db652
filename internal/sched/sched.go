// Package sched implements the instruction scheduling logic of the paper:
// the wakeup and select loop, in five variants (Section 6.2):
//
//   - base: ideally pipelined scheduling, equivalent to atomic 1-cycle
//     wakeup+select — a dependent of a producer issued at cycle g with
//     latency L may be selected at g+L;
//   - 2-cycle: pipelined wakeup|select — dependents selectable at
//     g+max(L,2), putting a bubble after every single-cycle producer;
//   - macro-op: built on 2-cycle scheduling; an issue queue entry may hold
//     two fused single-cycle instructions (a MOP) that issue as a unit —
//     the head at g, the tail at g+1 — and broadcast a single tag that
//     makes all consumers selectable at g+2 (so tail consumers run
//     back-to-back, Figure 5);
//   - select-free (squash-dep / scoreboard): speculative wakeup at request
//     time per Brown et al. [8]; collision victims either squash their
//     speculatively woken dependents (ideal) or let them issue and replay
//     as pileup victims detected by a register-file scoreboard.
//
// The scheduler also owns speculative-scheduling replay: loads are assumed
// to hit the DL1, and dependents issued inside a load's miss shadow are
// selectively invalidated and reissued after the miss resolves (the base
// machine's "selective replay, 2-cycle penalty" of Table 1).
//
// The package is timing-only: the core (internal/core) decides what the
// instructions are and what memory does; the scheduler decides when each
// queue entry issues.
package sched

import (
	"fmt"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/simerr"
)

const never = int64(1) << 62

// MaxMOPOps is the largest number of original instructions one issue
// queue entry can hold. The paper evaluates pairs (2); chained MOPs are
// its "future work" extension (Section 4.3), supported here up to 4
// (wired-OR wakeup only), the largest size an experiment runs. Figure 7's
// characterization of groups up to 8 instructions (mop.Grouping) forms no
// entries and does not use this bound.
const MaxMOPOps = 4

// Config parameterizes a BitScheduler.
type Config struct {
	Model config.SchedModel
	// Width is the issue width (grants per cycle).
	Width int
	// IQEntries bounds occupied entries; 0 means unrestricted.
	IQEntries int
	// FU[class] is the number of functional units of each isa.Class.
	FU [isa.NumClasses]int
	// ReplayPenalty is the extra delay before an invalidated entry may
	// reissue (Table 1: 2 cycles).
	ReplayPenalty int
	// ScoreboardDelay is the latency from an invalid select-free issue to
	// its detection by the register-file scoreboard.
	ScoreboardDelay int
	// ReplayLimit is the per-entry replay count above which the scheduler
	// declares a livelock (replay storm) through Err instead of replaying
	// further; 0 means DefaultReplayLimit.
	ReplayLimit int
	// Window bounds the live age span: the ages from the oldest entry
	// not yet final to the newest entry. The core passes its ROB size: a
	// non-final entry cannot commit, so its head and every younger
	// entry's head are still in the in-order ROB, and the span never
	// exceeds it. The age ring has Window slots rounded up to a power of
	// two, at least 64; an Insert past that bound panics with an
	// internal error. 0 means 128.
	Window int
}

// DefaultReplayLimit is the per-entry replay-storm threshold used when
// Config.ReplayLimit is zero. A legitimate entry replays once per
// overlapping load-miss shadow, so triple digits already indicates a
// wakeup loss; the default keeps a wide safety margin.
const DefaultReplayLimit = 10000

// OpInfo describes one original instruction inside an entry.
type OpInfo struct {
	Seq     int64
	FU      isa.Class
	Latency int // scheduler-assumed result latency (loads: agen+DL1 hit)
	IsLoad  bool
}

// State is the lifecycle of an entry.
type State uint8

// Entry states.
const (
	StateWaiting State = iota
	StateIssued
	StateFinal
)

// Entry is one issue queue entry: a single instruction, or a macro-op of
// two instructions sharing the entry (Section 3.1).
//
// Field order is deliberate: the scalars the scheduling loop touches per
// entry per cycle (state, grant, slot, refs) are grouped ahead of the
// MaxMOPOps-sized arrays, so the hot accesses share the struct's first
// cache line instead of straddling the ~160 bytes of op storage.
type Entry struct {
	state State
	// gen counts reuses of this Entry struct through the scheduler's free
	// list. Deferred events (entryRing) record the generation they were
	// scheduled against so a stale event cannot touch a recycled entry's
	// new life.
	gen uint32
	// refs counts external holders of this entry beyond the scheduler's
	// own graph: one per member op (taken by Insert/AttachOp, dropped by
	// the core at that op's commit) plus any Retain'd rename-table or
	// producer-record reference. The entry returns to the free list when
	// the count reaches zero after finality.
	refs int32

	grant          int64 // cycle op0 was granted (most recent)
	earliestSelect int64
	firstReq       int64 // select-free: cycle of first selection request

	// slot is the entry's index into the scheduler's parallel arrays for
	// its current life.
	slot int

	numOps int
	// pendingTail marks a MOP head waiting for its tail to be inserted
	// (Section 5.2.3); the entry does not request selection until then.
	pendingTail bool

	id      int64
	age     int64
	replays int

	ops [MaxMOPOps]OpInfo

	// actualReady[i] is when op i's result is actually available to a
	// consumer issuing at that cycle or later. For non-loads it follows
	// from the grant; for loads the core sets it via SetLoadResult.
	actualReady [MaxMOPOps]int64
	// loadDiscover[i] is when a load op's assumed/actual mismatch becomes
	// known (address generated, cache probed).
	loadDiscover [MaxMOPOps]int64
	loadResolved [MaxMOPOps]bool

	// UserData carries the core's per-entry payload (opaque here).
	UserData any
}

// ID returns the entry's unique id. Ids are unique across entry reuse:
// a recycled Entry struct gets a fresh id for each life.
func (e *Entry) ID() int64 { return e.id }

// Gen returns the entry's reuse generation (incremented on each release
// to the free list). Holders of long-lived references can compare it to
// detect that the entry has moved on to a new life.
func (e *Entry) Gen() uint32 { return e.gen }

// Retain adds one reference to the entry, deferring its return to the
// free list until a matching BitScheduler.Release. The core retains entries
// referenced from its rename table and producer records, which outlive
// the producing op's commit.
func (e *Entry) Retain() { e.refs++ }

// State returns the entry lifecycle state.
func (e *Entry) GetState() State { return e.state }

// Grant returns the most recent grant cycle of the entry's first op.
func (e *Entry) Grant() int64 { return e.grant }

// IsMOP reports whether the entry holds more than one instruction.
func (e *Entry) IsMOP() bool { return e.numOps > 1 }

// NumOps returns how many original instructions the entry holds.
func (e *Entry) NumOps() int { return e.numOps }

// Op returns the i-th op's info.
func (e *Entry) Op(i int) OpInfo { return e.ops[i] }

// Final reports whether the entry's scheduling is settled: it issued with
// valid operands and can no longer be replayed.
func (e *Entry) Final() bool { return e.state == StateFinal }

// PendingTail reports whether the entry still awaits its MOP tail.
func (e *Entry) PendingTail() bool { return e.pendingTail }

// ActualReady returns when op i's result is actually available.
func (e *Entry) ActualReady(i int) int64 { return e.actualReady[i] }

// Grant is one op issue event reported by Tick.
type Grant struct {
	Entry *Entry
	OpIdx int
	Cycle int64
}

// Stats counts scheduler events.
type Stats struct {
	EntriesInserted int64
	OpsInserted     int64
	MOPsInserted    int64
	Grants          int64
	Replays         int64 // load-shadow selective replays (invalid issues)
	CollisionVict   int64 // select-free: requested but not granted at first request
	PileupVict      int64 // select-free scoreboard: invalid issues replayed
	MaxOccupancy    int
}

// SrcSpec declares one source operand at insertion: the producing entry
// (nil if the value is already available) and which of its ops produces it.
type SrcSpec struct {
	Prod   *Entry
	ProdOp int
}

func modelSelectFree(m config.SchedModel) bool {
	return m == config.SchedSelectFreeSquashDep || m == config.SchedSelectFreeScoreboard
}

// wakeFromGrant computes when a consumer becomes selectable given its
// producer entry p broadcast its tag at cycle g — its grant, or for the
// select-free models' speculative wakeup its first request — per the
// scheduling model: the broadcast timing rule every wakeup path shares.
func wakeFromGrant(model config.SchedModel, p *Entry, g int64, assumed int) int64 {
	switch model {
	case config.SchedBase:
		return g + int64(assumed)
	case config.SchedTwoCycle:
		return g + int64(max(assumed, 2))
	case config.SchedMOP:
		if p.numOps > 1 {
			// One tag broadcast for the whole MOP: every consumer is
			// selectable numOps cycles after the head issues (two for the
			// paper's pairs, Figure 5; N for chained MOPs).
			return g + int64(p.numOps)
		}
		return g + int64(max(assumed, 2))
	case config.SchedSelectFreeSquashDep:
		// Both the speculative broadcast at the first request and a
		// grant wake after the latency; a squashed dependent's one extra
		// re-broadcast cycle is rebroadcast's penalty.
		return g + int64(assumed)
	case config.SchedSelectFreeScoreboard:
		return g + int64(assumed)
	}
	panic(simerr.Internalf(simerr.Context{}, "sched: unknown model %v", model))
}

// String names the entry state.
func (st State) String() string {
	switch st {
	case StateWaiting:
		return "waiting"
	case StateIssued:
		return "issued"
	case StateFinal:
		return "final"
	}
	return fmt.Sprintf("state(%d)", int(st))
}

func cycleStr(c int64) string {
	if c >= never {
		return "never"
	}
	return fmt.Sprintf("%d", c)
}
