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
	"strings"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/simerr"
)

const never = int64(1) << 62

// MaxMOPOps is the largest number of original instructions one issue
// queue entry can hold. The paper evaluates pairs (2) and characterizes
// groups up to its 8-instruction scope (Figure 7); chained MOPs are its
// "future work" extension (Section 4.3), supported here up to 8
// (wired-OR wakeup only).
const MaxMOPOps = 8

// Config parameterizes a Scheduler.
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
	// Window is a hint for the maximum number of simultaneously live
	// entries (the core passes its ROB size: every non-final entry keeps
	// at least one uncommitted op in the in-order ROB, so the live age
	// span never exceeds it). The bitset kernel sizes its age ring from
	// it and grows on demand if the hint is exceeded; the entry kernel
	// ignores it. 0 picks a default.
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

type srcEdge struct {
	prod    *Entry
	prodOp  int
	assumed int   // assumed producer result latency for this operand
	wake    int64 // scheduler-visible ready cycle (never = unknown)
	final   bool
	actual  int64 // actual operand availability once known
}

type consRef struct {
	entry  *Entry
	srcIdx int
}

// Entry is one issue queue entry: a single instruction, or a macro-op of
// two instructions sharing the entry (Section 3.1).
//
// Field order is deliberate: the scalars the scheduling loop touches per
// entry per cycle (state, grant, slot, refs) are grouped ahead of the
// MaxMOPOps-sized arrays, so the hot accesses share the struct's first
// cache line instead of straddling the ~200 bytes of op storage.
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

	// slot is the entry's index into the bitset kernel's parallel arrays
	// for its current life (BitScheduler only; the entry kernel leaves
	// it untouched).
	slot int

	numOps        int
	isMOP         bool
	everRequested bool
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

	srcs      []srcEdge
	consumers []consRef

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
// free list until a matching Scheduler.Release. The core retains entries
// referenced from its rename table and producer records, which outlive
// the producing op's commit.
func (e *Entry) Retain() { e.refs++ }

// State returns the entry lifecycle state.
func (e *Entry) GetState() State { return e.state }

// Grant returns the most recent grant cycle of the entry's first op.
func (e *Entry) Grant() int64 { return e.grant }

// IsMOP reports whether the entry holds a fused pair.
func (e *Entry) IsMOP() bool { return e.isMOP }

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

// DependsOn reports whether e transitively depends on target through
// unresolved source edges. MOP formation uses it to refuse chain links
// that would close a dependence cycle through the merged entry (the
// paper's pair heuristic is sound for pairs, but chained MOPs need the
// transitive check). The search is bounded by the in-flight window, since
// final edges are severed.
func (e *Entry) DependsOn(target *Entry) bool {
	if e == target {
		return true
	}
	seen := map[*Entry]bool{}
	var walk func(x *Entry) bool
	walk = func(x *Entry) bool {
		if x == target {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for i := range x.srcs {
			if p := x.srcs[i].prod; p != nil && walk(p) {
				return true
			}
		}
		return false
	}
	return walk(e)
}

// DependsOn reports whether e transitively depends on target; see
// Entry.DependsOn.
func (s *Scheduler) DependsOn(e, target *Entry) bool { return e.DependsOn(target) }

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

// Scheduler is the entry-linked reference kernel: every cycle it
// re-derives readiness for each live entry from its pointer-linked
// producer edges. The core runs BitScheduler (bitkernel.go); Scheduler
// stays only as the reference that TestKernelLockstep drives in lockstep
// with BitScheduler over random call scripts.
type Scheduler struct {
	cfg   Config
	stats Stats

	now     int64
	nextID  int64
	nextAge int64

	active   []*Entry // inserted and not yet final
	occupied int

	// free is the Entry free list: released entries (refs==0 after
	// finality) waiting to be reused by Insert. Pooling keeps the
	// steady-state cycle loop allocation-free.
	free []*Entry

	// Per-tick scratch, reused across Tick calls: the grant list returned
	// by Tick (valid until the next Tick) and the requester list.
	grantBuf []Grant
	reqBuf   []*Entry

	// Grants to emit for MOP tails in upcoming cycles (a MOP of N ops
	// sequences over N cycles), plus the issue-slot and functional-unit
	// resources they reserve, keyed by cycle.
	futureGrants grantRing
	futureFU     fuRing

	// deferred events, keyed by cycle.
	loadEvents entryRing // load miss discoveries
	sbEvents   entryRing // scoreboard detections of invalid issues

	// err latches the first fatal scheduling failure (replay-storm
	// livelock), reported by Err.
	err error
}

// New creates an entry-linked reference scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Width <= 0 {
		// Unreachable through config.Machine.Validate; kept as a typed
		// panic so direct misuse still surfaces as an *InternalError at
		// the core's recover boundary instead of crashing the process.
		panic(simerr.Internalf(simerr.Context{}, "sched: non-positive width %d", cfg.Width))
	}
	if cfg.ScoreboardDelay <= 0 {
		cfg.ScoreboardDelay = 2
	}
	return &Scheduler{
		cfg:          cfg,
		loadEvents:   newEntryRing(),
		sbEvents:     newEntryRing(),
		futureGrants: newGrantRing(),
		futureFU:     newFURing(),
	}
}

// Stats returns accumulated counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Err returns the first fatal scheduling failure (a replay-storm
// livelock), or nil. The core polls it once per cycle and aborts the run
// with the typed error instead of the scheduler crashing the process.
func (s *Scheduler) Err() error { return s.err }

// Occupied returns the number of issue queue entries currently in use.
func (s *Scheduler) Occupied() int { return s.occupied }

// HasSpace reports whether n more entries can be inserted.
func (s *Scheduler) HasSpace(n int) bool {
	return s.cfg.IQEntries == 0 || s.occupied+n <= s.cfg.IQEntries
}

// SrcSpec declares one source operand at insertion: the producing entry
// (nil if the value is already available) and which of its ops produces it.
type SrcSpec struct {
	Prod   *Entry
	ProdOp int
}

// Insert creates a new entry with one op and the given sources and adds it
// to the queue at the current cycle. If pendingTail is set the entry is a
// MOP head whose tail will arrive via AttachTail (or be cancelled via
// CancelTail).
func (s *Scheduler) Insert(op OpInfo, srcs []SrcSpec, pendingTail bool) *Entry {
	e := s.allocEntry()
	e.id = s.nextID
	e.age = s.nextAge
	e.numOps = 1
	e.isMOP = false
	e.pendingTail = pendingTail
	e.state = StateWaiting
	e.grant = -1
	e.earliestSelect = s.now + 1
	e.everRequested = false
	e.firstReq = -1
	e.replays = 0
	e.refs = 1 // the inserted op's own reference, dropped at its commit
	e.ops[0] = op
	for i := range e.actualReady {
		e.actualReady[i] = never
		e.loadDiscover[i] = 0
		e.loadResolved[i] = false
	}
	s.nextID++
	s.nextAge++
	s.addSources(e, srcs)
	s.active = append(s.active, e)
	s.occupied++
	if s.occupied > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = s.occupied
	}
	s.stats.EntriesInserted++
	s.stats.OpsInserted++
	return e
}

// AttachTail completes a two-instruction MOP: the tail op and its extra
// sources join the head's entry and the pending bit clears. Sources
// already satisfied inside the MOP (tail depending on head) must not be
// passed here.
func (s *Scheduler) AttachTail(e *Entry, op OpInfo, srcs []SrcSpec) {
	s.AttachOp(e, op, srcs, true)
}

// AttachOp appends one more original instruction to a pending MOP entry
// (the chained-MOP extension sequences up to MaxMOPOps instructions
// through one entry). When last is true the pending bit clears and the
// MOP becomes schedulable.
func (s *Scheduler) AttachOp(e *Entry, op OpInfo, srcs []SrcSpec, last bool) {
	if !e.pendingTail {
		panic(simerr.Internalf(simerr.Context{Cycle: s.now}, "sched: AttachOp on non-pending entry %d", e.id))
	}
	if e.numOps >= MaxMOPOps {
		panic(simerr.Internalf(simerr.Context{Cycle: s.now}, "sched: MOP op overflow on entry %d", e.id))
	}
	e.ops[e.numOps] = op
	e.numOps++
	e.isMOP = true
	e.refs++ // the attached op's reference, dropped at its commit
	if last {
		e.pendingTail = false
	}
	s.addSources(e, srcs)
	s.stats.OpsInserted++
	if last {
		s.stats.MOPsInserted++
	}
}

// CancelTail demotes a pending MOP head to an ordinary single-instruction
// entry (insertion-policy miss or squashed tail, Sections 5.2.3/5.3.2).
func (s *Scheduler) CancelTail(e *Entry) {
	e.pendingTail = false
}

// allocEntry pops the free list, or allocates when the pool is empty
// (cold start). Insert resets every scalar field; srcs/consumers were
// already truncated (capacity kept) on release.
func (s *Scheduler) allocEntry() *Entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	// Pre-size the edge lists so pooled entries almost never grow them.
	// Capacities only ratchet up per entry, but the pool hands entries
	// back in LIFO order, so an under-sized entry picked as a popular
	// producer would otherwise re-trigger amortized growth long into
	// steady state (observed as ~1 allocation per few hundred cycles).
	return &Entry{
		srcs:      make([]srcEdge, 0, srcsCapFloor),
		consumers: make([]consRef, 0, consumersCapFloor),
	}
}

// srcsCapFloor covers a full MOP chain: MaxMOPOps ops with 2 sources each.
const srcsCapFloor = 2 * MaxMOPOps

// consumersCapFloor bounds a producer's consumer list in the common
// configurations: every source edge is severed at the producer's finality
// and consumers never outlive their producers, so a list can only reach
// the number of live source edges — about two per occupant of a bounded
// queue. Unbounded-queue runs can still exceed this and grow (amortized,
// capacity retained).
const consumersCapFloor = 64

// Release drops one reference taken by Insert, AttachOp, or Entry.Retain.
// When the last reference to a final entry drops, the entry is recycled
// onto the free list: its generation bumps (invalidating any deferred
// events still keyed to this life) and its edge lists are truncated with
// their elements cleared, so the next life starts with empty lists and no
// stale consumer can ever receive a wakeup from it.
//
// A released-to-zero entry must be final: every reference is held either
// by a member op (which commits only after finality) or by a rename-time
// producer record whose holders also outlive the producer's finality.
func (s *Scheduler) Release(e *Entry) {
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.refs < 0 || e.state != StateFinal {
		panic(simerr.Internalf(simerr.Context{Cycle: s.now},
			"sched: bad release of entry %d (state %v, refs %d)", e.id, e.state, e.refs))
	}
	e.gen++
	e.UserData = nil
	clear(e.srcs)
	e.srcs = e.srcs[:0]
	clear(e.consumers)
	e.consumers = e.consumers[:0]
	s.free = append(s.free, e)
}

// DebugFreeCount reports the free-list size (tests only).
func (s *Scheduler) DebugFreeCount() int { return len(s.free) }

func (s *Scheduler) addSources(e *Entry, srcs []SrcSpec) {
	for _, sp := range srcs {
		edge := srcEdge{prod: sp.Prod, prodOp: sp.ProdOp, wake: never, actual: never}
		if sp.Prod == nil {
			edge.final = true
			edge.wake = 0
			edge.actual = 0
			e.srcs = append(e.srcs, edge)
			continue
		}
		p := sp.Prod
		edge.assumed = s.edgeAssumed(p, sp.ProdOp)
		switch {
		case p.state == StateFinal:
			edge.final = true
			edge.actual = p.actualReady[sp.ProdOp]
			// Model timing still applies: a consumer may not see the tag
			// earlier than the pipelined wakeup delivers it.
			edge.wake = maxI64(s.wakeFromGrant(p, edge.assumed), edge.actual)
			edge.prod = nil // final producers are not referenced again
		case p.state == StateIssued:
			edge.wake = s.wakeFromGrant(p, edge.assumed)
			if p.ops[sp.ProdOp].IsLoad && p.loadResolved[sp.ProdOp] {
				edge.wake = maxI64(edge.wake, p.actualReady[sp.ProdOp])
			}
		default:
			// Waiting: woken later by the producer's grant. In scoreboard
			// select-free mode the stale speculative broadcast is still
			// visible (the consumer may pile up and replay); in squash-dep
			// mode an unissued producer's speculation has been squashed,
			// so the consumer waits for the grant-time rebroadcast.
			if s.cfg.Model == config.SchedSelectFreeScoreboard && p.firstReq >= 0 {
				edge.wake = p.firstReq + int64(edge.assumed)
			}
		}
		e.srcs = append(e.srcs, edge)
		if p.state != StateFinal {
			// Final producers never broadcast again; registering with
			// them would only accrete an unbounded consumer list.
			p.consumers = append(p.consumers, consRef{entry: e, srcIdx: len(e.srcs) - 1})
		}
	}
}

// edgeAssumed is the producer-op result latency assumed by the wakeup
// logic for consumer scheduling.
func (s *Scheduler) edgeAssumed(p *Entry, opIdx int) int {
	return p.ops[opIdx].Latency
}

func (s *Scheduler) selectFree() bool { return modelSelectFree(s.cfg.Model) }

func modelSelectFree(m config.SchedModel) bool {
	return m == config.SchedSelectFreeSquashDep || m == config.SchedSelectFreeScoreboard
}

// wakeFromGrant computes when a consumer becomes selectable given its
// producer entry was granted at p.grant, per the scheduling model.
func (s *Scheduler) wakeFromGrant(p *Entry, assumed int) int64 {
	return wakeFromGrant(s.cfg.Model, p, assumed)
}

// wakeFromGrant is the model-shared broadcast timing rule, used
// identically by both kernels.
func wakeFromGrant(model config.SchedModel, p *Entry, assumed int) int64 {
	g := p.grant
	switch model {
	case config.SchedBase:
		return g + int64(assumed)
	case config.SchedTwoCycle:
		return g + int64(max(assumed, 2))
	case config.SchedMOP:
		if p.isMOP {
			// One tag broadcast for the whole MOP: every consumer is
			// selectable numOps cycles after the head issues (two for the
			// paper's pairs, Figure 5; N for chained MOPs).
			return g + int64(p.numOps)
		}
		return g + int64(max(assumed, 2))
	case config.SchedSelectFreeSquashDep:
		// Re-broadcast after a squash costs one cycle relative to the
		// speculative wakeup; the non-collision path never calls this.
		return g + int64(assumed)
	case config.SchedSelectFreeScoreboard:
		return g + int64(assumed)
	}
	panic(simerr.Internalf(simerr.Context{}, "sched: unknown model %v", model))
}

// SetLoadResult informs the scheduler of a load op's actual data
// availability and the cycle at which a mismatch with the assumed hit
// latency becomes known (address generated, cache probed). Call after
// each grant of a load op.
func (s *Scheduler) SetLoadResult(e *Entry, opIdx int, actualReady, discover int64) {
	e.actualReady[opIdx] = actualReady
	e.loadDiscover[opIdx] = discover
	e.loadResolved[opIdx] = true
	assumedReady := e.grant + int64(e.ops[opIdx].Latency)
	if e.isMOP {
		panic(simerr.Internalf(simerr.Context{Cycle: s.now}, "sched: load in MOP entry %d", e.id))
	}
	if actualReady > assumedReady {
		s.loadEvents.push(s.now, discover, e)
	}
}

// Tick advances one cycle: applies deferred replay/squash events, performs
// wakeup and select per the model, and returns the ops granted this cycle
// in issue order. The returned slice is scratch owned by the scheduler:
// it is valid until the next Tick call.
func (s *Scheduler) Tick(now int64) []Grant {
	s.now = now

	// MOP ops sequencing from earlier grants occupy slots first ("the
	// selection logic does not select another instruction through the
	// same issue slot in which a MOP is being sequenced").
	grants := s.futureGrants.take(now, s.grantBuf[:0])
	widthLeft := s.cfg.Width - len(grants)
	fuUsed := s.futureFU.take(now)

	// Load-miss discoveries: selectively invalidate shadow issues.
	// Generation-guarded: an entry released and reused before its event
	// fires must not have its new life touched.
	for _, ev := range s.loadEvents.take(now) {
		if ev.e.gen == ev.gen {
			s.fixupLoadMiss(ev.e)
		}
	}
	// Scoreboard detections of invalid select-free issues.
	for _, ev := range s.sbEvents.take(now) {
		if ev.e.gen == ev.gen {
			s.scoreboardCheck(ev.e)
		}
	}

	// Wakeup phase: in select-free mode, entries broadcast at request
	// time, before knowing whether selection succeeds.
	requesters := s.collectRequesters()
	if s.selectFree() {
		for _, e := range requesters {
			if e.firstReq < 0 {
				e.firstReq = now
				s.broadcastSpeculative(e)
			}
		}
	}

	// Select phase: oldest first, bounded by width and functional units.
	for _, e := range requesters {
		if widthLeft <= 0 {
			break
		}
		fu0 := e.ops[0].FU
		if !s.fuAvailable(fu0, fuUsed) {
			continue
		}
		if e.numOps > 1 && !s.mopResourcesFree(e, now) {
			continue
		}
		// Grant.
		widthLeft--
		if fu0 != isa.ClassNone {
			fuUsed[fu0]++
		}
		s.grantEntry(e, now, &grants)
	}

	// Select-free collision victims: requested this cycle, not granted.
	if s.selectFree() {
		for _, e := range requesters {
			if e.state != StateIssued && e.firstReq == now {
				s.stats.CollisionVict++
				if s.cfg.Model == config.SchedSelectFreeSquashDep {
					s.squashDependents(e)
				}
			}
		}
	}

	s.finalize(now)
	s.grantBuf = grants[:0] // keep any grown capacity for the next tick
	return grants
}

func (s *Scheduler) fuAvailable(c isa.Class, used [isa.NumClasses]int) bool {
	if c == isa.ClassNone {
		return true
	}
	return used[c] < s.cfg.FU[c]
}

// mopResourcesFree reports whether the issue slots and functional units a
// MOP's later ops will occupy in upcoming cycles are still available.
func (s *Scheduler) mopResourcesFree(e *Entry, now int64) bool {
	for k := 1; k < e.numOps; k++ {
		cyc := now + int64(k)
		if s.futureGrants.count(cyc) >= s.cfg.Width {
			return false
		}
		c := e.ops[k].FU
		if c != isa.ClassNone && s.futureFU.get(cyc, c) >= s.cfg.FU[c] {
			return false
		}
	}
	return true
}

// collectRequesters returns schedulable entries in age order. The
// returned slice is scratch reused across ticks.
func (s *Scheduler) collectRequesters() []*Entry {
	req := s.reqBuf[:0]
	for _, e := range s.active {
		if e.state != StateWaiting || e.pendingTail {
			continue
		}
		if e.earliestSelect > s.now {
			continue
		}
		ready := true
		for i := range e.srcs {
			if e.srcs[i].wake > s.now {
				ready = false
				break
			}
		}
		if ready {
			req = append(req, e)
		}
	}
	// active is maintained in age order (append-only); no sort needed.
	s.reqBuf = req
	return req
}

func (s *Scheduler) grantEntry(e *Entry, now int64, grants *[]Grant) {
	e.state = StateIssued
	e.grant = now
	e.everRequested = true
	s.stats.Grants++
	*grants = append(*grants, Grant{Entry: e, OpIdx: 0, Cycle: now})
	// Non-load results become actually available grant+latency later;
	// loads are patched by SetLoadResult.
	if !e.ops[0].IsLoad {
		e.actualReady[0] = now + int64(e.ops[0].Latency)
	}
	for k := 1; k < e.numOps; k++ {
		// Sequence later ops in following cycles through the same slot.
		cyc := now + int64(k)
		s.futureGrants.push(now, cyc, Grant{Entry: e, OpIdx: k, Cycle: cyc})
		if c := e.ops[k].FU; c != isa.ClassNone {
			s.futureFU.add(now, cyc, c)
		}
		e.actualReady[k] = cyc + int64(e.ops[k].Latency)
	}
	// Conventional wakeup: broadcast from the grant.
	if !s.selectFree() {
		s.wakeConsumers(e)
	} else {
		// A collision victim that is finally granted re-broadcasts; in
		// squash-dep mode its squashed dependents wake from this grant.
		if e.firstReq >= 0 && e.firstReq < now {
			s.rebroadcast(e)
		}
		// Scoreboard mode checks operand validity a fixed delay later.
		if s.cfg.Model == config.SchedSelectFreeScoreboard {
			s.sbEvents.push(now, now+int64(s.cfg.ScoreboardDelay), e)
		}
	}
}

// wakeConsumers sets consumer wake times from this entry's grant.
func (s *Scheduler) wakeConsumers(e *Entry) {
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		edge.wake = s.wakeFromGrant(e, edge.assumed)
	}
}

// broadcastSpeculative wakes consumers at request time (select-free).
func (s *Scheduler) broadcastSpeculative(e *Entry) {
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		edge.wake = e.firstReq + int64(edge.assumed)
	}
}

// squashDependents clears the speculative wakeups of a collision victim's
// consumers (squash-dep: detected in the select stage, so none of them
// has issued yet). They re-wake from the victim's eventual grant, one
// cycle late (re-broadcast).
func (s *Scheduler) squashDependents(e *Entry) {
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		edge.wake = never
	}
}

// rebroadcast wakes consumers after a granted collision victim.
func (s *Scheduler) rebroadcast(e *Entry) {
	penalty := int64(0)
	if s.cfg.Model == config.SchedSelectFreeSquashDep {
		penalty = 1 // squashed dependents pay one re-broadcast cycle
	}
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		w := e.grant + int64(edge.assumed) + penalty
		if s.cfg.Model == config.SchedSelectFreeScoreboard && edge.wake < w && c.entry.state == StateIssued {
			// Pileup victim keeps its stale wake; the scoreboard will
			// catch it at its own check.
			continue
		}
		edge.wake = w
	}
}

// scoreboardCheck verifies an issued select-free entry's operands were
// actually ready at issue; otherwise it becomes a pileup victim: it is
// invalidated, reissues later, and its own speculative wakeups stand
// until their consumers fail their own checks (the pileup cascade).
func (s *Scheduler) scoreboardCheck(e *Entry) {
	if e.state != StateIssued {
		return
	}
	if s.operandsValidAt(e, e.grant) {
		return
	}
	s.stats.PileupVict++
	s.invalidate(e, s.now)
	// Re-arm the operand ready state: the replayed instruction waits for
	// real broadcasts instead of its stale speculative wakeups (otherwise
	// it would spin reissuing against a still-unready producer).
	for i := range e.srcs {
		edge := &e.srcs[i]
		if edge.final {
			continue
		}
		p := edge.prod
		switch p.state {
		case StateIssued:
			edge.wake = s.wakeFromGrant(p, edge.assumed)
			if p.ops[edge.prodOp].IsLoad && p.loadResolved[edge.prodOp] {
				edge.wake = maxI64(edge.wake, p.actualReady[edge.prodOp])
			}
		case StateWaiting:
			edge.wake = never
		}
	}
}

// OperandsValid reports whether every source operand of e was actually
// available at its grant cycle — i.e. whether this issue will stand. The
// core uses it to decide whether a load's address is really computable
// yet (an invalidly issued load must not probe the cache: that would be
// an illegal prefetch with data it cannot have).
func (s *Scheduler) OperandsValid(e *Entry) bool {
	return e.state == StateIssued && s.operandsValidAt(e, e.grant)
}

// operandsValidAt reports whether every source operand of e was actually
// available at cycle g.
func (s *Scheduler) operandsValidAt(e *Entry, g int64) bool {
	for i := range e.srcs {
		edge := &e.srcs[i]
		if edge.final {
			if edge.actual > g {
				return false
			}
			continue
		}
		p := edge.prod
		switch p.state {
		case StateWaiting:
			return false
		default:
			ar := p.actualReady[edge.prodOp]
			if ar == never || ar > g {
				return false
			}
		}
	}
	return true
}

// fixupLoadMiss handles a discovered load miss: consumers woken with the
// assumed hit latency are re-pointed at the actual data-return cycle, and
// any that already issued inside the shadow are selectively invalidated
// and replayed (transitively).
func (s *Scheduler) fixupLoadMiss(e *Entry) {
	actual := e.actualReady[0]
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		if c.entry.state == StateIssued && c.entry.grant < actual {
			s.invalidate(c.entry, s.now)
		}
		if edge.wake < actual {
			edge.wake = actual
		}
	}
}

// invalidate replays an issued entry: it returns to waiting, may not be
// selected again until now+ReplayPenalty, and anything it woke (or that
// issued off its rescinded grant) is recursively fixed.
func (s *Scheduler) invalidate(e *Entry, now int64) {
	if e.state != StateIssued {
		return
	}
	e.state = StateWaiting
	e.replays++
	s.stats.Replays++
	limit := s.cfg.ReplayLimit
	if limit <= 0 {
		limit = DefaultReplayLimit
	}
	if e.replays > limit && s.err == nil {
		s.err = simerr.Livelock(simerr.Context{Cycle: now}, s.dumpEntry(e),
			"entry %d replayed %d times (limit %d)", e.id, e.replays, limit)
	}
	e.earliestSelect = now + int64(s.cfg.ReplayPenalty)
	if s.selectFree() {
		// The entry will re-request and re-broadcast.
		e.firstReq = -1
	}
	grantWas := e.grant
	e.grant = -1
	for i := range e.actualReady {
		e.actualReady[i] = never
		e.loadResolved[i] = false
	}
	// Rescind wakeups derived from the cancelled grant.
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		if s.cfg.Model == config.SchedSelectFreeScoreboard {
			// Pileup semantics: stale wakeups stand; dependents issue
			// wrongly and get caught by their own scoreboard check.
			continue
		}
		edge.wake = never
		if c.entry.state == StateIssued && c.entry.grant >= grantWas {
			s.invalidate(c.entry, now)
		}
	}
}

// finalize settles entries whose scheduling can no longer change: issued,
// all operands final and valid, loads resolved. Final entries release
// their issue queue slot and pin their consumers' edges.
func (s *Scheduler) finalize(now int64) {
	changed := true
	for changed {
		changed = false
		kept := s.active[:0]
		for _, e := range s.active {
			if s.tryFinalize(e, now) {
				changed = true
				s.occupied--
				continue
			}
			kept = append(kept, e)
		}
		s.active = kept
	}
}

func (s *Scheduler) tryFinalize(e *Entry, now int64) bool {
	if e.state != StateIssued {
		return false
	}
	for i := range e.srcs {
		edge := &e.srcs[i]
		if !edge.final {
			return false
		}
		if edge.actual > e.grant {
			// Issued before an operand was actually ready and not yet
			// invalidated: this happens only transiently within a cycle
			// (e.g. scoreboard pileups pending detection); not final.
			return false
		}
	}
	for i := 0; i < e.numOps; i++ {
		if e.ops[i].IsLoad && !e.loadResolved[i] {
			return false
		}
		// A load's miss shadow must have passed before its result can be
		// considered settled for consumers.
		if e.ops[i].IsLoad && e.loadDiscover[i] > now {
			return false
		}
	}
	e.state = StateFinal
	for _, c := range e.consumers {
		edge := &c.entry.srcs[c.srcIdx]
		if edge.final {
			continue
		}
		edge.final = true
		edge.prod = nil // sever the graph so ancestors become collectable
		edge.actual = e.actualReady[edge.prodOp]
		if edge.wake < edge.actual {
			if c.entry.state == StateIssued && c.entry.grant < edge.actual {
				// Safety net; replay fixups should already have caught it.
				s.invalidate(c.entry, now)
			}
			edge.wake = edge.actual
		}
	}
	// Sever the graph so ancestors become collectable, but keep the list
	// capacity for the entry's next life through the free list: clear the
	// elements (dropping the Entry pointers) and truncate in place.
	clear(e.consumers)
	e.consumers = e.consumers[:0]
	// This entry's own operand edges are final and never consulted again:
	// drop them (a rename-table or payload reference to a final entry
	// must not pin the dependence history in memory).
	clear(e.srcs)
	e.srcs = e.srcs[:0]
	return true
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
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

// dumpEntry renders one entry's scheduling state for diagnostics.
func (s *Scheduler) dumpEntry(e *Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "entry %d: state=%v replays=%d grant=%d ops=%d", e.id, e.state, e.replays, e.grant, e.numOps)
	if e.isMOP {
		b.WriteString(" (MOP)")
	}
	if e.pendingTail {
		b.WriteString(" (pending tail)")
	}
	for i := 0; i < e.numOps; i++ {
		fmt.Fprintf(&b, " seq=%d", e.ops[i].Seq)
	}
	for i := range e.srcs {
		edge := &e.srcs[i]
		fmt.Fprintf(&b, "\n  src %d: wake=%s actual=%s final=%v",
			i, cycleStr(edge.wake), cycleStr(edge.actual), edge.final)
	}
	return b.String()
}

func cycleStr(c int64) string {
	if c >= never {
		return "never"
	}
	return fmt.Sprintf("%d", c)
}

// DebugRefs lists the entries this entry references directly (diagnostic).
func (e *Entry) DebugRefs() (out []*Entry, kinds []string) {
	for i := range e.srcs {
		if p := e.srcs[i].prod; p != nil {
			out = append(out, p)
			kinds = append(kinds, "src")
		}
	}
	for _, c := range e.consumers {
		out = append(out, c.entry)
		kinds = append(kinds, "cons")
	}
	return out, kinds
}
