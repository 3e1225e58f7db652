package sched

import (
	"fmt"
	"math/bits"
	"strings"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/simerr"
)

// This file implements the bit-parallel structure-of-arrays scheduler
// kernel, the one the core runs. It is a cycle-exact re-implementation of
// the entry-linked reference kernel in sched.go with the data layout the
// paper's hardware actually has:
//
//   - issue queue entries live in parallel arrays indexed by a slot on a
//     power-of-two age ring (slot = age & (n-1); the live age span is
//     bounded by the ROB, so slots are unique and ascending bit position
//     from the oldest slot is ascending age);
//   - wakeup is a tag broadcast over per-producer consumer masks: each
//     producer slot owns an n-bit mask of its consumers' slots, and a
//     broadcast walks the mask words with bits.TrailingZeros64;
//   - select is a priority decoder: a bit scan over the packed ready
//     mask, oldest slot first (bitscan.go), gated by width and FUs;
//   - readiness is event-driven instead of recomputed per entry per
//     cycle: each wake-time update re-derives the entry's ready cycle,
//     sets its ready bit when due, or schedules a re-check on a
//     cycle-keyed ring; finality likewise settles from a candidate
//     bitmap triggered by grants, last-operand finality, and load
//     resolution, instead of re-scanning every active entry every cycle.
//
// Both kernels share the Entry handle (identity, refcounts, ops, grant
// and result times stay on the struct, surviving slot recycling for the
// core's post-commit reads); the per-edge scheduling state (producers,
// assumed latencies, wake/actual times) lives only in the slot arrays.
// TestKernelLockstep (differential_test.go) drives both kernels with the
// same random call scripts and requires identical grant streams, stats
// and entry states every cycle.

// edgeStride is the per-slot capacity of the edge arrays: a full MOP
// chain of MaxMOPOps ops with two sources each.
const edgeStride = 2 * MaxMOPOps

// Edge flag bits.
const (
	edgeFinal uint8 = 1 << iota
	edgeDeaf
)

// BitScheduler is the bit-parallel wakeup/select engine.
type BitScheduler struct {
	cfg   Config
	stats Stats

	now     int64
	nextID  int64
	nextAge int64

	// Age ring geometry: n slots (power of two, >= 64), words = n/64
	// packed mask words.
	n     int
	words int

	// oldestAge is the age of the oldest live entry (== nextAge when the
	// queue is empty); its slot is where age-order scans start.
	oldestAge int64

	occupied int

	// ent maps slot -> live entry (nil when free).
	ent []*Entry

	// Per-slot source edges, stride edgeStride. eProd is the producer's
	// slot (-1 once final/severed); eOp the producer op index; eAssumed
	// the assumed latency; eWake/eActual the scheduler-visible and
	// actual operand-ready cycles; eFlags the final/deaf bits. nsrc is
	// the edge count, open the number of not-yet-final edges.
	nsrc     []int32
	open     []int32
	eProd    []int32
	eOp      []int8
	eAssumed []int32
	eWake    []int64
	eActual  []int64
	eFlags   []uint8

	// Packed n-bit masks: live entries, ready requesters, finalize
	// candidates, and the per-tick ready snapshot select works from.
	live  []uint64
	ready []uint64
	cand  []uint64
	snap  []uint64

	// recheckAt[s] is the earliest pending readyEvents cycle for the
	// slot's current occupant (0 = none): refreshReady skips pushing a
	// re-check that an already-scheduled earlier or equal event covers.
	// Losing a marker only costs a harmless duplicate push, so it is
	// reset freely on slot claim and free.
	recheckAt []int64

	// cons holds one n-bit consumer mask per producer slot (row p starts
	// at p*words): bit c means live entry at slot c has at least one
	// non-final edge from producer p.
	cons []uint64

	// seen/depStack are DependsOn scratch.
	seen     []uint64
	depStack []int32

	free []*Entry

	grantBuf []Grant

	futureGrants grantRing
	futureFU     fuRing

	loadEvents  entryRing // load miss discoveries
	sbEvents    entryRing // scoreboard detections of invalid issues
	readyEvents entryRing // deferred readiness re-checks
	finalEvents entryRing // deferred finality re-checks (load discovery)

	err error

	// Fault-injection state (internal/fault): suppressReplay arms the
	// lost-replay fault, suppressed is the entry whose invalidations are
	// silently dropped once the fault fires.
	suppressReplay bool
	suppressed     *Entry
}

// NewBit creates a bit-parallel scheduler.
func NewBit(cfg Config) *BitScheduler {
	if cfg.Width <= 0 {
		panic(simerr.Internalf(simerr.Context{}, "sched: non-positive width %d", cfg.Width))
	}
	if cfg.ScoreboardDelay <= 0 {
		cfg.ScoreboardDelay = 2
	}
	window := cfg.Window
	if window <= 0 {
		window = 128
	}
	// Twice the live-window bound keeps slots collision-free with slack;
	// Insert still grows the ring if a caller exceeds the hint.
	n := 64
	for n < 2*window {
		n *= 2
	}
	k := &BitScheduler{
		cfg:          cfg,
		n:            n,
		words:        n / 64,
		loadEvents:   newEntryRing(),
		sbEvents:     newEntryRing(),
		readyEvents:  newEntryRing(),
		finalEvents:  newEntryRing(),
		futureGrants: newGrantRing(),
		futureFU:     newFURing(),
	}
	k.allocArrays()
	return k
}

func (k *BitScheduler) allocArrays() {
	n, w := k.n, k.words
	k.ent = make([]*Entry, n)
	k.nsrc = make([]int32, n)
	k.open = make([]int32, n)
	k.eProd = make([]int32, n*edgeStride)
	k.eOp = make([]int8, n*edgeStride)
	k.eAssumed = make([]int32, n*edgeStride)
	k.eWake = make([]int64, n*edgeStride)
	k.eActual = make([]int64, n*edgeStride)
	k.eFlags = make([]uint8, n*edgeStride)
	k.live = make([]uint64, w)
	k.ready = make([]uint64, w)
	k.cand = make([]uint64, w)
	k.snap = make([]uint64, w)
	k.seen = make([]uint64, w)
	k.cons = make([]uint64, n*w)
	k.recheckAt = make([]int64, n)
}

// grow doubles the age ring and re-places every live entry at its new
// slot (ages are unique, so slots stay unique). Rare: only reached when
// a caller exceeds the Window hint.
func (k *BitScheduler) grow() {
	oldEnt := k.ent
	oldN := k.n
	oldNsrc := k.nsrc
	oldOpen := k.open
	oldProd := k.eProd
	oldOp := k.eOp
	oldAssumed := k.eAssumed
	oldWake := k.eWake
	oldActual := k.eActual
	oldFlags := k.eFlags
	oldReady := k.ready
	oldCand := k.cand
	oldRecheck := k.recheckAt

	k.n = oldN * 2
	k.words = k.n / 64
	k.allocArrays()

	mask := int64(k.n - 1)
	for s := 0; s < oldN; s++ {
		e := oldEnt[s]
		if e == nil {
			continue
		}
		ns := int(e.age & mask)
		e.slot = ns
		k.ent[ns] = e
		bitSet(k.live, ns)
		if bitTest(oldReady, s) {
			bitSet(k.ready, ns)
		}
		if bitTest(oldCand, s) {
			bitSet(k.cand, ns)
		}
		k.nsrc[ns] = oldNsrc[s]
		k.open[ns] = oldOpen[s]
		k.recheckAt[ns] = oldRecheck[s]
		ob, nb := s*edgeStride, ns*edgeStride
		cnt := int(oldNsrc[s])
		copy(k.eProd[nb:nb+cnt], oldProd[ob:ob+cnt])
		copy(k.eOp[nb:nb+cnt], oldOp[ob:ob+cnt])
		copy(k.eAssumed[nb:nb+cnt], oldAssumed[ob:ob+cnt])
		copy(k.eWake[nb:nb+cnt], oldWake[ob:ob+cnt])
		copy(k.eActual[nb:nb+cnt], oldActual[ob:ob+cnt])
		copy(k.eFlags[nb:nb+cnt], oldFlags[ob:ob+cnt])
	}
	// Remap edge producer slots and rebuild the consumer masks from the
	// edges (old slot -> entry -> new slot).
	for s := 0; s < oldN; s++ {
		e := oldEnt[s]
		if e == nil {
			continue
		}
		ns := e.slot
		base := ns * edgeStride
		for i := 0; i < int(k.nsrc[ns]); i++ {
			ei := base + i
			if k.eFlags[ei]&edgeFinal != 0 {
				continue
			}
			p := oldEnt[k.eProd[ei]]
			k.eProd[ei] = int32(p.slot)
			bitSet(k.cons[p.slot*k.words:(p.slot+1)*k.words], ns)
		}
	}
}

// Stats returns accumulated counters.
func (k *BitScheduler) Stats() Stats { return k.stats }

// Err returns the first fatal scheduling failure, or nil.
func (k *BitScheduler) Err() error { return k.err }

// Occupied returns the number of issue queue entries currently in use.
func (k *BitScheduler) Occupied() int { return k.occupied }

// HasSpace reports whether n more entries can be inserted.
func (k *BitScheduler) HasSpace(n int) bool {
	return k.cfg.IQEntries == 0 || k.occupied+n <= k.cfg.IQEntries
}

func (k *BitScheduler) selectFree() bool { return modelSelectFree(k.cfg.Model) }

func (k *BitScheduler) startPos() int { return int(k.oldestAge & int64(k.n-1)) }

// Insert creates a new entry with one op and the given sources; see
// Scheduler.Insert.
func (k *BitScheduler) Insert(op OpInfo, srcs []SrcSpec, pendingTail bool) *Entry {
	e := k.allocEntry()
	e.id = k.nextID
	e.age = k.nextAge
	e.numOps = 1
	e.isMOP = false
	e.pendingTail = pendingTail
	e.state = StateWaiting
	e.grant = -1
	e.earliestSelect = k.now + 1
	e.everRequested = false
	e.firstReq = -1
	e.replays = 0
	e.refs = 1 // the inserted op's own reference, dropped at its commit
	e.ops[0] = op
	// Per-op result state is initialised lazily, one index per op as it
	// is added (here and in AttachOp): no reader ever indexes past
	// numOps-1, so clearing all MaxMOPOps slots of a pooled entry per
	// insert is wasted work.
	e.actualReady[0] = never
	e.loadDiscover[0] = 0
	e.loadResolved[0] = false
	k.nextID++
	k.nextAge++

	s := int(e.age & int64(k.n-1))
	for k.ent[s] != nil {
		k.grow()
		s = int(e.age & int64(k.n-1))
	}
	e.slot = s
	k.ent[s] = e
	bitSet(k.live, s)
	k.nsrc[s] = 0
	k.open[s] = 0
	k.recheckAt[s] = 0

	k.occupied++
	if k.occupied > k.stats.MaxOccupancy {
		k.stats.MaxOccupancy = k.occupied
	}
	k.stats.EntriesInserted++
	k.stats.OpsInserted++
	k.addSources(e, srcs)
	k.refreshReady(e)
	return e
}

// AttachTail completes a two-instruction MOP; see Scheduler.AttachTail.
func (k *BitScheduler) AttachTail(e *Entry, op OpInfo, srcs []SrcSpec) {
	k.AttachOp(e, op, srcs, true)
}

// AttachOp appends one more op to a pending MOP entry; see
// Scheduler.AttachOp.
func (k *BitScheduler) AttachOp(e *Entry, op OpInfo, srcs []SrcSpec, last bool) {
	if !e.pendingTail {
		panic(simerr.Internalf(simerr.Context{Cycle: k.now}, "sched: AttachOp on non-pending entry %d", e.id))
	}
	if e.numOps >= MaxMOPOps {
		panic(simerr.Internalf(simerr.Context{Cycle: k.now}, "sched: MOP op overflow on entry %d", e.id))
	}
	e.ops[e.numOps] = op
	e.actualReady[e.numOps] = never
	e.loadDiscover[e.numOps] = 0
	e.loadResolved[e.numOps] = false
	e.numOps++
	e.isMOP = true
	e.refs++ // the attached op's reference, dropped at its commit
	if last {
		e.pendingTail = false
	}
	k.addSources(e, srcs)
	k.stats.OpsInserted++
	if last {
		k.stats.MOPsInserted++
	}
	k.refreshReady(e)
}

// CancelTail demotes a pending MOP head; see Scheduler.CancelTail.
func (k *BitScheduler) CancelTail(e *Entry) {
	e.pendingTail = false
	k.refreshReady(e)
}

func (k *BitScheduler) allocEntry() *Entry {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &Entry{}
}

// Release drops one reference; see Scheduler.Release.
func (k *BitScheduler) Release(e *Entry) {
	e.refs--
	if e.refs > 0 {
		return
	}
	if e.refs < 0 || e.state != StateFinal {
		panic(simerr.Internalf(simerr.Context{Cycle: k.now},
			"sched: bad release of entry %d (state %v, refs %d)", e.id, e.state, e.refs))
	}
	e.gen++
	e.UserData = nil
	k.free = append(k.free, e)
}

// DebugFreeCount reports the free-list size (tests only).
func (k *BitScheduler) DebugFreeCount() int { return len(k.free) }

// addSources appends edges to e's slot, mirroring Scheduler.addSources:
// the same initial wake/actual per producer state, and registration in
// the producer's consumer mask instead of a consumer list.
func (k *BitScheduler) addSources(e *Entry, srcs []SrcSpec) {
	s := e.slot
	base := s * edgeStride
	for _, sp := range srcs {
		if int(k.nsrc[s]) >= edgeStride {
			panic(simerr.Internalf(simerr.Context{Cycle: k.now}, "sched: edge overflow on entry %d", e.id))
		}
		ei := base + int(k.nsrc[s])
		k.nsrc[s]++
		k.eOp[ei] = int8(sp.ProdOp)
		k.eFlags[ei] = 0
		p := sp.Prod
		if p == nil {
			k.eFlags[ei] = edgeFinal
			k.eProd[ei] = -1
			k.eAssumed[ei] = 0
			k.eWake[ei] = 0
			k.eActual[ei] = 0
			continue
		}
		assumed := p.ops[sp.ProdOp].Latency
		k.eAssumed[ei] = int32(assumed)
		switch {
		case p.state == StateFinal:
			// Model timing still applies: a consumer may not see the tag
			// earlier than the pipelined wakeup delivers it.
			k.eFlags[ei] = edgeFinal
			k.eProd[ei] = -1
			k.eActual[ei] = p.actualReady[sp.ProdOp]
			k.eWake[ei] = maxI64(wakeFromGrant(k.cfg.Model, p, assumed), k.eActual[ei])
		case p.state == StateIssued:
			w := wakeFromGrant(k.cfg.Model, p, assumed)
			if p.ops[sp.ProdOp].IsLoad && p.loadResolved[sp.ProdOp] {
				w = maxI64(w, p.actualReady[sp.ProdOp])
			}
			k.eWake[ei] = w
			k.eActual[ei] = never
			k.eProd[ei] = int32(p.slot)
			k.open[s]++
			bitSet(k.cons[p.slot*k.words:(p.slot+1)*k.words], s)
		default:
			// Waiting: woken later by the producer's grant (scoreboard
			// mode still sees the stale speculative broadcast).
			w := never
			if k.cfg.Model == config.SchedSelectFreeScoreboard && p.firstReq >= 0 {
				w = p.firstReq + int64(assumed)
			}
			k.eWake[ei] = w
			k.eActual[ei] = never
			k.eProd[ei] = int32(p.slot)
			k.open[s]++
			bitSet(k.cons[p.slot*k.words:(p.slot+1)*k.words], s)
		}
	}
}

// refreshReady re-derives e's readiness after any wake-relevant change:
// the ready bit is set iff the entry is waiting, not pending a tail, and
// its earliest-select and every edge wake are due. A future ready cycle
// schedules a re-check event; stale or duplicate events are harmless
// (the check is idempotent and guarded).
func (k *BitScheduler) refreshReady(e *Entry) {
	s := e.slot
	if k.ent[s] != e {
		return
	}
	if e.state != StateWaiting || e.pendingTail {
		bitClear(k.ready, s)
		return
	}
	ra := e.earliestSelect
	base := s * edgeStride
	for i := 0; i < int(k.nsrc[s]); i++ {
		if w := k.eWake[base+i]; w > ra {
			ra = w
		}
	}
	if ra <= k.now {
		bitSet(k.ready, s)
		return
	}
	bitClear(k.ready, s)
	if ra < never {
		if p := k.recheckAt[s]; p == 0 || p > ra {
			k.recheckAt[s] = ra
			k.readyEvents.push(k.now, ra, e)
		}
	}
}

// setCand marks a slot for a finality re-check in this or the next
// tick's settle phase.
func (k *BitScheduler) setCand(s int) {
	bitSet(k.cand, s)
}

// SetLoadResult informs the scheduler of a load op's actual timing; see
// Scheduler.SetLoadResult. Additionally schedules the finality re-check
// the reference kernel gets for free from its every-cycle scan.
func (k *BitScheduler) SetLoadResult(e *Entry, opIdx int, actualReady, discover int64) {
	e.actualReady[opIdx] = actualReady
	e.loadDiscover[opIdx] = discover
	e.loadResolved[opIdx] = true
	assumedReady := e.grant + int64(e.ops[opIdx].Latency)
	if e.isMOP {
		panic(simerr.Internalf(simerr.Context{Cycle: k.now}, "sched: load in MOP entry %d", e.id))
	}
	if actualReady > assumedReady {
		k.loadEvents.push(k.now, discover, e)
	}
	if discover <= k.now {
		if k.ent[e.slot] == e {
			k.setCand(e.slot)
		}
	} else {
		k.finalEvents.push(k.now, discover, e)
	}
}

// Tick advances one cycle; see Scheduler.Tick. Phase order matches the
// reference kernel exactly: future MOP grants, deferred events, wakeup
// (select-free speculative broadcast), select, collision victims,
// finality settling.
func (k *BitScheduler) Tick(now int64) []Grant {
	k.now = now

	// MOP ops sequencing from earlier grants occupy slots first. The
	// pending-count pre-checks keep the empty-ring common case (every
	// cycle outside MOP bursts and miss recovery) free of slot probes
	// and, for the FU vector, of a by-value array copy.
	grants := k.grantBuf[:0]
	if k.futureGrants.n > 0 {
		grants = k.futureGrants.take(now, grants)
	}
	widthLeft := k.cfg.Width - len(grants)
	var fuUsed [isa.NumClasses]int
	if k.futureFU.n > 0 {
		fuUsed = k.futureFU.take(now)
	}

	// Deferred readiness re-checks land first so the ready mask is
	// current before this cycle's replay/scoreboard events adjust it.
	if k.readyEvents.n > 0 {
		for _, ev := range k.readyEvents.take(now) {
			if ev.e.gen == ev.gen {
				if s := ev.e.slot; k.ent[s] == ev.e && k.recheckAt[s] == now {
					k.recheckAt[s] = 0 // the covering event is firing: re-arm
				}
				k.refreshReady(ev.e)
			}
		}
	}
	// Load-miss discoveries: selectively invalidate shadow issues.
	if k.loadEvents.n > 0 {
		for _, ev := range k.loadEvents.take(now) {
			if ev.e.gen == ev.gen {
				k.fixupLoadMiss(ev.e)
			}
		}
	}
	// Scoreboard detections of invalid select-free issues.
	if k.sbEvents.n > 0 {
		for _, ev := range k.sbEvents.take(now) {
			if ev.e.gen == ev.gen {
				k.scoreboardCheck(ev.e)
			}
		}
	}
	// Load discoveries enabling finality.
	if k.finalEvents.n > 0 {
		for _, ev := range k.finalEvents.take(now) {
			if ev.e.gen == ev.gen && k.ent[ev.e.slot] == ev.e {
				k.setCand(ev.e.slot)
			}
		}
	}

	// Snapshot the request vector: the reference kernel collects its
	// requester list before any broadcast of this cycle, so mid-select
	// wake updates must not change who requests this cycle. The OR fold
	// rides along so a requester-free cycle skips the scan phases.
	var reqAny uint64
	for i, w := range k.ready {
		k.snap[i] = w
		reqAny |= w
	}
	if reqAny != 0 {
		start := k.startPos()

		// Wakeup phase: select-free entries broadcast at request time,
		// before knowing whether selection succeeds.
		if k.selectFree() {
			sc := newAgeScan(k.snap, start)
			for {
				s, ok := sc.next()
				if !ok {
					break
				}
				e := k.ent[s]
				if e.firstReq < 0 {
					e.firstReq = now
					k.broadcastSpeculative(e)
				}
			}
		}

		// Select phase: priority-decoder scan, oldest first, bounded by
		// width and functional units.
		sc := newAgeScan(k.snap, start)
		for widthLeft > 0 {
			s, ok := sc.next()
			if !ok {
				break
			}
			e := k.ent[s]
			fu0 := e.ops[0].FU
			if fu0 != isa.ClassNone && fuUsed[fu0] >= k.cfg.FU[fu0] {
				continue
			}
			if e.numOps > 1 && !k.mopResourcesFree(e, now) {
				continue
			}
			widthLeft--
			if fu0 != isa.ClassNone {
				fuUsed[fu0]++
			}
			k.grantEntry(e, now, &grants)
		}

		// Select-free collision victims: requested this cycle, not granted.
		if k.selectFree() {
			sc := newAgeScan(k.snap, start)
			for {
				s, ok := sc.next()
				if !ok {
					break
				}
				e := k.ent[s]
				if e.state != StateIssued && e.firstReq == now {
					k.stats.CollisionVict++
					if k.cfg.Model == config.SchedSelectFreeSquashDep {
						k.squashDependents(e)
					}
				}
			}
		}
	}

	k.settleFinal(now)
	k.grantBuf = grants[:0] // keep any grown capacity for the next tick
	return grants
}

// mopResourcesFree mirrors Scheduler.mopResourcesFree.
func (k *BitScheduler) mopResourcesFree(e *Entry, now int64) bool {
	for i := 1; i < e.numOps; i++ {
		cyc := now + int64(i)
		if k.futureGrants.count(cyc) >= k.cfg.Width {
			return false
		}
		c := e.ops[i].FU
		if c != isa.ClassNone && k.futureFU.get(cyc, c) >= k.cfg.FU[c] {
			return false
		}
	}
	return true
}

func (k *BitScheduler) grantEntry(e *Entry, now int64, grants *[]Grant) {
	e.state = StateIssued
	e.grant = now
	e.everRequested = true
	k.stats.Grants++
	*grants = append(*grants, Grant{Entry: e, OpIdx: 0, Cycle: now})
	bitClear(k.ready, e.slot)
	// Non-load results become actually available grant+latency later;
	// loads are patched by SetLoadResult.
	if !e.ops[0].IsLoad {
		e.actualReady[0] = now + int64(e.ops[0].Latency)
	}
	for i := 1; i < e.numOps; i++ {
		// Sequence later ops in following cycles through the same slot.
		cyc := now + int64(i)
		k.futureGrants.push(now, cyc, Grant{Entry: e, OpIdx: i, Cycle: cyc})
		if c := e.ops[i].FU; c != isa.ClassNone {
			k.futureFU.add(now, cyc, c)
		}
		e.actualReady[i] = cyc + int64(e.ops[i].Latency)
	}
	// Conventional wakeup: broadcast from the grant.
	if !k.selectFree() {
		k.wakeConsumers(e)
	} else {
		// A collision victim that is finally granted re-broadcasts.
		if e.firstReq >= 0 && e.firstReq < now {
			k.rebroadcast(e)
		}
		// Scoreboard mode checks operand validity a fixed delay later.
		if k.cfg.Model == config.SchedSelectFreeScoreboard {
			k.sbEvents.push(now, now+int64(k.cfg.ScoreboardDelay), e)
		}
	}
	// An issued entry may already be finalizable (all operands final and
	// valid, no unresolved loads): settle it this same tick.
	k.setCand(e.slot)
}

// consEdges iterates the (consumer entry, edge index) pairs registered
// against one producer slot, in consumer age-ring word order. It is a
// stack-allocated iterator (no closures) so broadcasts stay
// allocation-free; consumer-order independence of all broadcast effects
// is what makes word order (vs the reference kernel's registration
// order) safe.
type consEdges struct {
	k        *BitScheduler
	prodSlot int32
	row      int // start of the producer's mask row in cons
	wi       int
	m        uint64
	cs       int // current consumer slot
	ei, eEnd int // edge cursor within the current consumer
}

func (k *BitScheduler) consumers(prodSlot int) consEdges {
	return consEdges{k: k, prodSlot: int32(prodSlot), row: prodSlot * k.words, wi: -1}
}

func (it *consEdges) next() (*Entry, int, bool) {
	k := it.k
	for {
		for it.ei < it.eEnd {
			ei := it.ei
			it.ei++
			if k.eProd[ei] == it.prodSlot {
				return k.ent[it.cs], ei, true
			}
		}
		for it.m == 0 {
			it.wi++
			if it.wi >= k.words {
				return nil, 0, false
			}
			it.m = k.cons[it.row+it.wi]
		}
		b := bits.TrailingZeros64(it.m)
		it.m &= it.m - 1
		it.cs = it.wi<<6 + b
		it.ei = it.cs * edgeStride
		it.eEnd = it.ei + int(k.nsrc[it.cs])
	}
}

// wakeConsumers sets consumer wake times from this entry's grant. This
// is the conventional-wakeup broadcast on the per-grant hot path, so it
// walks the consumer mask inline and re-derives each consumer's
// readiness once after all of its matching edges are woken, not once per
// edge: refreshReady computes from the edges' current state, so only the
// re-check event traffic differs (and those events are idempotent,
// self-guarded no-ops). A matching edge (eProd == s) is never final —
// severing and final insertion both set eProd to -1 — so only the deaf
// flag needs consulting.
func (k *BitScheduler) wakeConsumers(e *Entry) {
	s := e.slot
	ps := int32(s)
	row := s * k.words
	for wi := 0; wi < k.words; wi++ {
		m := k.cons[row+wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			cs := wi<<6 + b
			base := cs * edgeStride
			touched := false
			for i := 0; i < int(k.nsrc[cs]); i++ {
				ei := base + i
				if k.eProd[ei] != ps || k.eFlags[ei]&edgeDeaf != 0 {
					continue
				}
				k.eWake[ei] = wakeFromGrant(k.cfg.Model, e, int(k.eAssumed[ei]))
				touched = true
			}
			if touched {
				k.refreshReady(k.ent[cs])
			}
		}
	}
}

// broadcastSpeculative wakes consumers at request time (select-free).
// Same batched walk as wakeConsumers: one refreshReady per consumer
// after all of its matching edges are updated, and no edgeFinal check
// because a matching edge is never final.
func (k *BitScheduler) broadcastSpeculative(e *Entry) {
	s := e.slot
	ps := int32(s)
	row := s * k.words
	wake := e.firstReq
	for wi := 0; wi < k.words; wi++ {
		m := k.cons[row+wi]
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			cs := wi<<6 + b
			base := cs * edgeStride
			touched := false
			for i := 0; i < int(k.nsrc[cs]); i++ {
				ei := base + i
				if k.eProd[ei] != ps || k.eFlags[ei]&edgeDeaf != 0 {
					continue
				}
				k.eWake[ei] = wake + int64(k.eAssumed[ei])
				touched = true
			}
			if touched {
				k.refreshReady(k.ent[cs])
			}
		}
	}
}

// squashDependents clears the speculative wakeups of a collision
// victim's consumers; see Scheduler.squashDependents.
func (k *BitScheduler) squashDependents(e *Entry) {
	it := k.consumers(e.slot)
	for {
		c, ei, ok := it.next()
		if !ok {
			break
		}
		if k.eFlags[ei]&edgeFinal != 0 {
			continue
		}
		k.eWake[ei] = never
		k.refreshReady(c)
	}
}

// rebroadcast wakes consumers after a granted collision victim.
func (k *BitScheduler) rebroadcast(e *Entry) {
	penalty := int64(0)
	if k.cfg.Model == config.SchedSelectFreeSquashDep {
		penalty = 1 // squashed dependents pay one re-broadcast cycle
	}
	it := k.consumers(e.slot)
	for {
		c, ei, ok := it.next()
		if !ok {
			break
		}
		if k.eFlags[ei]&(edgeFinal|edgeDeaf) != 0 {
			continue
		}
		w := e.grant + int64(k.eAssumed[ei]) + penalty
		if k.cfg.Model == config.SchedSelectFreeScoreboard && k.eWake[ei] < w && c.state == StateIssued {
			// Pileup victim keeps its stale wake; the scoreboard will
			// catch it at its own check.
			continue
		}
		k.eWake[ei] = w
		k.refreshReady(c)
	}
}

// scoreboardCheck mirrors Scheduler.scoreboardCheck.
func (k *BitScheduler) scoreboardCheck(e *Entry) {
	if e.state != StateIssued {
		return
	}
	if k.operandsValidAt(e, e.grant) {
		return
	}
	k.stats.PileupVict++
	k.invalidate(e, k.now)
	// Re-arm the operand ready state: the replayed instruction waits for
	// real broadcasts instead of its stale speculative wakeups.
	base := e.slot * edgeStride
	for i := 0; i < int(k.nsrc[e.slot]); i++ {
		ei := base + i
		if k.eFlags[ei]&(edgeFinal|edgeDeaf) != 0 {
			continue
		}
		p := k.ent[k.eProd[ei]]
		switch p.state {
		case StateIssued:
			w := wakeFromGrant(k.cfg.Model, p, int(k.eAssumed[ei]))
			if p.ops[k.eOp[ei]].IsLoad && p.loadResolved[k.eOp[ei]] {
				w = maxI64(w, p.actualReady[k.eOp[ei]])
			}
			k.eWake[ei] = w
		case StateWaiting:
			k.eWake[ei] = never
		}
	}
	k.refreshReady(e)
}

// OperandsValid mirrors Scheduler.OperandsValid.
func (k *BitScheduler) OperandsValid(e *Entry) bool {
	return e.state == StateIssued && k.operandsValidAt(e, e.grant)
}

func (k *BitScheduler) operandsValidAt(e *Entry, g int64) bool {
	if k.ent[e.slot] != e {
		// No live slot: the entry settled, so its operands were valid.
		return true
	}
	base := e.slot * edgeStride
	for i := 0; i < int(k.nsrc[e.slot]); i++ {
		ei := base + i
		if k.eFlags[ei]&edgeFinal != 0 {
			if k.eActual[ei] > g {
				return false
			}
			continue
		}
		p := k.ent[k.eProd[ei]]
		switch p.state {
		case StateWaiting:
			return false
		default:
			ar := p.actualReady[k.eOp[ei]]
			if ar == never || ar > g {
				return false
			}
		}
	}
	return true
}

// fixupLoadMiss mirrors Scheduler.fixupLoadMiss.
func (k *BitScheduler) fixupLoadMiss(e *Entry) {
	if k.ent[e.slot] != e {
		return // settled before discovery: consumers were severed
	}
	actual := e.actualReady[0]
	it := k.consumers(e.slot)
	for {
		c, ei, ok := it.next()
		if !ok {
			break
		}
		if k.eFlags[ei]&(edgeFinal|edgeDeaf) != 0 {
			continue
		}
		if c.state == StateIssued && c.grant < actual {
			k.invalidate(c, k.now)
		}
		if k.eWake[ei] < actual {
			k.eWake[ei] = actual
		}
		k.refreshReady(c)
	}
}

// invalidate mirrors Scheduler.invalidate.
func (k *BitScheduler) invalidate(e *Entry, now int64) {
	if e.state != StateIssued {
		return
	}
	if e == k.suppressed {
		return // fault injection: this entry's replays are lost
	}
	if k.suppressReplay {
		k.suppressReplay = false
		k.suppressed = e
		return
	}
	e.state = StateWaiting
	e.replays++
	k.stats.Replays++
	limit := k.cfg.ReplayLimit
	if limit <= 0 {
		limit = DefaultReplayLimit
	}
	if e.replays > limit && k.err == nil {
		k.err = simerr.Livelock(simerr.Context{Cycle: now}, k.dumpEntry(e),
			"entry %d replayed %d times (limit %d)", e.id, e.replays, limit)
	}
	e.earliestSelect = now + int64(k.cfg.ReplayPenalty)
	if k.selectFree() {
		// The entry will re-request and re-broadcast.
		e.firstReq = -1
	}
	grantWas := e.grant
	e.grant = -1
	for i := 0; i < e.numOps; i++ {
		e.actualReady[i] = never
		e.loadResolved[i] = false
	}
	// Rescind wakeups derived from the cancelled grant (scoreboard mode
	// lets stale wakeups stand: pileup semantics).
	if k.cfg.Model != config.SchedSelectFreeScoreboard {
		it := k.consumers(e.slot)
		for {
			c, ei, ok := it.next()
			if !ok {
				break
			}
			if k.eFlags[ei]&edgeFinal != 0 {
				continue
			}
			k.eWake[ei] = never
			k.refreshReady(c)
			if c.state == StateIssued && c.grant >= grantWas {
				k.invalidate(c, now)
			}
		}
	}
	k.refreshReady(e)
}

// settleFinal drains the finality-candidate bitmap, looping because a
// producer's finality can make its (younger, possibly already-passed on
// a wrapped ring) consumers finalizable in the same cycle: a candidate
// set during a pass in a word the scan already moved past survives the
// pass and is caught by the next one. Each pass clears every bit it
// visits, so an empty mask means the settle is complete — the common
// cycle with no candidates exits on the first OR fold without touching
// the scan machinery.
func (k *BitScheduler) settleFinal(now int64) {
	for {
		var any uint64
		for _, w := range k.cand {
			any |= w
		}
		if any == 0 {
			return
		}
		// Inline circular bit walk with ageScan's lazy-read semantics:
		// each word is snapshotted when the cursor reaches it and its
		// snapshot bits cleared up front, so a candidate added to the
		// current word or behind the cursor survives to the next pass,
		// while one added ahead is picked up in this pass.
		start := k.startPos()
		sw := start >> 6
		sb := uint(start & 63)
		words := k.words
		for j := 0; j <= words; j++ {
			wi := sw + j
			if wi >= words {
				wi -= words
			}
			m := k.cand[wi]
			if j == 0 {
				m &^= 1<<sb - 1
			} else if j == words {
				m &= 1<<sb - 1
			}
			if m == 0 {
				continue
			}
			k.cand[wi] &^= m
			for m != 0 {
				b := bits.TrailingZeros64(m)
				m &= m - 1
				if e := k.ent[wi<<6+b]; e != nil {
					k.tryFinalizeSlot(e, now)
				}
			}
		}
	}
}

// tryFinalizeSlot mirrors Scheduler.tryFinalize, then releases the slot:
// masks cleared, consumer edges severed, occupancy dropped.
func (k *BitScheduler) tryFinalizeSlot(e *Entry, now int64) bool {
	if e.state != StateIssued {
		return false
	}
	s := e.slot
	base := s * edgeStride
	if k.open[s] != 0 {
		return false
	}
	for i := 0; i < int(k.nsrc[s]); i++ {
		if k.eActual[base+i] > e.grant {
			// Issued before an operand was actually ready and not yet
			// invalidated (transient, e.g. pending scoreboard check).
			return false
		}
	}
	for i := 0; i < e.numOps; i++ {
		if e.ops[i].IsLoad && !e.loadResolved[i] {
			return false
		}
		// A load's miss shadow must have passed before its result can
		// be considered settled for consumers.
		if e.ops[i].IsLoad && e.loadDiscover[i] > now {
			return false
		}
	}
	e.state = StateFinal
	// Sever consumer edges: pin their wake/actual times, then clear the
	// consumer mask and free the slot. A matching edge (eProd == s) is
	// never already final (every final-setting site clears eProd to -1),
	// so the producer match alone identifies the edges to sever.
	ps := int32(s)
	row := s * k.words
	for wi := 0; wi < k.words; wi++ {
		m := k.cons[row+wi]
		k.cons[row+wi] = 0
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			cs := wi<<6 + b
			c := k.ent[cs]
			cbase := cs * edgeStride
			for i := 0; i < int(k.nsrc[cs]); i++ {
				ei := cbase + i
				if k.eProd[ei] != ps {
					continue
				}
				k.eFlags[ei] |= edgeFinal
				k.eProd[ei] = -1
				k.eActual[ei] = e.actualReady[k.eOp[ei]]
				k.open[cs]--
				if k.eFlags[ei]&edgeDeaf != 0 {
					continue // dropped wakeup: the finality broadcast is lost too
				}
				if k.eWake[ei] < k.eActual[ei] {
					if c.state == StateIssued && c.grant < k.eActual[ei] {
						// Safety net; replay fixups should already have
						// caught it.
						k.invalidate(c, now)
					}
					k.eWake[ei] = k.eActual[ei]
					k.refreshReady(c)
				}
			}
			if k.open[cs] == 0 && c.state == StateIssued {
				k.setCand(cs)
			}
		}
	}
	k.freeSlot(s)
	return true
}

func (k *BitScheduler) freeSlot(s int) {
	k.ent[s] = nil
	bitClear(k.live, s)
	bitClear(k.ready, s)
	bitClear(k.cand, s)
	k.recheckAt[s] = 0
	k.occupied--
	for k.oldestAge < k.nextAge {
		os := int(k.oldestAge & int64(k.n-1))
		if e := k.ent[os]; e != nil && e.age == k.oldestAge {
			break
		}
		k.oldestAge++
	}
}

// DependsOn mirrors Entry.DependsOn over the slot graph: whether e
// transitively depends on target through unresolved source edges.
func (k *BitScheduler) DependsOn(e, target *Entry) bool {
	if e == target {
		return true
	}
	if k.ent[e.slot] != e {
		return false // settled: all edges severed
	}
	clear(k.seen)
	k.depStack = k.depStack[:0]
	k.depStack = append(k.depStack, int32(e.slot))
	bitSet(k.seen, e.slot)
	for len(k.depStack) > 0 {
		s := int(k.depStack[len(k.depStack)-1])
		k.depStack = k.depStack[:len(k.depStack)-1]
		base := s * edgeStride
		for i := 0; i < int(k.nsrc[s]); i++ {
			ei := base + i
			if k.eFlags[ei]&edgeFinal != 0 {
				continue
			}
			ps := int(k.eProd[ei])
			if k.ent[ps] == target {
				return true
			}
			if !bitTest(k.seen, ps) {
				bitSet(k.seen, ps)
				k.depStack = append(k.depStack, int32(ps))
			}
		}
	}
	return false
}

// DebugActive returns the live entries oldest first (tests and
// diagnostics; allocates).
func (k *BitScheduler) DebugActive() []*Entry {
	out := make([]*Entry, 0, k.occupied)
	sc := newAgeScan(k.live, k.startPos())
	for {
		s, ok := sc.next()
		if !ok {
			return out
		}
		out = append(out, k.ent[s])
	}
}

// dumpEntry renders one entry's scheduling state for diagnostics.
func (k *BitScheduler) dumpEntry(e *Entry) string {
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
	if k.ent[e.slot] == e {
		base := e.slot * edgeStride
		for i := 0; i < int(k.nsrc[e.slot]); i++ {
			ei := base + i
			fmt.Fprintf(&b, "\n  src %d: wake=%s actual=%s final=%v deaf=%v",
				i, cycleStr(k.eWake[ei]), cycleStr(k.eActual[ei]),
				k.eFlags[ei]&edgeFinal != 0, k.eFlags[ei]&edgeDeaf != 0)
		}
	}
	return b.String()
}

// DumpActive renders up to limit non-final active entries, oldest first —
// the scheduler half of the watchdog's diagnostic state dump.
func (k *BitScheduler) DumpActive(limit int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler: %d occupied, %d replays total, %d grants\n",
		k.occupied, k.stats.Replays, k.stats.Grants)
	n := 0
	sc := newAgeScan(k.live, k.startPos())
	for {
		s, ok := sc.next()
		if !ok {
			break
		}
		if n >= limit {
			fmt.Fprintf(&b, "... %d more active entries elided\n", k.occupied-n)
			break
		}
		b.WriteString(k.dumpEntry(k.ent[s]))
		b.WriteByte('\n')
		n++
	}
	return b.String()
}

// ---------------------------------------------------------------------
// Fault-injection surface (internal/fault). These methods deliberately
// corrupt scheduler state to prove the watchdog catches the corruption;
// nothing in the simulator proper calls them.

// FaultDeafen injects a dropped-wakeup fault: the first waiting entry
// with a not-yet-delivered source wakeup has that edge's broadcasts
// permanently lost, so the entry starves in the queue and the pipeline
// eventually stops committing. Returns whether a victim edge was found
// (retry next cycle otherwise).
func (k *BitScheduler) FaultDeafen() bool {
	sc := newAgeScan(k.live, k.startPos())
	for {
		s, ok := sc.next()
		if !ok {
			return false
		}
		e := k.ent[s]
		if e.state != StateWaiting {
			continue
		}
		base := s * edgeStride
		for i := 0; i < int(k.nsrc[s]); i++ {
			ei := base + i
			if k.eFlags[ei]&(edgeFinal|edgeDeaf) != 0 || k.eWake[ei] <= k.now {
				continue
			}
			k.eFlags[ei] |= edgeDeaf
			k.eWake[ei] = never
			k.refreshReady(e)
			return true
		}
	}
}

// FaultSuppressReplay arms the lost-replay fault: the next invalidation
// the scheduler would perform is silently dropped, and the victim entry
// never replays again — it stays issued with operands that were not
// actually ready, can never finalize, and blocks commit until the
// watchdog reports the stall.
func (k *BitScheduler) FaultSuppressReplay() { k.suppressReplay = true }

// FaultReplaySuppressed reports whether the armed lost-replay fault has
// fired (an invalidation has been dropped).
func (k *BitScheduler) FaultReplaySuppressed() bool { return k.suppressed != nil }
