package sched

import (
	"fmt"
	"math/bits"
	"strings"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/simerr"
)

// This file implements the scheduler kernel the core runs: a bit-parallel
// structure-of-arrays wakeup/select engine with the data layout the
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
// The Entry handle keeps identity, refcounts, ops, grant and result
// times, which survive slot recycling for the core's post-commit reads;
// the per-edge scheduling state (producers, assumed latencies, wake and
// actual times) lives only in the slot arrays.

// edgeStride is the per-slot capacity of the edge arrays: a full MOP
// chain of MaxMOPOps ops with two sources each.
const edgeStride = 2 * MaxMOPOps

// BitScheduler is the bit-parallel wakeup/select engine.
type BitScheduler struct {
	cfg   Config
	stats Stats

	now     int64
	nextID  int64
	nextAge int64

	// Age ring geometry: n slots (a power of two, at least 64 and at
	// least Window), words = n/64 packed mask words. The live age span
	// nextAge-oldestAge never exceeds n, so the ages in it have distinct
	// slots.
	n     int
	words int

	// oldestAge is the age of the oldest live entry (== nextAge when the
	// queue is empty); its slot is where age-order scans start.
	oldestAge int64

	occupied int

	// ent maps slot -> live entry (nil when free).
	ent []*Entry

	// Per-slot source edges, stride edgeStride. eProd is the producer's
	// slot, or -1 once the edge is final (its producer was final at
	// insert, or settled since); eOp the producer op index; eAssumed
	// the assumed latency; eWake/eActual the scheduler-visible and
	// actual operand-ready cycles; eDeaf marks an edge whose wakeups a
	// fault dropped. nsrc is the edge count, open the number of
	// not-yet-final edges.
	nsrc     []int32
	open     []int32
	eProd    []int32
	eOp      []int8
	eAssumed []int32
	eWake    []int64
	eActual  []int64
	eDeaf    []bool

	// Packed n-bit masks: ready requesters, finalize candidates, and the
	// per-tick ready snapshot select works from. A slot is live iff ent
	// holds an entry for it.
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

	// futureGrants holds the grants of MOP ops sequenced after their
	// head; they also hold their cycle's functional units (heldFU).
	futureGrants cycleRing[Grant]

	loadEvents  cycleRing[entryRef] // load miss discoveries
	sbEvents    cycleRing[entryRef] // scoreboard detections of invalid issues
	readyEvents cycleRing[entryRef] // deferred readiness re-checks
	finalEvents cycleRing[entryRef] // deferred finality re-checks (load discovery)

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
	if cfg.Window <= 0 {
		cfg.Window = 128
	}
	n := 64
	for n < cfg.Window {
		n *= 2
	}
	w := n / 64
	return &BitScheduler{
		cfg:          cfg,
		n:            n,
		words:        w,
		ent:          make([]*Entry, n),
		nsrc:         make([]int32, n),
		open:         make([]int32, n),
		eProd:        make([]int32, n*edgeStride),
		eOp:          make([]int8, n*edgeStride),
		eAssumed:     make([]int32, n*edgeStride),
		eWake:        make([]int64, n*edgeStride),
		eActual:      make([]int64, n*edgeStride),
		eDeaf:        make([]bool, n*edgeStride),
		ready:        make([]uint64, w),
		cand:         make([]uint64, w),
		snap:         make([]uint64, w),
		seen:         make([]uint64, w),
		cons:         make([]uint64, n*w),
		recheckAt:    make([]int64, n),
		futureGrants: newCycleRing[Grant](),
		loadEvents:   newCycleRing[entryRef](),
		sbEvents:     newCycleRing[entryRef](),
		readyEvents:  newCycleRing[entryRef](),
		finalEvents:  newCycleRing[entryRef](),
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

// slotOf maps an age onto the ring.
func (k *BitScheduler) slotOf(age int64) int { return int(age & int64(k.n-1)) }

func (k *BitScheduler) startPos() int { return k.slotOf(k.oldestAge) }

// Insert creates a new entry with one op and the given sources and adds it
// to the queue at the current cycle. If pendingTail is set the entry is a
// MOP head whose tail will arrive via AttachTail (or be cancelled via
// CancelTail). An insert that would stretch the live age span past the
// age ring (the caller broke its Window bound) panics with an internal
// error.
func (k *BitScheduler) Insert(op OpInfo, srcs []SrcSpec, pendingTail bool) *Entry {
	s := k.slotOf(k.nextAge)
	if k.ent[s] != nil {
		panic(simerr.Internalf(simerr.Context{Cycle: k.now},
			"sched: insert at age %d finds its slot held: live span of %d ages (oldest %d) exceeds Window %d (%d-slot age ring)",
			k.nextAge, k.nextAge-k.oldestAge+1, k.oldestAge, k.cfg.Window, k.n))
	}
	e := k.allocEntry()
	e.id = k.nextID
	e.age = k.nextAge
	e.numOps = 1
	e.pendingTail = pendingTail
	e.state = StateWaiting
	e.grant = -1
	e.earliestSelect = k.now + 1
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

	e.slot = s
	k.ent[s] = e
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

// AttachTail completes a two-instruction MOP: the tail op and its extra
// sources join the head's entry and the pending bit clears. Sources
// already satisfied inside the MOP (tail depending on head) must not be
// passed here.
func (k *BitScheduler) AttachTail(e *Entry, op OpInfo, srcs []SrcSpec) {
	k.AttachOp(e, op, srcs, true)
}

// AttachOp appends one more original instruction to a pending MOP entry
// (the chained-MOP extension sequences up to MaxMOPOps instructions
// through one entry). When last is true the pending bit clears and the
// MOP becomes schedulable.
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

// CancelTail demotes a pending MOP head to an ordinary single-instruction
// entry (insertion-policy miss or squashed tail, Sections 5.2.3/5.3.2).
func (k *BitScheduler) CancelTail(e *Entry) {
	e.pendingTail = false
	k.refreshReady(e)
}

// allocEntry pops the free list, or allocates when the pool is empty
// (cold start); Insert resets every field a reader can reach. Pooling
// keeps the steady-state cycle loop allocation-free.
func (k *BitScheduler) allocEntry() *Entry {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return e
	}
	return &Entry{}
}

// Release drops one reference taken by Insert, AttachOp, or Entry.Retain.
// When the last reference to a final entry drops, the entry is recycled
// onto the free list: its generation bumps, invalidating any deferred
// events still keyed to this life. Its slot was already freed at
// finality, so no stale consumer can receive a wakeup from it.
//
// A released-to-zero entry must be final: every reference is held either
// by a member op (which commits only after finality) or by a rename-time
// producer record whose holders also outlive the producer's finality.
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

// addSources appends source edges to e's slot. The initial wake and
// actual times follow the producer's state: none or final (the edge is
// final from the start), issued (woken from its grant), or waiting (woken
// later by its grant). An edge to a live producer registers in that
// producer's consumer mask.
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
		k.eDeaf[ei] = false
		p := sp.Prod
		if p == nil {
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
			k.eProd[ei] = -1
			k.eActual[ei] = p.actualReady[sp.ProdOp]
			k.eWake[ei] = max(wakeFromGrant(k.cfg.Model, p, p.grant, assumed), k.eActual[ei])
		case p.state == StateIssued:
			w := wakeFromGrant(k.cfg.Model, p, p.grant, assumed)
			if p.ops[sp.ProdOp].IsLoad && p.loadResolved[sp.ProdOp] {
				w = max(w, p.actualReady[sp.ProdOp])
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
			k.readyEvents.push(k.now, ra, refOf(e))
		}
	}
}

// SetLoadResult informs the scheduler of a load op's actual data
// availability and the cycle at which a mismatch with the assumed hit
// latency becomes known (address generated, cache probed). Call after
// each grant of a load op. A late result schedules the miss fixup for
// the discovery cycle, and the entry's finality is re-checked at that
// cycle (at once if it has passed).
func (k *BitScheduler) SetLoadResult(e *Entry, opIdx int, actualReady, discover int64) {
	e.actualReady[opIdx] = actualReady
	e.loadDiscover[opIdx] = discover
	e.loadResolved[opIdx] = true
	assumedReady := e.grant + int64(e.ops[opIdx].Latency)
	if e.numOps > 1 {
		panic(simerr.Internalf(simerr.Context{Cycle: k.now}, "sched: load in MOP entry %d", e.id))
	}
	if actualReady > assumedReady {
		k.loadEvents.push(k.now, discover, refOf(e))
	}
	if discover > k.now {
		k.finalEvents.push(k.now, discover, refOf(e))
	} else if k.ent[e.slot] == e {
		bitSet(k.cand, e.slot) // settle in this or the next tick
	}
}

// Tick advances one cycle: applies deferred replay and squash events,
// performs wakeup and select per the model, and returns the ops granted
// this cycle in issue order. The phases run in this order: future MOP
// grants, deferred events, wakeup (select-free speculative broadcast),
// select, collision victims, finality settling. The returned slice is
// scratch owned by the scheduler: it is valid until the next Tick call.
func (k *BitScheduler) Tick(now int64) []Grant {
	k.now = now

	// MOP ops sequencing from earlier grants occupy their issue slots
	// and units first.
	fuUsed := k.heldFU(now)
	grants := append(k.grantBuf[:0], k.futureGrants.take(now)...)
	widthLeft := k.cfg.Width - len(grants)

	// Deferred readiness re-checks land first so the ready mask is
	// current before this cycle's replay/scoreboard events adjust it.
	for _, ev := range k.readyEvents.take(now) {
		if ev.e.gen == ev.gen {
			if s := ev.e.slot; k.ent[s] == ev.e && k.recheckAt[s] == now {
				k.recheckAt[s] = 0 // the covering event is firing: re-arm
			}
			k.refreshReady(ev.e)
		}
	}
	// Load-miss discoveries: selectively invalidate shadow issues.
	for _, ev := range k.loadEvents.take(now) {
		if ev.e.gen == ev.gen {
			k.fixupLoadMiss(ev.e)
		}
	}
	// Scoreboard detections of invalid select-free issues.
	for _, ev := range k.sbEvents.take(now) {
		if ev.e.gen == ev.gen {
			k.scoreboardCheck(ev.e)
		}
	}
	// Load discoveries enabling finality.
	for _, ev := range k.finalEvents.take(now) {
		if ev.e.gen == ev.gen && k.ent[ev.e.slot] == ev.e {
			bitSet(k.cand, ev.e.slot)
		}
	}

	// Snapshot the request vector: the requesters are fixed before any
	// broadcast of this cycle, so mid-select wake updates must not change
	// who requests this cycle. The OR fold rides along so a
	// requester-free cycle skips the scan phases.
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
					k.wakeConsumers(e, e.firstReq)
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

// heldFU tallies the functional units, by class, that the MOP op grants
// queued for cyc hold: a MOP holds a unit in each cycle one of its later
// ops issues in.
func (k *BitScheduler) heldFU(cyc int64) (fu [isa.NumClasses]int) {
	for _, g := range k.futureGrants.at(cyc) {
		fu[g.Entry.ops[g.OpIdx].FU]++
	}
	return fu
}

// mopResourcesFree reports whether the functional units a MOP's later ops
// will occupy in the cycles after its head issues are still free. Their
// issue slots need no check: every grant queued for a later cycle belongs
// to a MOP whose ops issue in consecutive cycles, so it also holds a slot
// this cycle, and while select has a slot left no later cycle is full.
func (k *BitScheduler) mopResourcesFree(e *Entry, now int64) bool {
	for i := 1; i < e.numOps; i++ {
		c := e.ops[i].FU
		if c != isa.ClassNone && k.heldFU(now + int64(i))[c] >= k.cfg.FU[c] {
			return false
		}
	}
	return true
}

func (k *BitScheduler) grantEntry(e *Entry, now int64, grants *[]Grant) {
	e.state = StateIssued
	e.grant = now
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
		e.actualReady[i] = cyc + int64(e.ops[i].Latency)
	}
	// Conventional wakeup: broadcast from the grant.
	if !k.selectFree() {
		k.wakeConsumers(e, now)
	} else {
		// A collision victim that is finally granted re-broadcasts.
		if e.firstReq >= 0 && e.firstReq < now {
			k.rebroadcast(e)
		}
		// Scoreboard mode checks operand validity a fixed delay later.
		if k.cfg.Model == config.SchedSelectFreeScoreboard {
			k.sbEvents.push(now, now+int64(k.cfg.ScoreboardDelay), refOf(e))
		}
	}
	// An issued entry may already be finalizable (all operands final and
	// valid, no unresolved loads): settle it this same tick.
	bitSet(k.cand, e.slot)
}

// consEdges iterates the (consumer entry, edge index) pairs registered
// against one producer slot, in consumer age-ring word order. The edges
// it yields point at a live producer, so none is final. It is a
// stack-allocated iterator (no closures) so broadcasts stay
// allocation-free; consumer-order independence of all broadcast effects
// is what makes word order (rather than registration order) safe.
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

// wakeConsumers is the tag broadcast: it sets the wake time of each of
// e's consumer edges from a broadcast at cycle g, which is e's grant under
// the conventional models and its first request under the select-free
// ones (speculative wakeup). This is the per-grant hot path, so it walks
// the consumer mask inline and re-derives each consumer's readiness once
// after all of its matching edges are woken, not once per edge:
// refreshReady computes from the edges' current state, so only the
// re-check event traffic differs (and those events are idempotent,
// self-guarded no-ops). A matching edge (eProd == s) is never final, so
// only the deaf flag needs consulting.
func (k *BitScheduler) wakeConsumers(e *Entry, g int64) {
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
				if k.eProd[ei] != ps || k.eDeaf[ei] {
					continue
				}
				k.eWake[ei] = wakeFromGrant(k.cfg.Model, e, g, int(k.eAssumed[ei]))
				touched = true
			}
			if touched {
				k.refreshReady(k.ent[cs])
			}
		}
	}
}

// squashDependents clears the speculative wakeups of a collision
// victim's consumers (squash-dep: detected in the select stage, so none
// of them has issued yet). They re-wake from the victim's eventual grant,
// one cycle late (re-broadcast).
func (k *BitScheduler) squashDependents(e *Entry) {
	it := k.consumers(e.slot)
	for {
		c, ei, ok := it.next()
		if !ok {
			break
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
		if k.eDeaf[ei] {
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

// scoreboardCheck verifies an issued select-free entry's operands were
// actually ready at issue; otherwise it becomes a pileup victim: it is
// invalidated, reissues later, and its own speculative wakeups stand
// until their consumers fail their own checks (the pileup cascade).
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
	// real broadcasts instead of its stale speculative wakeups (otherwise
	// it would spin reissuing against a still-unready producer).
	base := e.slot * edgeStride
	for i := 0; i < int(k.nsrc[e.slot]); i++ {
		ei := base + i
		if k.eProd[ei] < 0 || k.eDeaf[ei] {
			continue
		}
		p := k.ent[k.eProd[ei]]
		switch p.state {
		case StateIssued:
			w := wakeFromGrant(k.cfg.Model, p, p.grant, int(k.eAssumed[ei]))
			if p.ops[k.eOp[ei]].IsLoad && p.loadResolved[k.eOp[ei]] {
				w = max(w, p.actualReady[k.eOp[ei]])
			}
			k.eWake[ei] = w
		case StateWaiting:
			k.eWake[ei] = never
		}
	}
	k.refreshReady(e)
}

// OperandsValid reports whether every source operand of e was actually
// available at its grant cycle — i.e. whether this issue will stand. The
// core uses it to decide whether a load's address is really computable
// yet (an invalidly issued load must not probe the cache: that would be
// an illegal prefetch with data it cannot have).
func (k *BitScheduler) OperandsValid(e *Entry) bool {
	return e.state == StateIssued && k.operandsValidAt(e, e.grant)
}

// operandsValidAt reports whether every source operand of e was actually
// available at cycle g.
func (k *BitScheduler) operandsValidAt(e *Entry, g int64) bool {
	if k.ent[e.slot] != e {
		// No live slot: the entry settled, so its operands were valid.
		return true
	}
	base := e.slot * edgeStride
	for i := 0; i < int(k.nsrc[e.slot]); i++ {
		ei := base + i
		if k.eProd[ei] < 0 {
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

// fixupLoadMiss handles a discovered load miss: consumers woken with the
// assumed hit latency are re-pointed at the actual data-return cycle, and
// any that already issued inside the shadow are selectively invalidated
// and replayed (transitively).
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
		if k.eDeaf[ei] {
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

// invalidate replays an issued entry: it returns to waiting, may not be
// selected again until now+ReplayPenalty, and anything it woke (or that
// issued off its rescinded grant) is recursively fixed. A replay count
// above the limit latches a livelock error for Err.
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

// tryFinalizeSlot settles e once its scheduling can no longer change:
// issued, every operand final and valid, loads resolved and past their
// miss shadow. A final entry pins its consumers' edges and releases its
// slot: masks cleared, consumer edges severed, occupancy dropped.
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
	// not yet final, so the producer match alone identifies the edges to
	// sever.
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
				k.eProd[ei] = -1
				k.eActual[ei] = e.actualReady[k.eOp[ei]]
				k.open[cs]--
				if k.eDeaf[ei] {
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
				bitSet(k.cand, cs)
			}
		}
	}
	k.freeSlot(s)
	return true
}

// freeSlot releases a settled entry's slot and advances oldestAge past
// freed slots. A held slot in the live span belongs to the entry of that
// age, since the span's ages have distinct slots.
func (k *BitScheduler) freeSlot(s int) {
	k.ent[s] = nil
	bitClear(k.ready, s)
	bitClear(k.cand, s)
	k.recheckAt[s] = 0
	k.occupied--
	for k.oldestAge < k.nextAge && k.ent[k.slotOf(k.oldestAge)] == nil {
		k.oldestAge++
	}
}

// DependsOn reports whether e transitively depends on target through
// unresolved source edges. MOP formation uses it to refuse chain links
// that would close a dependence cycle through the merged entry (the
// paper's pair heuristic is sound for pairs, but chained MOPs need the
// transitive check). The search is bounded by the live window, since
// final edges are severed.
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
			ps := int(k.eProd[base+i])
			if ps < 0 {
				continue
			}
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
	for age := k.oldestAge; age < k.nextAge; age++ {
		if e := k.ent[k.slotOf(age)]; e != nil {
			out = append(out, e)
		}
	}
	return out
}

// dumpEntry renders one entry's scheduling state for diagnostics.
func (k *BitScheduler) dumpEntry(e *Entry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "entry %d: state=%v replays=%d grant=%d ops=%d", e.id, e.state, e.replays, e.grant, e.numOps)
	if e.numOps > 1 {
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
				i, cycleStr(k.eWake[ei]), cycleStr(k.eActual[ei]), k.eProd[ei] < 0, k.eDeaf[ei])
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
	for age := k.oldestAge; age < k.nextAge; age++ {
		e := k.ent[k.slotOf(age)]
		if e == nil {
			continue
		}
		if n >= limit {
			fmt.Fprintf(&b, "... %d more active entries elided\n", k.occupied-n)
			break
		}
		b.WriteString(k.dumpEntry(e))
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
	for age := k.oldestAge; age < k.nextAge; age++ {
		s := k.slotOf(age)
		e := k.ent[s]
		if e == nil || e.state != StateWaiting {
			continue
		}
		base := s * edgeStride
		for i := 0; i < int(k.nsrc[s]); i++ {
			ei := base + i
			if k.eProd[ei] < 0 || k.eDeaf[ei] || k.eWake[ei] <= k.now {
				continue
			}
			k.eDeaf[ei] = true
			k.eWake[ei] = never
			k.refreshReady(e)
			return true
		}
	}
	return false
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
