package sched

// This file implements the cycle-keyed event ring the kernel schedules
// future work on: the grants of MOP ops sequenced after their head, and
// deferred per-entry events. It is a ring rather than a map keyed by
// cycle because creating and deleting map buckets every cycle allocates
// on the hot path.
//
// A ring is a power-of-two slice of slots indexed by cycle&mask. A slot
// records which cycle it currently belongs to, so a stale slot (whose
// cycle already passed) is re-claimed in place by the next push. Most
// scheduled cycles are near-future (MOP sequencing reaches
// now+MaxMOPOps-1, load discoveries now+ExecOffset+1, scoreboard checks
// now+delay), so the initial size is collision-free for them; a ring
// grows if something, such as a readiness re-check at a load miss's
// data-return cycle, is scheduled further out than the ring is long.
//
// Slot payload slices are reused across claims: truncated to length 0,
// capacity kept. Stale values beyond the current length are never read
// and only reference pooled objects, so they are not cleared on the hot
// path.

const eventRingInit = 64

// slotCapFloor pre-sizes each slot's payload slice. Per-cycle event
// bursts are bounded by machine width (a handful of grants, load
// discoveries, or scoreboard checks per cycle), so a generous floor
// means slots never grow in steady state — without it, each slot
// converges to its own historical max burst by occasional capacity
// doublings, a slow trickle of allocations that defeats the
// zero-allocs-per-cycle property on long runs.
const slotCapFloor = 32

// cycleRing holds values keyed by the future cycle they are due at: the
// kernel's future MOP op grants and its deferred per-entry events.
type cycleRing[T any] struct {
	slots []ringSlot[T]
	// n counts outstanding values so per-cycle takes can skip the slot
	// probe entirely when nothing is scheduled (the common case). It may
	// overcount after a grow drops already-passed slots; that only costs a
	// redundant probe.
	n int
}

type ringSlot[T any] struct {
	cyc  int64
	vals []T
}

func newCycleRing[T any]() cycleRing[T] { return cycleRing[T]{slots: newRingSlots[T](eventRingInit)} }

func newRingSlots[T any](n int) []ringSlot[T] {
	slots := make([]ringSlot[T], n)
	for i := range slots {
		slots[i].vals = make([]T, 0, slotCapFloor)
	}
	return slots
}

func (r *cycleRing[T]) slot(cyc int64) *ringSlot[T] {
	return &r.slots[cyc&int64(len(r.slots)-1)]
}

// push schedules v for cycle cyc > now. Keeping every live cycle within
// (now, now+len) guarantees distinct slots, so a push beyond that grows
// the ring first.
func (r *cycleRing[T]) push(now, cyc int64, v T) {
	if cyc-now >= int64(len(r.slots)) {
		r.grow(now, cyc)
	}
	s := r.slot(cyc)
	if s.cyc != cyc {
		s.cyc = cyc
		s.vals = s.vals[:0]
	}
	s.vals = append(s.vals, v)
	r.n++
}

// at returns the values scheduled for cyc without removing them.
func (r *cycleRing[T]) at(cyc int64) []T {
	if r.n == 0 {
		return nil
	}
	if s := r.slot(cyc); s.cyc == cyc {
		return s.vals
	}
	return nil
}

// take returns cyc's values and empties the slot. The returned slice is
// valid until the slot's next push; processing it must not schedule new
// values for the same cycle (no caller does: every push targets a
// strictly future cycle). It repeats at's probe instead of calling it so
// that it stays small enough to inline into Tick, which takes from five
// rings every cycle and usually finds them empty.
func (r *cycleRing[T]) take(cyc int64) []T {
	if r.n == 0 {
		return nil
	}
	s := r.slot(cyc)
	if s.cyc != cyc {
		return nil
	}
	vals := s.vals
	r.n -= len(vals)
	s.vals = vals[:0]
	return vals
}

func (r *cycleRing[T]) grow(now, cyc int64) {
	old := r.slots
	n := len(old)
	for cyc-now >= int64(n) {
		n *= 2
	}
	r.slots = newRingSlots[T](n)
	for i := range old {
		if old[i].cyc > now && len(old[i].vals) > 0 {
			s := r.slot(old[i].cyc)
			s.cyc = old[i].cyc
			s.vals = append(s.vals, old[i].vals...)
		}
	}
}

// entryRef is a deferred per-entry event. It carries the entry's
// generation at scheduling time: with the Entry free list an entry may be
// released and reused before a long-delay event fires, and a stale event
// must not touch its new life.
type entryRef struct {
	e   *Entry
	gen uint32
}

func refOf(e *Entry) entryRef { return entryRef{e: e, gen: e.gen} }
