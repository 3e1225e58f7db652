package sched

import (
	"errors"
	"strings"
	"testing"

	"macroop/internal/config"
	"macroop/internal/simerr"
)

// Generation-guard and recycling tests: an Entry struct is pooled through
// the free list and its slot is reused on the age ring, and all four
// deferred-event rings (load-miss discovery, scoreboard check, readiness
// and finality re-checks) must be immune to stale state from a previous
// life.

// consRowEmpty reports whether producer slot s has an all-zero consumer
// mask row.
func consRowEmpty(k *BitScheduler, s int) bool {
	for _, w := range k.cons[s*k.words : (s+1)*k.words] {
		if w != 0 {
			return false
		}
	}
	return true
}

// TestBitEntryRecycleNoStaleWakeups is the free-list counterpart of the
// core's leak tests: a released struct reused as a new instruction must
// start with a fresh identity, a bumped generation, and clean slot state
// — and granting its new life must wake only new-life consumers, never a
// consumer registered against the struct's previous life.
func TestBitEntryRecycleNoStaleWakeups(t *testing.T) {
	k := NewBit(testCfg(config.SchedBase))

	// Previous life: P produces for C; C also waits on a slow load Q, so C
	// is still live (waiting) when P is released.
	q := load(k)
	p := alu(k)
	c := alu(k, p, q)
	pSlot := p.slot
	now := finalize(t, k, 1, 50, p, func(g Grant) {
		if g.Entry == q {
			// Long DL1 miss: Q's data arrives at cycle 30.
			k.SetLoadResult(q, 0, 30, g.Cycle+4)
		}
	})
	if c.Final() {
		t.Fatal("consumer finalized before its load producer resolved")
	}
	if !consRowEmpty(k, pSlot) {
		t.Fatal("final producer's consumer mask row not cleared; finality must sever it")
	}

	oldID, oldGen := p.ID(), p.Gen()
	k.Release(p)
	if got := k.DebugFreeCount(); got != 1 {
		t.Fatalf("free list holds %d entries after release, want 1", got)
	}

	// New life: the recycled struct returns as P2 with a consumer D.
	p2 := alu(k)
	if p2 != p {
		t.Fatalf("expected the free list to hand back the released struct")
	}
	if k.DebugFreeCount() != 0 {
		t.Fatal("allocation did not pop the free list")
	}
	if p2.ID() == oldID {
		t.Fatal("recycled entry kept its previous-life ID")
	}
	if p2.Gen() == oldGen {
		t.Fatal("recycled entry kept its previous-life generation")
	}
	if k.nsrc[p2.slot] != 0 || k.open[p2.slot] != 0 || !consRowEmpty(k, p2.slot) {
		t.Fatalf("recycled entry's slot %d starts dirty: nsrc=%d open=%d",
			p2.slot, k.nsrc[p2.slot], k.open[p2.slot])
	}
	d := alu(k, p2)

	granted := map[*Entry]int64{}
	for cyc := now; cyc <= 60; cyc++ {
		for _, g := range k.Tick(cyc) {
			granted[g.Entry] = g.Cycle
		}
	}
	if _, ok := granted[p2]; !ok {
		t.Fatal("recycled producer never granted in its new life")
	}
	if _, ok := granted[d]; !ok {
		t.Fatal("new-life consumer never granted")
	}
	if granted[d] <= granted[p2] {
		t.Fatalf("new-life consumer granted at %d, producer at %d", granted[d], granted[p2])
	}
	// C's wakeup must come from Q's actual readiness (cycle 30), not from
	// the recycled struct's new-life broadcast.
	if granted[c] <= granted[p2] {
		t.Fatalf("previous-life consumer woke at %d, with the recycled entry's grant at %d — stale edge",
			granted[c], granted[p2])
	}
	if granted[c] < 30 {
		t.Fatalf("previous-life consumer granted at %d, before its load operand was ready at 30", granted[c])
	}
}

// TestBitDeferredEventGenGuard: deferred per-entry events (scoreboard
// check, load-miss discovery, readiness re-check, finality re-check)
// scheduled against one life of an Entry struct must not fire into the
// next life after the struct is recycled.
func TestBitDeferredEventGenGuard(t *testing.T) {
	k := NewBit(testCfg(config.SchedSelectFreeScoreboard))
	p := alu(k)
	finalize(t, k, 1, 20, p, nil)

	// Forge stale deferred events in every ring: scheduled against p's
	// current life, firing at cycles 40..43, with p released (and
	// recycled) in between.
	k.sbEvents.push(k.now, 40, refOf(p))
	k.loadEvents.push(k.now, 41, refOf(p))
	k.readyEvents.push(k.now, 42, refOf(p))
	k.finalEvents.push(k.now, 43, refOf(p))
	k.Release(p)

	p2 := alu(k)
	if p2 != p {
		t.Fatal("expected the free list to hand back the released struct")
	}
	granted := map[*Entry]int64{}
	for cyc := k.now + 1; cyc <= 45; cyc++ {
		for _, g := range k.Tick(cyc) {
			granted[g.Entry] = g.Cycle
		}
	}
	if err := k.Err(); err != nil {
		t.Fatalf("stale deferred event corrupted the scheduler: %v", err)
	}
	if !p2.Final() {
		t.Fatalf("recycled entry's new life did not complete (state %v)", p2.GetState())
	}
	if _, ok := granted[p2]; !ok {
		t.Fatal("recycled entry never granted in its new life")
	}
}

// TestBitStaleSlotEventGuard covers the window the generation guard alone
// does not: after finality the slot is freed while the struct (same
// generation) is still held by the core. An event passing the generation
// guard in that window must not touch the slot's next occupant.
func TestBitStaleSlotEventGuard(t *testing.T) {
	cfg := testCfg(config.SchedBase)
	cfg.Window = 64 // the smallest age ring, so the freed slot recurs quickly
	k := NewBit(cfg)
	p := alu(k)
	slot := p.slot
	now := finalize(t, k, 1, 20, p, nil)

	// p is final and its slot freed, but not yet released: its gen is
	// still current. Forge readiness and finality re-checks against it.
	k.readyEvents.push(k.now, now+2, refOf(p))
	k.finalEvents.push(k.now, now+3, refOf(p))

	// A new entry claims slots by age; drive inserts until the freed slot
	// is reused (the ring wraps within n inserts).
	var usurper *Entry
	for i := 0; i < k.n+1 && usurper == nil; i++ {
		e := alu(k)
		if e.slot == slot {
			usurper = e
		}
	}
	if usurper == nil {
		t.Fatalf("slot %d never reused after %d inserts", slot, k.n+1)
	}
	for cyc := now; cyc <= now+40; cyc++ {
		k.Tick(cyc)
	}
	if err := k.Err(); err != nil {
		t.Fatalf("stale slot event corrupted the scheduler: %v", err)
	}
	if !usurper.Final() {
		t.Fatalf("slot usurper never completed (state %v)", usurper.GetState())
	}
	k.Release(p)
}

// TestInsertPastWindowPanics: an insert whose age-ring slot the oldest
// live entry still holds breaks the caller's Window bound. It must fail
// as an internal error naming Window and the live span, not overwrite the
// entry.
func TestInsertPastWindowPanics(t *testing.T) {
	cfg := testCfg(config.SchedBase)
	cfg.Window = 64
	k := NewBit(cfg)
	for i := 0; i < 64; i++ {
		alu(k) // ages 0..63 fill the 64-slot ring; none has issued
	}
	defer func() {
		err, _ := recover().(error)
		if !errors.Is(err, simerr.ErrInternal) {
			t.Fatalf("insert into a held slot: recovered %v, want an internal error", err)
		}
		for _, want := range []string{"live span of 65 ages", "Window 64"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
		if k.Occupied() != 64 || k.ent[0].age != 0 {
			t.Errorf("failed insert changed the queue: occupied %d, slot 0 holds age %d", k.Occupied(), k.ent[0].age)
		}
	}()
	alu(k)
}

// TestBitReleaseRefcounting: Retain defers recycling until every holder
// lets go, and unbalanced releases of live entries panic rather than
// corrupt the free list.
func TestBitReleaseRefcounting(t *testing.T) {
	k := NewBit(testCfg(config.SchedBase))
	p := alu(k)
	p.Retain()
	finalize(t, k, 1, 20, p, nil)

	k.Release(p)
	if k.DebugFreeCount() != 0 {
		t.Fatal("entry recycled while a retained reference was outstanding")
	}
	k.Release(p)
	if k.DebugFreeCount() != 1 {
		t.Fatal("entry not recycled after the last reference dropped")
	}

	// Releasing a non-final entry to zero must panic (typed internal
	// error), not silently recycle a live entry.
	q := alu(k)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a live entry to refcount zero did not panic")
		}
	}()
	k.Release(q)
}
