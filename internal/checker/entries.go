package checker

import (
	"math/bits"

	"macroop/internal/sched"
)

// entryRec is the checker's bookkeeping for one in-flight scheduler
// entry: the last grant cycle of each op that has issued but not yet
// committed, and the entry's macro-op formation report until its last
// op commits. A record with neither is dead and its slot is free.
type entryRec struct {
	id     int64 // tag: the entry ID this record belongs to
	issued uint8 // bit i set: issue[i] is op i's last grant cycle
	n      uint8 // formed members (0 = no formation report)
	next   uint8 // next op expected to commit (MOP atomicity)
	issue  [sched.MaxMOPOps]int64
	seqs   [sched.MaxMOPOps]int64
}

// The issued mask has one bit per op an entry can hold.
const _ = uint8(1 << (sched.MaxMOPOps - 1))

func (r *entryRec) live() bool { return r.issued != 0 || r.n != 0 }

// takeIssue consumes op's grant record, reporting its cycle and whether
// there was one. r may be nil (no record for the entry).
func (r *entryRec) takeIssue(op int) (int64, bool) {
	if r == nil || uint(op) >= sched.MaxMOPOps || r.issued&(1<<op) == 0 {
		return 0, false
	}
	r.issued &^= 1 << op
	return r.issue[op], true
}

const (
	// minEntryTable covers the default 128-entry ROB's window of live
	// entry IDs with room to spare, so the table never grows in
	// ordinary runs.
	minEntryTable = 256
	// maxEntryBits bounds growth at 1<<maxEntryBits slots; IDs that
	// would need more (far-off IDs such as a corrupted tag) go to the
	// overflow map.
	maxEntryBits = 14
)

// entryTable maps entry IDs to records without a Go map on the hot
// path. The scheduler assigns IDs in insert order and the ROB bounds
// the live window, so direct-mapping by id&mask never puts two live
// IDs in one slot once the table exceeds that window. An ID that lands
// on another live ID's slot grows the table until they part or, past
// 1<<maxEntryBits slots, gets a record in the overflow map.
type entryTable struct {
	recs []entryRec
	mask int64
	over map[int64]*entryRec
}

func newEntryTable() entryTable {
	return entryTable{recs: make([]entryRec, minEntryTable), mask: minEntryTable - 1}
}

// find returns id's live record, or nil if it has none.
func (t *entryTable) find(id int64) *entryRec {
	if r := &t.recs[id&t.mask]; r.id == id && r.live() {
		return r
	}
	if len(t.over) > 0 {
		return t.over[id]
	}
	return nil
}

// claim returns id's record, starting a fresh one if it has none.
func (t *entryTable) claim(id int64) *entryRec {
	if r := t.find(id); r != nil {
		return r
	}
	r := &t.recs[id&t.mask]
	if !r.live() {
		*r = entryRec{id: id}
		return r
	}
	// Another live ID holds the slot. The IDs agree on every bit below
	// their lowest differing bit b, so a table of 2<<b slots parts them.
	if b := bits.TrailingZeros64(uint64(id ^ r.id)); b < maxEntryBits {
		t.grow(2 << b)
		return t.claim(id)
	}
	if t.over == nil {
		t.over = make(map[int64]*entryRec)
	}
	o := &entryRec{id: id}
	t.over[id] = o
	return o
}

// grow rehashes the table to size slots. Live IDs in distinct slots
// differ modulo the old size, hence modulo any multiple of it, so none
// collide in the new table.
func (t *entryTable) grow(size int) {
	old := t.recs
	t.recs = make([]entryRec, size)
	t.mask = int64(size - 1)
	for i := range old {
		if old[i].live() {
			t.recs[old[i].id&t.mask] = old[i]
		}
	}
}

// release forgets r once it is dead. A table slot frees itself; an
// overflow record leaves the map.
func (t *entryTable) release(r *entryRec) {
	if r != nil && !r.live() && len(t.over) > 0 && t.over[r.id] == r {
		delete(t.over, r.id)
	}
}
