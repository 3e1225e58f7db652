// Package mop implements macro-op (MOP) detection, MOP pointers, and the
// machine-independent groupability characterizations of Sections 4 and 5
// of the paper.
//
// MOP detection (Section 5.1) examines the renamed instruction stream with
// a triangle dependence matrix over a two-group (8-instruction) scope,
// applies the conservative cycle-detection heuristic via "1"/"2" source
// count marks, resolves conflicts with a priority decoder, and emits
// 4-bit MOP pointers (1 control bit + 3-bit offset) that are stored
// alongside the instruction cache and consumed by MOP formation in the
// pipeline front end (internal/core).
package mop

// Pointer is the 4-bit MOP pointer of Section 5.1.3: a forward pointer
// from the MOP head to its tail. Control records whether the path from
// head to tail included exactly one taken direct control instruction at
// detection time; Offset is the dynamic instruction distance (1..7).
type Pointer struct {
	Control bool
	Offset  uint8
}

// MaxOffset is the largest distance representable by the 3-bit offset
// field: it covers the paper's 8-instruction scope.
const MaxOffset = 7

type tableEntry struct {
	ptr       Pointer
	valid     bool
	bans      uint32 // distinct pairs with this head the filter has banned
	tailPC    int
	visibleAt int64 // detection-delay modelling: usable from this cycle on
}

// PointerTable stores MOP pointers keyed by the head's static PC. It
// models the paper's arrangement where pointers live in the first-level
// instruction cache and are fetched along with instructions: entries
// become visible only after the configured detection delay, and the
// last-arriving-operand filter (Section 5.4.2) can delete an entry while
// blacklisting the pair so detection picks an alternative tail.
type PointerTable struct {
	// entries is indexed by head static PC. Static PCs are small dense
	// program indices, so a slice (grown on demand, stable once every PC
	// has been seen) replaces the map this used to be: under the
	// install/delete churn of detection the map kept allocating overflow
	// buckets, which showed up as a slow allocation trickle in the
	// otherwise allocation-free cycle loop.
	entries []tableEntry
	live    int
	// blacklist holds banned (headPC, tailPC) pairs under one combined
	// key. A single pre-sized map keeps the last-arriving filter's bans
	// from allocating per newly-banned head the way a map-of-maps did.
	// Each head's entry counts its bans, so a head without any skips the
	// map, and the detector's memo keys on the count.
	blacklist map[uint64]struct{}

	installs int64
	deletes  int64
}

// NewPointerTable returns an empty table.
func NewPointerTable() *PointerTable {
	return &PointerTable{
		blacklist: make(map[uint64]struct{}, 4096),
	}
}

// pairKey packs a (headPC, tailPC) pair into one blacklist key.
func pairKey(headPC, tailPC int) uint64 {
	return uint64(uint32(headPC))<<32 | uint64(uint32(tailPC))
}

// Blacklisted reports whether the head→tail pair was banned by the
// last-arriving filter.
func (t *PointerTable) Blacklisted(headPC, tailPC int) bool {
	if headPC >= 0 && t.bans(headPC) == 0 {
		return false
	}
	_, banned := t.blacklist[pairKey(headPC, tailPC)]
	return banned
}

// bans returns how many distinct pairs with this head PC are banned
// (0 for a negative PC, whose bans are not counted).
func (t *PointerTable) bans(headPC int) uint32 {
	if uint(headPC) < uint(len(t.entries)) {
		return t.entries[headPC].bans
	}
	return 0
}

// grow extends entries to cover headPC.
func (t *PointerTable) grow(headPC int) {
	if headPC >= len(t.entries) {
		t.entries = append(t.entries, make([]tableEntry, headPC+1-len(t.entries))...)
	}
}

// Install records a pointer for headPC, visible from cycle visibleAt.
// Blacklisted pairs are ignored. Each instruction has exactly one pointer
// (Section 5.1.3), so a new pair overwrites the old one.
func (t *PointerTable) Install(headPC, tailPC int, ptr Pointer, visibleAt int64) {
	if ptr.Offset == 0 || ptr.Offset > MaxOffset {
		return
	}
	if t.Blacklisted(headPC, tailPC) {
		return
	}
	t.grow(headPC)
	e := &t.entries[headPC]
	if e.valid && e.tailPC == tailPC && e.visibleAt <= visibleAt {
		return // already installed earlier; keep the earlier visibility
	}
	if !e.valid {
		t.live++
	}
	e.ptr, e.valid, e.tailPC, e.visibleAt = ptr, true, tailPC, visibleAt
	t.installs++
}

// Lookup returns the pointer for headPC if one is installed and already
// visible at the given cycle.
func (t *PointerTable) Lookup(headPC int, now int64) (Pointer, int, bool) {
	if headPC < 0 || headPC >= len(t.entries) {
		return Pointer{}, 0, false
	}
	e := &t.entries[headPC]
	if !e.valid || now < e.visibleAt {
		return Pointer{}, 0, false
	}
	return e.ptr, e.tailPC, true
}

// Delete implements the last-arriving filter's zero-pointer write: it
// removes the pointer for headPC and bans the pair so that subsequent
// detection searches for an alternative tail (Section 5.4.2).
func (t *PointerTable) Delete(headPC, tailPC int) {
	if headPC >= 0 && headPC < len(t.entries) {
		if e := &t.entries[headPC]; e.valid && e.tailPC == tailPC {
			e.valid = false
			t.live--
			t.deletes++
		}
	}
	k := pairKey(headPC, tailPC)
	if _, banned := t.blacklist[k]; banned {
		return
	}
	t.blacklist[k] = struct{}{}
	if headPC >= 0 {
		t.grow(headPC)
		t.entries[headPC].bans++
	}
}

// Len returns the number of currently valid pointers.
func (t *PointerTable) Len() int { return t.live }

// Installs returns the cumulative number of pointer installations.
func (t *PointerTable) Installs() int64 { return t.installs }

// Deletes returns the cumulative number of filter deletions.
func (t *PointerTable) Deletes() int64 { return t.deletes }
