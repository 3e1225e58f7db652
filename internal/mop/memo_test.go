package mop

import (
	"testing"

	"macroop/internal/isa"
)

// TestWindowPacking pins which windows the memo keys: a window packs
// unless it holds a PC outside the key's field, a head PC with more bans
// than the key counts, or more than memoSlots slots, and it packs again
// once such a slot has been evicted. A recorded key never matches a
// shorter window that it starts with.
func TestWindowPacking(t *testing.T) {
	var s streamBuilder
	for i := 0; i < 16; i++ {
		s.alu(isa.Reg(1 + i%4))
	}
	// A non-candidate, so it is never a head and the table never grows to
	// its PC.
	s.insts[2].PC, s.insts[2].Inst.Op = 1<<keyPCBits, isa.MUL
	tbl := NewPointerTable()
	for k := 0; k <= keyMaxBans; k++ {
		tbl.Delete(8, 100+k)
	}
	det := NewDetector(wiredOR(), tbl) // 2-group scope
	cycle := int64(0)
	packs := func(first int) bool {
		before := det.packed
		det.Observe(cycle, s.insts[first:first+2])
		cycle++
		return det.packed > before
	}
	for _, c := range []struct {
		first int
		want  bool
	}{
		{0, true},
		{2, false}, // wide PC enters
		{4, false},
		{6, true},  // wide PC evicted
		{8, false}, // head PC 8 has more bans than the key counts
		{10, false},
		{0, true},
	} {
		if got := packs(c.first); got != c.want {
			t.Fatalf("group at %d: packed %v, want %v", c.first, got, c.want)
		}
	}

	cfg := wiredOR()
	cfg.ScopeGroups = 3
	det = NewDetector(cfg, NewPointerTable())
	for g, want := range []bool{true, true, false} { // 4, 8, then 12 slots
		det.Observe(int64(g), s.insts[4+4*g:8+4*g])
		if packed := det.packed == int64(g+1); packed != want {
			t.Fatalf("window of %d slots: packed %v, want %v", 4*g+4, packed, want)
		}
	}

	long := [memoSlots]uint64{keyPresent | 1, keyPresent | 2, keyPresent | 3}
	short := [memoSlots]uint64{keyPresent | 1, keyPresent | 2}
	e := memoEntry{key: long}
	if e.matches(&short, 2) || !e.matches(&long, 3) {
		t.Fatal("memo matched a key prefix, or missed its own key")
	}
}
