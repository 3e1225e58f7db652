package mop

import "testing"

func TestPointerInstallLookup(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Install(10, 13, Pointer{Offset: 3}, 100)
	if _, _, ok := tbl.Lookup(10, 99); ok {
		t.Fatal("visible before install cycle")
	}
	ptr, tail, ok := tbl.Lookup(10, 100)
	if !ok || tail != 13 || ptr.Offset != 3 {
		t.Fatalf("lookup: %+v %d %v", ptr, tail, ok)
	}
	if tbl.Len() != 1 || tbl.Installs() != 1 {
		t.Fatal("accounting wrong")
	}
}

func TestPointerRejectsBadOffset(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Install(1, 2, Pointer{Offset: 0}, 0)
	tbl.Install(1, 9, Pointer{Offset: 8}, 0) // > MaxOffset (3-bit field)
	if tbl.Len() != 0 {
		t.Fatal("invalid offsets accepted")
	}
}

func TestPointerSinglePointerPerHead(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Install(10, 11, Pointer{Offset: 1}, 0)
	tbl.Install(10, 14, Pointer{Offset: 4}, 0) // overwrites: one pointer per instruction
	_, tail, _ := tbl.Lookup(10, 10)
	if tail != 14 {
		t.Fatalf("pointer not overwritten: tail %d", tail)
	}
	if tbl.Len() != 1 {
		t.Fatal("duplicate entries")
	}
}

func TestPointerReinstallSamePairKeepsEarlierVisibility(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Install(10, 11, Pointer{Offset: 1}, 5)
	tbl.Install(10, 11, Pointer{Offset: 1}, 500) // re-detected later
	if _, _, ok := tbl.Lookup(10, 6); !ok {
		t.Fatal("re-install pushed visibility back")
	}
}

func TestDeleteAndBlacklist(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Install(10, 11, Pointer{Offset: 1}, 0)
	tbl.Delete(10, 11)
	if _, _, ok := tbl.Lookup(10, 100); ok {
		t.Fatal("deleted pointer still visible")
	}
	if !tbl.Blacklisted(10, 11) {
		t.Fatal("pair not blacklisted")
	}
	// Re-detection of the banned pair is ignored; an alternative is fine.
	tbl.Install(10, 11, Pointer{Offset: 1}, 0)
	if tbl.Len() != 0 {
		t.Fatal("blacklisted pair reinstalled")
	}
	tbl.Install(10, 12, Pointer{Offset: 2}, 0)
	if _, tail, ok := tbl.Lookup(10, 10); !ok || tail != 12 {
		t.Fatal("alternative pair rejected")
	}
	if tbl.Deletes() != 1 {
		t.Fatal("delete count wrong")
	}
}

func TestDeleteOnlyMatchingTail(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Install(10, 12, Pointer{Offset: 2}, 0)
	tbl.Delete(10, 11) // different tail: blacklist 11, keep the 12 pointer
	if _, tail, ok := tbl.Lookup(10, 10); !ok || tail != 12 {
		t.Fatal("unrelated delete removed the live pointer")
	}
}

// TestBansCountDistinctPairsPerHead: a head's ban count, which the
// detector's memo keys on, grows once per distinct banned pair, and a
// negative head's bans still reach Blacklisted through the map.
func TestBansCountDistinctPairsPerHead(t *testing.T) {
	tbl := NewPointerTable()
	tbl.Delete(3, 4)
	tbl.Delete(3, 4)
	tbl.Delete(3, 5)
	tbl.Delete(-2, 4)
	if got := tbl.bans(3); got != 2 {
		t.Fatalf("head 3 has %d bans, want 2", got)
	}
	if got := tbl.bans(4); got != 0 {
		t.Fatalf("head 4 has %d bans, want 0", got)
	}
	if !tbl.Blacklisted(-2, 4) || tbl.Blacklisted(-2, 5) || tbl.Blacklisted(4, 3) {
		t.Fatal("blacklist answers wrong")
	}
}
