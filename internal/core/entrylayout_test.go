package core

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/workload"
)

// sliceInsideArr reports whether slice s (with non-zero capacity) is a
// window into the backing array whose elements arr[i] enumerates. The
// comparison is by element address, so a slice that was ever reassigned
// to a heap-allocated array (an accidental append past capacity, say)
// fails it.
func uopSliceInsideArr(base *uop, s []*uop) bool {
	if cap(s) == 0 {
		return true // nil or empty-with-no-backing: nothing to alias
	}
	p := &s[:1][0]
	for i := range base.membersArr {
		if p == &base.membersArr[i] {
			return cap(s) <= len(base.membersArr)-i
		}
	}
	return false
}

func prodSliceInsideArr(s []prodRef, arr []prodRef) bool {
	if cap(s) == 0 {
		return true
	}
	p := &s[:1][0]
	for i := range arr {
		if p == &arr[i] {
			return cap(s) <= len(arr)-i
		}
	}
	return false
}

// TestEntryLayoutEmbeddedSliceHeaders checks the pointer-linked uop
// layout's zero-alloc invariant at the data-structure level: every live
// uop's members/headProds/tailProds slice header stays inside the uop's
// own embedded backing array across pool reuse. If the rename or MOP
// formation path ever appends past the embedded capacity, the slice
// silently migrates to a fresh heap array — correctness survives but the
// steady state starts allocating — so the aliasing itself is the
// property pinned here, not just allocs/op.
func TestEntryLayoutEmbeddedSliceHeaders(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(config.Default().WithMOP(config.DefaultMOP()), prog)
	if err != nil {
		t.Fatal(err)
	}

	check := func(where string, u *uop) {
		if u == nil {
			return
		}
		if !uopSliceInsideArr(u, u.members) {
			t.Fatalf("%s: uop seq %d members escaped membersArr (cap %d)", where, u.d.Seq, cap(u.members))
		}
		if !prodSliceInsideArr(u.headProds, u.headProdsArr[:]) {
			t.Fatalf("%s: uop seq %d headProds escaped headProdsArr (cap %d)", where, u.d.Seq, cap(u.headProds))
		}
		if !prodSliceInsideArr(u.tailProds, u.tailProdsArr[:]) {
			t.Fatalf("%s: uop seq %d tailProds escaped tailProdsArr (cap %d)", where, u.d.Seq, cap(u.tailProds))
		}
	}

	// Warm past the cold-start region so the ring has wrapped at least
	// once and every uop below is pool-recycled, then sweep the live set
	// periodically while stepping: the ROB holds in-flight uops (slices
	// actively filled by formation), the fetch ring recently retired ones.
	if _, err := c.Run(50_000); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30_000; i++ {
		c.step()
		if err := c.runErr(); err != nil {
			t.Fatal(err)
		}
		if i%512 != 0 {
			continue
		}
		for j := range c.rob {
			check("rob", c.rob[j])
		}
		for j := range c.ring {
			check("ring", c.ring[j])
		}
	}
}
