package optsched

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/program"
)

func assemble(t *testing.T, text string) *program.Program {
	t.Helper()
	p, err := program.Assemble("t", text)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func depsOf(w *Window, i int) []int32 { return w.Uops[i].Deps }

func TestExtractDependences(t *testing.T) {
	// movi r1; addi r2 <- r1; sta [r2]; std r1; ld r3 <- [r2]; add r4 <- r3,r1
	p := assemble(t, `
movi r1, 64
addi r2, r1, 8
st r1, 0(r2)
ld r3, 0(r2)
add r4, r3, r1
halt
`)
	m := config.Default()
	wins := Extract(p, m, ExtractSpec{Window: 6, MaxWindows: 1})
	if len(wins) != 1 {
		t.Fatalf("got %d windows, want 1 (st expands to sta+std)", len(wins))
	}
	w := &wins[0]
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Committed stream: 0 movi, 1 addi, 2 sta, 3 std, 4 ld, 5 add, (halt
	// excluded — Step returns ErrHalted before producing it).
	if n := w.Len(); n != 6 {
		t.Fatalf("window has %d uops, want 6", n)
	}
	wantOps := []isa.Op{isa.MOVI, isa.ADDI, isa.STA, isa.STD, isa.LD, isa.ADD}
	for i, op := range wantOps {
		if w.Uops[i].Op != op {
			t.Fatalf("uop %d is %v, want %v", i, w.Uops[i].Op, op)
		}
	}
	checks := []struct {
		i    int
		want []int32
	}{
		{0, nil},           // movi: no sources
		{1, []int32{0}},    // addi reads r1
		{2, []int32{1}},    // sta reads r2
		{3, []int32{0, 2}}, // std reads r1 (data) and pairs with the sta
		{4, []int32{1}},    // ld reads r2; loads never wait on stores in the scheduler
		{5, []int32{4, 0}}, // add reads r3 and r1
	}
	for _, c := range checks {
		got := depsOf(w, c.i)
		if len(got) != len(c.want) {
			t.Fatalf("uop %d deps = %v, want %v", c.i, got, c.want)
		}
		seen := map[int32]bool{}
		for _, d := range got {
			seen[d] = true
		}
		for _, d := range c.want {
			if !seen[d] {
				t.Fatalf("uop %d deps = %v, missing %d", c.i, got, d)
			}
		}
	}
	// Load latency includes the DL1 hit.
	if want := isa.LD.Latency() + m.Mem.DL1.Latency; w.Uops[4].Lat != want {
		t.Fatalf("ld latency %d, want %d", w.Uops[4].Lat, want)
	}
	// STD consumes no issue resources.
	if w.Uops[3].Class != isa.ClassNone {
		t.Fatalf("std class %v, want ClassNone", w.Uops[3].Class)
	}
}

func TestExtractStrideAndCrossWindowDeps(t *testing.T) {
	// A dependence chain long enough for two windows: edges crossing the
	// window boundary must be dropped (producers outside are complete).
	p := assemble(t, `
movi r1, 1
add r1, r1, r1
add r1, r1, r1
add r1, r1, r1
add r1, r1, r1
add r1, r1, r1
halt
`)
	wins := Extract(p, config.Default(), ExtractSpec{Window: 3, Stride: 3, MaxWindows: 2})
	if len(wins) != 2 {
		t.Fatalf("got %d windows, want 2", len(wins))
	}
	if wins[1].Start != wins[0].Start+3 {
		t.Fatalf("second window starts at %d, want %d", wins[1].Start, wins[0].Start+3)
	}
	// First uop of window 2 depended on the last uop of window 1; the
	// edge is out of window and must be gone, keeping closure.
	if len(wins[1].Uops[0].Deps) != 0 {
		t.Fatalf("cross-window dep survived: %v", wins[1].Uops[0].Deps)
	}
	for i := range wins {
		if err := wins[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExtractShortProgram(t *testing.T) {
	// A program shorter than one window yields no windows, not a panic.
	p := assemble(t, "movi r1, 1\nhalt\n")
	if wins := Extract(p, config.Default(), ExtractSpec{Window: 16, MaxWindows: 4}); len(wins) != 0 {
		t.Fatalf("got %d windows from a 1-uop program", len(wins))
	}
}

func TestResourcesFromClamps(t *testing.T) {
	var m config.Machine // all zero
	r := ResourcesFrom(m).normalized()
	if r.Width < 1 || r.ReplayPenalty < 1 {
		t.Fatalf("unnormalized resources: %+v", r)
	}
	for c, u := range r.Units {
		if u < 1 {
			t.Fatalf("class %d has %d units after normalization", c, u)
		}
	}
}
