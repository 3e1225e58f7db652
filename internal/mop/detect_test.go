package mop

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/isa"
)

// streamBuilder constructs dynamic instruction streams for detector tests.
type streamBuilder struct {
	insts []*functional.DynInst
}

func (s *streamBuilder) add(op isa.Op, dest, src1, src2 isa.Reg, taken bool) *functional.DynInst {
	pc := len(s.insts)
	d := &functional.DynInst{
		Seq: int64(pc),
		PC:  pc,
		Inst: isa.Instruction{
			Op: op, Dest: dest, Src1: src1, Src2: src2,
		},
		Taken: taken,
	}
	s.insts = append(s.insts, d)
	return d
}

func (s *streamBuilder) alu(dest isa.Reg, srcs ...isa.Reg) *functional.DynInst {
	s1, s2 := isa.NoReg, isa.NoReg
	if len(srcs) > 0 {
		s1 = srcs[0]
	}
	if len(srcs) > 1 {
		s2 = srcs[1]
	}
	return s.add(isa.ADD, dest, s1, s2, false)
}

// detectAll feeds the stream to a detector in groups of 4 and returns the
// pointer table.
func detectAll(cfg config.MOPConfig, insts []*functional.DynInst) (*PointerTable, *Detector) {
	tbl := NewPointerTable()
	det := NewDetector(cfg, tbl)
	cycle := int64(0)
	for i := 0; i < len(insts); i += 4 {
		end := i + 4
		if end > len(insts) {
			end = len(insts)
		}
		det.Observe(cycle, insts[i:end])
		cycle++
	}
	return tbl, det
}

func wiredOR() config.MOPConfig {
	c := config.DefaultMOP()
	c.DetectionDelay = 0
	return c
}

func wiredORDepOnly() config.MOPConfig {
	c := wiredOR()
	c.GroupIndependent = false
	return c
}

func cam2() config.MOPConfig {
	c := wiredOR()
	c.Wakeup = config.WakeupCAM2Src
	return c
}

func lookup(t *testing.T, tbl *PointerTable, headPC int) (Pointer, int) {
	t.Helper()
	ptr, tailPC, ok := tbl.Lookup(headPC, 1<<40)
	if !ok {
		t.Fatalf("no pointer for head PC %d", headPC)
	}
	return ptr, tailPC
}

func TestDetectSimplePair(t *testing.T) {
	var s streamBuilder
	s.alu(1)    // 0: head
	s.alu(2, 1) // 1: tail (single-source consumer)
	s.alu(3)    // 2
	s.alu(4)    // 3
	tbl, det := detectAll(wiredOR(), s.insts)
	ptr, tailPC := lookup(t, tbl, 0)
	if tailPC != 1 || ptr.Offset != 1 || ptr.Control {
		t.Fatalf("pointer = %+v tail %d", ptr, tailPC)
	}
	if det.Stats().DependentPairs == 0 {
		t.Fatal("no dependent pair counted")
	}
}

func TestDetectNearestConsumerWins(t *testing.T) {
	var s streamBuilder
	s.alu(1)    // 0
	s.alu(2, 1) // 1: nearest consumer
	s.alu(3, 1) // 2: farther consumer
	s.alu(4)    // 3
	tbl, _ := detectAll(wiredOR(), s.insts)
	_, tailPC := lookup(t, tbl, 0)
	if tailPC != 1 {
		t.Fatalf("picked tail %d, want nearest (1)", tailPC)
	}
}

func TestCycleHeuristicRejectsTwoSourceAcrossMark(t *testing.T) {
	// Column scan: head 0's first mark is at row 1 (a load, not a
	// candidate), and row 2 has a "2" mark; the heuristic forbids "2"
	// across other marks (potential cycle, Figure 8).
	var s streamBuilder
	s.alu(1)                              // 0: head
	s.add(isa.LD, 9, 1, isa.NoReg, false) // 1: consumer, not a candidate
	s.alu(10, 1, 9)                       // 2: 2-source consumer of 0 and 1
	s.alu(4)                              // 3
	tbl, det := detectAll(wiredORDepOnly(), s.insts)
	if _, _, ok := tbl.Lookup(0, 1<<40); ok {
		t.Fatal("pair formed despite potential cycle")
	}
	if det.Stats().CycleRejects == 0 {
		t.Fatal("cycle rejection not counted")
	}
}

func TestCycleHeuristicWouldDeadlock(t *testing.T) {
	// The rejected grouping above is a REAL cycle: 0 -> 1 -> 2, so
	// grouping (0,2) deadlocks. Precise detection must agree.
	var s streamBuilder
	s.alu(1)
	s.add(isa.LD, 9, 1, isa.NoReg, false)
	s.alu(10, 1, 9)
	s.alu(4)
	cfg := wiredORDepOnly()
	cfg.PreciseCycleDetection = true
	tbl, det := detectAll(cfg, s.insts)
	if _, _, ok := tbl.Lookup(0, 1<<40); ok {
		t.Fatal("precise detection formed a deadlocking pair")
	}
	if det.Stats().CycleRejects == 0 {
		t.Fatal("precise rejection not counted")
	}
}

func TestTwoSourceSelectableAsFirstMark(t *testing.T) {
	// A "2" mark is selectable when it is the first mark in the column.
	var s streamBuilder
	s.alu(1)        // 0: head
	s.alu(9, 8)     // 1: unrelated
	s.alu(10, 1, 9) // 2: first mark in column 0, two sources
	s.alu(4)        // 3
	tbl, _ := detectAll(wiredOR(), s.insts)
	_, tailPC := lookup(t, tbl, 0)
	if tailPC != 2 {
		t.Fatalf("tail %d, want 2", tailPC)
	}
}

func TestHeuristicConservativeVsPrecise(t *testing.T) {
	// Head 0; row 1 reads r1 but is not a candidate; row 2 reads r1 and
	// an out-of-window register. No true cycle exists (2 does not depend
	// on 1), but the conservative heuristic rejects; precise accepts.
	build := func() []*functional.DynInst {
		var s streamBuilder
		s.alu(1)                              // 0
		s.add(isa.LD, 9, 1, isa.NoReg, false) // 1: reader, not candidate
		s.alu(10, 1, 20)                      // 2: r20 produced outside window
		s.alu(4)                              // 3
		return s.insts
	}
	tbl, _ := detectAll(wiredORDepOnly(), build())
	if _, _, ok := tbl.Lookup(0, 1<<40); ok {
		t.Fatal("conservative heuristic paired across a mark")
	}
	cfg := wiredORDepOnly()
	cfg.PreciseCycleDetection = true
	tbl2, _ := detectAll(cfg, build())
	if _, _, ok := tbl2.Lookup(0, 1<<40); !ok {
		t.Fatal("precise detection lost a safe pair")
	}
}

func TestPriorityDecoderOldestHeadWins(t *testing.T) {
	var s streamBuilder
	s.alu(1)       // 0
	s.alu(2)       // 1
	s.alu(3, 1, 2) // 2: wanted by both 0 and 1
	s.alu(4)       // 3
	tbl, det := detectAll(wiredOR(), s.insts)
	_, tailPC := lookup(t, tbl, 0)
	if tailPC != 2 {
		t.Fatalf("oldest head paired with %d", tailPC)
	}
	if _, _, ok := tbl.Lookup(1, 1<<40); ok {
		// PC 1 may pair with something else, but not with 2.
		_, tp, _ := tbl.Lookup(1, 1<<40)
		if tp == 2 {
			t.Fatal("both heads claimed the same tail")
		}
	}
	if det.Stats().ConflictLosses == 0 {
		t.Fatal("conflict loss not counted")
	}
}

func TestControlBitAcrossTakenBranch(t *testing.T) {
	var s streamBuilder
	s.alu(1)                                              // 0: head
	s.add(isa.JMP, isa.NoReg, isa.NoReg, isa.NoReg, true) // 1: taken direct
	s.alu(2, 1)                                           // 2: tail beyond the jump
	s.alu(4)                                              // 3
	tbl, _ := detectAll(wiredOR(), s.insts)
	ptr, tailPC := lookup(t, tbl, 0)
	if tailPC != 2 || !ptr.Control {
		t.Fatalf("pointer across taken branch: %+v tail %d", ptr, tailPC)
	}
}

func TestNoPointerAcrossIndirectJump(t *testing.T) {
	var s streamBuilder
	s.alu(1)                                          // 0
	s.add(isa.JR, isa.NoReg, isa.RA, isa.NoReg, true) // 1: indirect
	s.alu(2, 1)                                       // 2
	s.alu(4)                                          // 3
	tbl, det := detectAll(wiredOR(), s.insts)
	if _, _, ok := tbl.Lookup(0, 1<<40); ok {
		t.Fatal("pointer crossed an indirect jump")
	}
	if det.Stats().ControlRejects == 0 {
		t.Fatal("control rejection not counted")
	}
}

func TestNoPointerAcrossMultipleControlsWithTaken(t *testing.T) {
	var s streamBuilder
	s.alu(1)                                              // 0
	s.add(isa.BEQ, isa.NoReg, 5, 6, false)                // 1: not taken
	s.add(isa.JMP, isa.NoReg, isa.NoReg, isa.NoReg, true) // 2: taken
	s.alu(2, 1)                                           // 3: tail candidate
	tbl, _ := detectAll(wiredORDepOnly(), s.insts)
	if _, _, ok := tbl.Lookup(0, 1<<40); ok {
		t.Fatal("pointer crossed multiple controls with a taken one")
	}
}

func TestPointerAcrossNotTakenBranch(t *testing.T) {
	var s streamBuilder
	s.alu(1)                               // 0
	s.add(isa.BEQ, isa.NoReg, 5, 6, false) // 1: not taken
	s.alu(2, 1)                            // 2
	s.alu(4)                               // 3
	tbl, _ := detectAll(wiredOR(), s.insts)
	ptr, tailPC := lookup(t, tbl, 0)
	if tailPC != 2 || ptr.Control {
		t.Fatalf("not-taken path pointer: %+v tail %d", ptr, tailPC)
	}
}

func TestCAMSourceLimit(t *testing.T) {
	// Head with 2 sources, tail adding one external source: union = 3.
	build := func() []*functional.DynInst {
		var s streamBuilder
		s.add(isa.LD, 11, 8, isa.NoReg, false) // 0: loads cannot be heads
		s.add(isa.LD, 12, 8, isa.NoReg, false) // 1
		s.alu(1, 11, 12)                       // 2: head, two sources
		s.alu(2, 1, 13)                        // 3: tail, head edge + external r13
		return s.insts
	}
	tblCAM, detCAM := detectAll(cam2(), build())
	if _, _, ok := tblCAM.Lookup(2, 1<<40); ok {
		t.Fatal("CAM-2src accepted a 3-source union")
	}
	if detCAM.Stats().CAMRejects == 0 {
		t.Fatal("CAM rejection not counted")
	}
	tblOR, _ := detectAll(wiredOR(), build())
	if _, _, ok := tblOR.Lookup(2, 1<<40); !ok {
		t.Fatal("wired-OR lost the 3-source pair")
	}
}

func TestCAMIntraMOPEdgeDoesNotCount(t *testing.T) {
	// Tail's dependence on the head is satisfied inside the MOP: union =
	// head's 2 sources only.
	var s streamBuilder
	s.add(isa.LD, 11, 8, isa.NoReg, false)
	s.add(isa.LD, 12, 8, isa.NoReg, false)
	s.alu(1, 11, 12) // 2: head, 2 sources
	s.alu(2, 1)      // 3: tail reads only the head
	tbl, _ := detectAll(cam2(), s.insts)
	if _, _, ok := tbl.Lookup(2, 1<<40); !ok {
		t.Fatal("CAM-2src rejected a pair whose union is 2")
	}
}

func TestIndependentMOPPairing(t *testing.T) {
	var s streamBuilder
	s.alu(11)    // 0
	s.alu(5, 11) // 1: reads r11
	s.alu(6, 11) // 2: identical source, independent of 1
	s.alu(4)     // 3
	cfg := wiredOR()
	tbl, det := detectAll(cfg, s.insts)
	// 0:1 is a dependent pair; 2 should NOT steal 1.
	_, tail0 := lookup(t, tbl, 0)
	if tail0 != 1 {
		t.Fatalf("dependent pair first: tail %d", tail0)
	}
	if det.Stats().IndependentPairs != 0 {
		// 2 has no un-grouped identical-source partner left in this tiny
		// window (1 is a tail), so no independent pair forms.
		t.Fatalf("unexpected independent pairs: %d", det.Stats().IndependentPairs)
	}

	// Now two free identical-source instructions whose producer is a
	// load (not a potential head), so no dependent pair interferes.
	var s2 streamBuilder
	s2.add(isa.LD, 11, 8, isa.NoReg, false) // 0
	s2.add(isa.LD, 12, 8, isa.NoReg, false) // 1
	s2.alu(5, 11)                           // 2
	s2.alu(6, 11)                           // 3: same source, same producer
	tbl2, det2 := detectAll(cfg, s2.insts)
	if det2.Stats().IndependentPairs == 0 {
		t.Fatal("no independent pair formed")
	}
	ptr, tailPC := lookup(t, tbl2, 2)
	if tailPC != 3 || ptr.Offset != 1 {
		t.Fatalf("independent pointer: %+v tail %d", ptr, tailPC)
	}
}

func TestIndependentDisabled(t *testing.T) {
	var s streamBuilder
	s.alu(11)
	s.alu(12)
	s.alu(5, 11)
	s.alu(6, 11)
	cfg := wiredOR()
	cfg.GroupIndependent = false
	_, det := detectAll(cfg, s.insts)
	if det.Stats().IndependentPairs != 0 {
		t.Fatal("independent pairing ran while disabled")
	}
}

func TestIndependentRequiresSameValue(t *testing.T) {
	// Same register name but rewritten in between: different values.
	var s streamBuilder
	s.alu(5, 11) // 0 reads old r11
	s.alu(11)    // 1 rewrites r11
	s.alu(6, 11) // 2 reads new r11
	s.alu(4)     // 3
	_, det := detectAll(wiredOR(), s.insts)
	if det.Stats().IndependentPairs != 0 {
		t.Fatal("independent pair formed across a rewrite")
	}
}

func TestCrossGroupDetection(t *testing.T) {
	// Head in group 1, nearest consumer in group 2: the sliding window
	// (2 groups = 8-instruction scope) must find it.
	var s streamBuilder
	s.alu(1)    // 0: head
	s.alu(21)   // 1
	s.alu(22)   // 2
	s.alu(23)   // 3
	s.alu(2, 1) // 4: tail in the next group
	s.alu(24)   // 5
	s.alu(25)   // 6
	s.alu(26)   // 7
	tbl, _ := detectAll(wiredORDepOnly(), s.insts)
	ptr, tailPC := lookup(t, tbl, 0)
	if tailPC != 4 || ptr.Offset != 4 {
		t.Fatalf("cross-group pointer: %+v tail %d", ptr, tailPC)
	}
}

func TestScopeLimit(t *testing.T) {
	// Consumer 8 instructions away: outside the 2-group window once the
	// head's group slides out.
	var s streamBuilder
	s.alu(1) // 0: head
	for i := 0; i < 7; i++ {
		s.alu(isa.Reg(20 + i))
	}
	s.alu(2, 1) // 8: consumer, out of scope
	for i := 0; i < 3; i++ {
		s.alu(isa.Reg(27 - i))
	}
	tbl, _ := detectAll(wiredORDepOnly(), s.insts)
	if _, _, ok := tbl.Lookup(0, 1<<40); ok {
		t.Fatal("pointer generated beyond the 8-instruction scope")
	}
}

func TestTailNotReusedAsHead(t *testing.T) {
	// With MaxMOPSize = 2, a chosen tail must not head another pair.
	var s streamBuilder
	s.alu(1)    // 0: head
	s.alu(2, 1) // 1: tail of 0
	s.alu(3, 2) // 2: consumer of 1
	s.alu(4)    // 3
	tbl, _ := detectAll(wiredOR(), s.insts)
	if _, _, ok := tbl.Lookup(1, 1<<40); ok {
		t.Fatal("a 2x MOP tail became a head")
	}
}

func TestChainedMOPExtensionAllowsTailHead(t *testing.T) {
	var s streamBuilder
	s.alu(1)
	s.alu(2, 1)
	s.alu(3, 2)
	s.alu(4)
	cfg := wiredOR()
	cfg.MaxMOPSize = 3
	tbl, _ := detectAll(cfg, s.insts)
	if _, _, ok := tbl.Lookup(1, 1<<40); !ok {
		t.Fatal("chained extension did not let the tail start a link")
	}
}

func TestDetectionDelayVisibility(t *testing.T) {
	var s streamBuilder
	s.alu(1)
	s.alu(2, 1)
	s.alu(3)
	s.alu(4)
	cfg := wiredOR()
	cfg.DetectionDelay = 50
	tbl := NewPointerTable()
	det := NewDetector(cfg, tbl)
	det.Observe(10, s.insts)
	if _, _, ok := tbl.Lookup(0, 10); ok {
		t.Fatal("pointer visible before the detection delay")
	}
	if _, _, ok := tbl.Lookup(0, 60); !ok {
		t.Fatal("pointer not visible after the delay")
	}
}
