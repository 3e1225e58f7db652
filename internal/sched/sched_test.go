package sched

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/rng"
)

// onBitKernel runs body as a subtest named after the kernel under test,
// the bit-parallel BitScheduler.
func onBitKernel(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	t.Run("bitset", body)
}

func testCfg(model config.SchedModel) Config {
	cfg := Config{Model: model, Width: 4, ReplayPenalty: 2}
	cfg.FU = [isa.NumClasses]int{4, 2, 2, 2, 2, 4}
	return cfg
}

// alu inserts a single-cycle ALU entry.
func alu(s *BitScheduler, srcs ...*Entry) *Entry {
	var sp []SrcSpec
	for _, p := range srcs {
		sp = append(sp, SrcSpec{Prod: p})
	}
	return s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, sp, false)
}

// load inserts a load entry with assumed latency 3 (agen 1 + DL1 hit 2).
func load(s *BitScheduler, srcs ...*Entry) *Entry {
	var sp []SrcSpec
	for _, p := range srcs {
		sp = append(sp, SrcSpec{Prod: p})
	}
	return s.Insert(OpInfo{FU: isa.ClassMem, Latency: 3, IsLoad: true}, sp, false)
}

// finalize drives the scheduler until e is final (or maxCycle passes),
// returning the cycle after the last tick.
func finalize(t *testing.T, s *BitScheduler, from, maxCycle int64, e *Entry, onGrant func(Grant)) int64 {
	t.Helper()
	for c := from; c <= maxCycle; c++ {
		for _, g := range s.Tick(c) {
			if onGrant != nil {
				onGrant(g)
			}
		}
		if e.Final() {
			return c + 1
		}
	}
	t.Fatalf("entry %d not final by cycle %d (state %v)", e.ID(), maxCycle, e.GetState())
	return 0
}

// drive ticks the scheduler from cycle 1 to maxCycle, recording the final
// grant cycle of each op.
func drive(s *BitScheduler, maxCycle int64, onGrant func(Grant)) map[*Entry][2]int64 {
	grants := map[*Entry][2]int64{}
	for c := int64(1); c <= maxCycle; c++ {
		for _, g := range s.Tick(c) {
			v := grants[g.Entry]
			v[g.OpIdx] = g.Cycle
			grants[g.Entry] = v
			if onGrant != nil {
				onGrant(g)
			}
		}
	}
	return grants
}

// TestFigure5Timing reproduces the paper's Figure 5 wakeup/select timings:
//
//	1: add r1   2: lw r4,0(r1)   3: sub r5,r1   4: bez r5
//
// atomic: 1@n, {2,3}@n+1, 4@n+2; 2-cycle: 1@n, {2,3}@n+2, 4@n+4;
// 2-cycle macro-op with MOP(1,3): MOP@n (1@n, 3@n+1), {2,4}@n+2.
func TestFigure5Timing(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		// Atomic (base).
		{
			s := NewBit(testCfg(config.SchedBase))
			i1 := alu(s)
			i2 := load(s, i1)
			i3 := alu(s, i1)
			i4 := alu(s, i3)
			g := drive(s, 20, func(gr Grant) {
				if gr.Entry == i2 {
					s.SetLoadResult(i2, 0, gr.Cycle+3, gr.Cycle+6)
				}
			})
			if g[i1][0] != 1 || g[i2][0] != 2 || g[i3][0] != 2 || g[i4][0] != 3 {
				t.Fatalf("atomic: 1@%d 2@%d 3@%d 4@%d, want 1,2,2,3",
					g[i1][0], g[i2][0], g[i3][0], g[i4][0])
			}
		}
		// 2-cycle.
		{
			s := NewBit(testCfg(config.SchedTwoCycle))
			i1 := alu(s)
			i2 := load(s, i1)
			i3 := alu(s, i1)
			i4 := alu(s, i3)
			g := drive(s, 20, func(gr Grant) {
				if gr.Entry == i2 {
					s.SetLoadResult(i2, 0, gr.Cycle+3, gr.Cycle+6)
				}
			})
			if g[i1][0] != 1 || g[i2][0] != 3 || g[i3][0] != 3 || g[i4][0] != 5 {
				t.Fatalf("2-cycle: 1@%d 2@%d 3@%d 4@%d, want 1,3,3,5",
					g[i1][0], g[i2][0], g[i3][0], g[i4][0])
			}
		}
		// 2-cycle macro-op: MOP(1,3) fused; 2 and 4 single.
		{
			s := NewBit(testCfg(config.SchedMOP))
			mop := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil, true)
			i2 := load(s, mop) // consumer of the head's value
			s.AttachTail(mop, OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil)
			i4 := alu(s, mop) // consumer of the tail's value (same single tag)
			g := drive(s, 20, func(gr Grant) {
				if gr.Entry == i2 {
					s.SetLoadResult(i2, 0, gr.Cycle+3, gr.Cycle+6)
				}
			})
			if g[mop][0] != 1 || g[mop][1] != 2 {
				t.Fatalf("MOP sequenced at %d,%d, want 1,2", g[mop][0], g[mop][1])
			}
			if g[i2][0] != 3 || g[i4][0] != 3 {
				t.Fatalf("MOP consumers at %d,%d, want 3,3 (select at n+2)", g[i2][0], g[i4][0])
			}
		}
	})
}

func TestMOPTailBlocksIssueSlot(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		// A sequencing MOP occupies its issue slot in the next cycle: with
		// width 4, a MOP plus 4 ready singles leave only 3 slots next cycle.
		cfg := testCfg(config.SchedMOP)
		s := NewBit(cfg)
		mop := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil, true)
		s.AttachTail(mop, OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil)
		singles := make([]*Entry, 7)
		for i := range singles {
			singles[i] = alu(s)
		}
		perCycle := map[int64]int{}
		for c := int64(1); c <= 5; c++ {
			perCycle[c] = len(s.Tick(c))
		}
		// Cycle 1: MOP head + 3 singles. Cycle 2: tail (carry) + 3 more
		// singles = 4 grants but one is the tail. Cycle 3: last single.
		if perCycle[1] != 4 || perCycle[2] != 4 || perCycle[3] != 1 {
			t.Fatalf("per-cycle grants: %v", perCycle)
		}
	})
}

func TestFUContention(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedBase))
		for i := 0; i < 3; i++ {
			load(s)
		}
		g1 := s.Tick(1)
		if len(g1) != 2 {
			t.Fatalf("2 memory ports, got %d grants", len(g1))
		}
		g2 := s.Tick(2)
		if len(g2) != 1 {
			t.Fatalf("leftover load: %d grants", len(g2))
		}
	})
}

func TestWidthLimit(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedBase))
		// 6 ALU ready, width 4 (and 4 ALUs): 4 then 2.
		for i := 0; i < 6; i++ {
			alu(s)
		}
		if n := len(s.Tick(1)); n != 4 {
			t.Fatalf("width violation: %d", n)
		}
		if n := len(s.Tick(2)); n != 2 {
			t.Fatalf("leftovers: %d", n)
		}
	})
}

func TestOldestFirstSelection(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedBase))
		var es []*Entry
		for i := 0; i < 6; i++ {
			es = append(es, alu(s))
		}
		g := s.Tick(1)
		for i := 0; i < 4; i++ {
			if g[i].Entry != es[i] {
				t.Fatalf("grant %d went to a younger entry", i)
			}
		}
	})
}

func TestLoadMissSelectiveReplay(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedBase))
		ld := load(s)
		c1 := alu(s, ld) // direct consumer
		c2 := alu(s, c1) // transitive consumer
		grants := map[*Entry][]int64{}
		for c := int64(1); c <= 80; c++ {
			for _, g := range s.Tick(c) {
				grants[g.Entry] = append(grants[g.Entry], g.Cycle)
				if g.Entry == ld && len(grants[ld]) == 1 {
					// Miss: data at cycle 1+50; discovered at 1+6.
					s.SetLoadResult(ld, 0, 51, 7)
				}
			}
		}
		if len(grants[c1]) < 2 {
			t.Fatalf("shadow consumer not replayed: grants %v", grants[c1])
		}
		if g := grants[c1][len(grants[c1])-1]; g < 51 {
			t.Fatalf("consumer reissued at %d, before data at 51", g)
		}
		if g := grants[c2][len(grants[c2])-1]; g < 52 {
			t.Fatalf("transitive consumer reissued at %d", g)
		}
		if !c1.Final() || !c2.Final() || !ld.Final() {
			t.Fatal("entries not finalized after replay settles")
		}
		if s.Stats().Replays == 0 {
			t.Fatal("replays not counted")
		}
	})
}

func TestLoadHitNoReplay(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedBase))
		ld := load(s)
		c1 := alu(s, ld)
		replays0 := s.Stats().Replays
		for c := int64(1); c <= 20; c++ {
			for _, g := range s.Tick(c) {
				if g.Entry == ld {
					s.SetLoadResult(ld, 0, g.Cycle+3, g.Cycle+6) // hit: actual == assumed
				}
			}
		}
		if s.Stats().Replays != replays0 {
			t.Fatal("hit caused replays")
		}
		if c1.Grant() != 4 {
			t.Fatalf("consumer granted at %d, want 4 (load@1 + 3)", c1.Grant())
		}
	})
}

func TestConsumerAfterMissDiscoveryWaits(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		// A consumer inserted after the miss is known must not issue early.
		s := NewBit(testCfg(config.SchedBase))
		ld := load(s)
		var c1 *Entry
		for c := int64(1); c <= 80; c++ {
			for _, g := range s.Tick(c) {
				if g.Entry == ld && c1 == nil {
					s.SetLoadResult(ld, 0, 51, 7)
				}
			}
			if c == 10 && c1 == nil {
				c1 = alu(s, ld) // inserted mid-shadow
			}
		}
		if c1.Grant() < 51 {
			t.Fatalf("late consumer granted at %d, before data", c1.Grant())
		}
	})
}

func TestPendingTailGating(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedMOP))
		head := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil, true)
		if g := s.Tick(1); len(g) != 0 {
			t.Fatal("pending head issued before its tail arrived")
		}
		s.AttachTail(head, OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil)
		if g := s.Tick(2); len(g) != 1 || g[0].Entry != head {
			t.Fatal("completed MOP did not issue")
		}
	})
}

func TestCancelTailDemotion(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedMOP))
		head := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil, true)
		s.Tick(1)
		s.CancelTail(head)
		if g := s.Tick(2); len(g) != 1 || g[0].Entry.IsMOP() {
			t.Fatal("demoted head did not issue as a single")
		}
	})
}

func TestIQOccupancyAndRelease(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		cfg := testCfg(config.SchedBase)
		cfg.IQEntries = 4
		s := NewBit(cfg)
		for i := 0; i < 4; i++ {
			alu(s)
		}
		if s.HasSpace(1) {
			t.Fatal("full queue reports space")
		}
		s.Tick(1) // all four issue; simple ALUs finalize immediately
		if !s.HasSpace(4) {
			t.Fatalf("entries not released: occupied %d", s.Occupied())
		}
	})
}

func TestUnrestrictedQueue(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		cfg := testCfg(config.SchedBase) // IQEntries 0
		cfg.Window = 1000                // the live age span of 1000 inserts
		s := NewBit(cfg)
		for i := 0; i < 1000; i++ {
			alu(s)
		}
		if !s.HasSpace(1000) {
			t.Fatal("unrestricted queue reported full")
		}
	})
}

func TestSelectFreeCollisionSquashDep(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedSelectFreeSquashDep))
		// 5 ready ALUs, width 4: one collision victim.
		var es []*Entry
		for i := 0; i < 5; i++ {
			es = append(es, alu(s))
		}
		victimChild := alu(s, es[4]) // child of the future victim
		g1 := s.Tick(1)
		if len(g1) != 4 {
			t.Fatalf("grants at 1: %d", len(g1))
		}
		if s.Stats().CollisionVict != 1 {
			t.Fatalf("collision victims: %d", s.Stats().CollisionVict)
		}
		for c := int64(2); c <= 10; c++ {
			s.Tick(c)
		}
		// Victim granted at 2; squashed child re-woken at grant+L+1 = 4.
		if victimChild.Grant() != 4 {
			t.Fatalf("squashed child granted at %d, want 4 (rebroadcast penalty)", victimChild.Grant())
		}
	})
}

func TestSelectFreeNoCollisionMatchesBase(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		// Without contention, squash-dep times exactly like base.
		for _, model := range []config.SchedModel{config.SchedBase, config.SchedSelectFreeSquashDep} {
			s := NewBit(testCfg(model))
			a := alu(s)
			b := alu(s, a)
			c := alu(s, b)
			drive(s, 10, nil)
			if a.Grant() != 1 || b.Grant() != 2 || c.Grant() != 3 {
				t.Fatalf("%v: chain at %d,%d,%d, want 1,2,3", model, a.Grant(), b.Grant(), c.Grant())
			}
		}
	})
}

func TestScoreboardPileup(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		s := NewBit(testCfg(config.SchedSelectFreeScoreboard))
		// Create contention: 6 ready ALUs (2 collision victims), with a
		// dependence chain hanging off a victim. Children wake speculatively,
		// issue invalidly, and replay as pileup victims.
		var es []*Entry
		for i := 0; i < 6; i++ {
			es = append(es, alu(s))
		}
		child := alu(s, es[5])
		grand := alu(s, child)
		drive(s, 30, nil)
		if s.Stats().CollisionVict == 0 {
			t.Fatal("no collision victims under contention")
		}
		if !child.Final() || !grand.Final() {
			t.Fatal("pileup chain never settled")
		}
		// Timing must still be correct in the end: child after parent.
		if child.Grant() < es[5].Grant()+1 || grand.Grant() < child.Grant()+1 {
			t.Fatalf("pileup settled with invalid timing: %d %d %d",
				es[5].Grant(), child.Grant(), grand.Grant())
		}
	})
}

func TestMOPConsumerOfHeadAndTail(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		// Figure 5's property: tail consumers run back-to-back with the tail,
		// head consumers behave like 2-cycle scheduling.
		s := NewBit(testCfg(config.SchedMOP))
		mop := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil, true)
		s.AttachTail(mop, OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil)
		cons := alu(s, mop)
		g := drive(s, 10, nil)
		if g[mop][0] != 1 || g[mop][1] != 2 || cons.Grant() != 3 {
			t.Fatalf("MOP@%d/%d consumer@%d, want 1/2/3", g[mop][0], g[mop][1], cons.Grant())
		}
		// The tail executed at cycle 2 with latency 1: the consumer at cycle
		// 3 is back-to-back. ActualReady confirms correctness.
		if mop.ActualReady(1) != 3 {
			t.Fatalf("tail result at %d, want 3", mop.ActualReady(1))
		}
	})
}

func TestMultiCycleOpsUnaffectedByTwoCycle(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		// MUL (3 cycles): consumers issue at g+3 under both base and 2-cycle
		// (multi-cycle latencies hide the pipelined scheduling bubble).
		for _, model := range []config.SchedModel{config.SchedBase, config.SchedTwoCycle} {
			s := NewBit(testCfg(model))
			m := s.Insert(OpInfo{FU: isa.ClassIntMul, Latency: 3}, nil, false)
			c := alu(s, m)
			drive(s, 10, nil)
			if c.Grant() != m.Grant()+3 {
				t.Fatalf("%v: MUL consumer at %d (MUL at %d)", model, c.Grant(), m.Grant())
			}
		}
	})
}

// TestRandomDAGInvariants drives random dependence DAGs through every
// model and checks the fundamental invariants: every entry finalizes, and
// no entry's final grant precedes the actual availability of its operands.
func TestRandomDAGInvariants(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		models := []config.SchedModel{
			config.SchedBase, config.SchedTwoCycle, config.SchedMOP,
			config.SchedSelectFreeSquashDep, config.SchedSelectFreeScoreboard,
		}
		r := rng.New(77)
		for trial := 0; trial < 20; trial++ {
			for _, model := range models {
				cfg := testCfg(model)
				cfg.IQEntries = 16
				s := NewBit(cfg)
				var entries []*Entry
				var prods [][]*Entry // prods[i]: entry i's producers
				insertOne := func() {
					var sp []SrcSpec
					var ps []*Entry
					for k := 0; k < 2 && len(entries) > 0; k++ {
						if r.Bool(0.6) {
							p := entries[r.Intn(len(entries))]
							sp = append(sp, SrcSpec{Prod: p})
							ps = append(ps, p)
						}
					}
					var e *Entry
					if r.Bool(0.25) {
						e = s.Insert(OpInfo{FU: isa.ClassMem, Latency: 3, IsLoad: true}, sp, false)
					} else {
						e = s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, sp, false)
					}
					entries = append(entries, e)
					prods = append(prods, ps)
				}
				total := 60 + r.Intn(60)
				made := 0
				for c := int64(1); c < 100000; c++ {
					for made < total && s.HasSpace(1) && r.Bool(0.8) {
						insertOne()
						made++
					}
					for _, g := range s.Tick(c) {
						e := g.Entry
						if e.Op(g.OpIdx).IsLoad && g.OpIdx == 0 {
							if s.OperandsValid(e) {
								extra := int64(0)
								if r.Bool(0.3) {
									extra = int64(10 + r.Intn(100))
								}
								s.SetLoadResult(e, 0, g.Cycle+3+extra, g.Cycle+6)
							}
						}
					}
					done := true
					for _, e := range entries {
						if !e.Final() {
							done = false
							break
						}
					}
					if made == total && done {
						break
					}
				}
				for i, e := range entries {
					if !e.Final() {
						t.Fatalf("trial %d %v: entry %d never finalized", trial, model, i)
					}
				}
				for i, e := range entries {
					for _, p := range prods[i] {
						if e.Grant() < p.ActualReady(0) {
							t.Fatalf("trial %d %v: entry %d's final grant %d precedes its operand, ready at %d",
								trial, model, i, e.Grant(), p.ActualReady(0))
						}
					}
				}
			}
		}
	})
}
