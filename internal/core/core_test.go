package core

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/program"
	"macroop/internal/workload"
	"macroop/internal/workload/workloadtest"
)

// loopProgram builds a loop whose body is produced by fill, running
// effectively forever (the simulator bounds by instruction count).
type program2 = program.Builder

func loopProgram(name string, fill func(b *program2)) *program.Program {
	b := program.NewBuilder(name)
	b.MovI(7, 1<<40)
	b.Label("top")
	fill(b)
	b.OpImm(isa.ADDI, 7, 7, -1)
	b.Branch(isa.BNE, 7, isa.R0, "top")
	b.Halt()
	return b.MustBuild()
}

func runProg(t *testing.T, m config.Machine, p *program.Program, n int64) *Result {
	t.Helper()
	c, err := New(m, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeterminism(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	prog := workloadtest.Generate(t, prof)
	m := config.Default().WithMOP(config.DefaultMOP())
	a := runProg(t, m, prog, 50000)
	b := runProg(t, m, prog, 50000)
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.MOPsFormed != b.MOPsFormed {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d cycles/insts", a.Cycles, a.Committed, b.Cycles, b.Committed)
	}
}

// TestRunResultIsACopy checks that a Result returned by Run is the
// caller's own value: running the same core further must not change it.
// Callers such as the service's result cache keep these pointers, and a
// view into the core would keep the whole core reachable.
func TestRunResultIsACopy(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	prog := workloadtest.Generate(t, prof)
	c, err := New(config.Default().WithMOP(config.DefaultMOP()), prog)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	snap := *first
	second, err := c.Run(40000)
	if err != nil {
		t.Fatal(err)
	}
	if *first != snap {
		t.Fatalf("Run(20000)'s result changed when the core ran on: %d insts / %d cycles, was %d / %d",
			first.Committed, first.Cycles, snap.Committed, snap.Cycles)
	}
	if second.Committed <= snap.Committed {
		t.Fatalf("second Run committed %d, want more than %d", second.Committed, snap.Committed)
	}
}

func TestIndependentStreamNearWidth(t *testing.T) {
	// 16 fully independent single-cycle ops per iteration: IPC should
	// approach the 4-wide limit (taken loop branch breaks fetch groups,
	// so somewhat below 4).
	p := loopProgram("indep", func(b *program.Builder) {
		for i := 0; i < 16; i++ {
			b.OpImm(isa.ADDI, isa.Reg(8+i), isa.Reg(8+i), 1)
		}
	})
	res := runProg(t, config.Unrestricted(), p, 100000)
	if res.IPC < 3.0 {
		t.Fatalf("independent stream IPC %.2f, want > 3", res.IPC)
	}
}

func TestSerialChainModels(t *testing.T) {
	// One serial chain: base ~1 IPC of chain ops, 2-cycle ~0.5, MOP back
	// to ~1 once pointers warm up.
	p := loopProgram("chain", func(b *program.Builder) {
		for i := 0; i < 16; i++ {
			b.OpImm(isa.ADDI, 8, 8, 1)
		}
	})
	base := runProg(t, config.Unrestricted().WithSched(config.SchedBase), p, 60000)
	two := runProg(t, config.Unrestricted().WithSched(config.SchedTwoCycle), p, 60000)
	mc := config.DefaultMOP()
	mc.ExtraFormationStages = 0
	mop := runProg(t, config.Unrestricted().WithMOP(mc), p, 60000)
	if base.IPC < 0.93 || base.IPC > 1.15 {
		t.Fatalf("base chain IPC %.3f, want ~1", base.IPC)
	}
	if two.IPC < 0.46 || two.IPC > 0.60 {
		t.Fatalf("2-cycle chain IPC %.3f, want ~0.5", two.IPC)
	}
	if mop.IPC < 0.90*base.IPC {
		t.Fatalf("MOP chain IPC %.3f vs base %.3f: fusion did not restore back-to-back", mop.IPC, base.IPC)
	}
	if mop.GroupedFrac() < 0.8 {
		t.Fatalf("chain grouping %.2f, want > 0.8", mop.GroupedFrac())
	}
}

func TestMispredictionCost(t *testing.T) {
	// Same loop with a predictable vs data-random conditional branch.
	predictable := loopProgram("pred", func(b *program.Builder) {
		for i := 0; i < 6; i++ {
			b.OpImm(isa.ADDI, isa.Reg(8+i), isa.Reg(8+i), 1)
		}
		b.Branch(isa.BNE, isa.R0, isa.R0, "top") // never taken
	})
	noisy := loopProgram("noisy", func(b *program.Builder) {
		// LCG in r1; branch on a high bit.
		b.MovI(2, 0x5851f42d)
		b.Op3(isa.MUL, 1, 1, 2)
		b.OpImm(isa.ADDI, 1, 1, 0x2545)
		b.MovI(3, 33)
		b.Op3(isa.SRL, 4, 1, 3)
		b.OpImm(isa.AND, 5, 4, 0) // keep structure similar
		b.Op3(isa.SLT, 5, isa.R0, 4)
		b.Emit(isa.Instruction{Op: isa.AND, Dest: 5, Src1: 4, Src2: isa.NoReg})
		b.Branch(isa.BNE, 5, isa.R0, "skip")
		b.OpImm(isa.ADDI, 8, 8, 1)
		b.Label("skip")
	})
	_ = noisy
	resP := runProg(t, config.Default(), predictable, 50000)
	if rate := resP.BranchMispredictRate(); rate > 0.001 {
		t.Fatalf("predictable loop mispredict rate %.4f", rate)
	}
}

func TestRandomBranchMispredictsAndStalls(t *testing.T) {
	// A branch on LCG bit 40: ~50% taken, unpredictable; IPC must be far
	// below the predictable equivalent and mispredicts near 50% of the
	// branch count.
	mk := func(noisy bool) *program.Program {
		return loopProgram("b", func(b *program.Builder) {
			b.MovI(2, 0x5851f42d4c957f2d)
			b.MovI(3, 40)
			b.Op3(isa.MUL, 1, 1, 2)
			b.OpImm(isa.ADDI, 1, 1, 0x2545)
			b.Op3(isa.SRL, 4, 1, 3)
			b.MovI(5, 1)
			b.Op3(isa.AND, 4, 4, 5)
			if noisy {
				b.Branch(isa.BNE, 4, isa.R0, "skip")
			} else {
				b.Branch(isa.BNE, isa.R0, isa.R0, "skip")
			}
			b.OpImm(isa.ADDI, 8, 8, 1)
			b.OpImm(isa.ADDI, 9, 9, 1)
			b.Label("skip")
		})
	}
	noisy := runProg(t, config.Default(), mk(true), 50000)
	calm := runProg(t, config.Default(), mk(false), 50000)
	if noisy.IPC > 0.8*calm.IPC {
		t.Fatalf("random branch cost invisible: %.3f vs %.3f", noisy.IPC, calm.IPC)
	}
	// gshare learns part of the LCG's linear bit structure, so the rate
	// lands well below 50%; it must still be far above a predictable loop.
	if noisy.CondBranches == 0 ||
		float64(noisy.CondBranches-noisy.CondCorrect)/float64(noisy.CondBranches) < 0.12 {
		t.Fatalf("random branch mispredict rate too low: %d/%d", noisy.CondCorrect, noisy.CondBranches)
	}
}

func TestLoadMissesSlowDown(t *testing.T) {
	// Pointer-chase-free strided loads over footprints below vs far above
	// the cache sizes.
	mk := func(foot int64) *program.Program {
		b := program.NewBuilder("mem")
		b.MovI(7, 1<<40)
		b.MovI(4, (foot-1) & ^int64(7))
		b.MovI(5, 0)
		b.MovI(6, 4096+264)
		b.Label("top")
		for i := 0; i < 4; i++ {
			b.Load(isa.Reg(8+i), 5, int64(i)*512)
		}
		b.Op3(isa.ADD, 5, 5, 6)
		b.Op3(isa.AND, 5, 5, 4)
		b.OpImm(isa.ADDI, 7, 7, -1)
		b.Branch(isa.BNE, 7, isa.R0, "top")
		b.Halt()
		return b.MustBuild()
	}
	small := runProg(t, config.Default(), mk(8*1024), 60000)
	big := runProg(t, config.Default(), mk(16*1024*1024), 60000)
	if big.IPC > 0.75*small.IPC {
		t.Fatalf("memory-bound program not slower: %.3f vs %.3f (dl1 miss %.3f vs %.3f)",
			big.IPC, small.IPC, big.DL1MissRate, small.DL1MissRate)
	}
	if big.DL1MissRate < 5*small.DL1MissRate {
		t.Fatalf("footprint did not change miss rate: %.3f vs %.3f", big.DL1MissRate, small.DL1MissRate)
	}
}

func TestReplaysHappenOnMisses(t *testing.T) {
	p := loopProgram("replay", func(b *program.Builder) {
		b.MovI(4, 16*1024*1024-8)
		b.MovI(6, 4096+520)
		b.Load(8, 5, 0)
		b.OpImm(isa.ADDI, 9, 8, 1) // dependent on the load: shadow victim
		b.OpImm(isa.ADDI, 10, 9, 1)
		b.Op3(isa.ADD, 5, 5, 6)
		b.Op3(isa.AND, 5, 5, 4)
	})
	res := runProg(t, config.Default(), p, 50000)
	if res.SchedStats.Replays == 0 {
		t.Fatal("no selective replays despite missing loads with dependents")
	}
}

func TestStoreCommitAndDataDependence(t *testing.T) {
	// A store whose data comes from a long-latency DIV must not block the
	// machine, and the program must complete.
	p := loopProgram("store", func(b *program.Builder) {
		b.MovI(2, 3)
		b.Op3(isa.DIV, 8, 2, 2)
		b.Store(8, 5, 64)
		b.Load(9, 5, 64)
	})
	res := runProg(t, config.Default(), p, 30000)
	if res.IPC <= 0 {
		t.Fatal("store/div loop made no progress")
	}
}

func TestMOPGroupingOnFusablePattern(t *testing.T) {
	// Compare-branch pairs: the classic fusable idiom.
	p := loopProgram("cmpbr", func(b *program.Builder) {
		for i := 0; i < 4; i++ {
			b.OpImm(isa.ADDI, isa.Reg(8+i), isa.Reg(8+i), 3)
			b.Op3(isa.SLT, isa.Reg(12+i), isa.R0, isa.Reg(8+i))
			b.Branch(isa.BNE, isa.Reg(12+i), isa.R0, "skip")
		}
		b.Label("skip")
	})
	mc := config.DefaultMOP()
	res := runProg(t, config.Default().WithMOP(mc), p, 50000)
	if res.GroupedFrac() < 0.5 {
		t.Fatalf("compare-branch grouping %.2f, want > 0.5", res.GroupedFrac())
	}
	if res.NonValueGenGrouped == 0 {
		t.Fatal("no non-value-generating (branch) tails grouped")
	}
}

func TestAllModelsAllBenchmarksSmall(t *testing.T) {
	models := []config.SchedModel{
		config.SchedBase, config.SchedTwoCycle, config.SchedMOP,
		config.SchedSelectFreeSquashDep, config.SchedSelectFreeScoreboard,
	}
	for _, prof := range workload.Profiles() {
		prog := workloadtest.Generate(t, prof)
		var baseIPC float64
		for _, m := range models {
			res := runProg(t, config.Default().WithSched(m), prog, 8000)
			if res.Committed < 8000 {
				t.Fatalf("%s/%v: committed %d", prof.Name, m, res.Committed)
			}
			if res.IPC <= 0 || res.IPC > 4 {
				t.Fatalf("%s/%v: IPC %.3f out of range", prof.Name, m, res.IPC)
			}
			if m == config.SchedBase {
				baseIPC = res.IPC
			}
			if m == config.SchedTwoCycle && res.IPC > baseIPC*1.02 {
				t.Fatalf("%s: 2-cycle (%.3f) beat base (%.3f)", prof.Name, res.IPC, baseIPC)
			}
			if m != config.SchedMOP && res.GroupedFrac() != 0 {
				t.Fatalf("%s/%v: grouping outside MOP mode", prof.Name, m)
			}
		}
	}
}

func TestIQSmallerIsSlower(t *testing.T) {
	prof, _ := workload.ByName("gap")
	prog := workloadtest.Generate(t, prof)
	small := runProg(t, config.Default().WithIQ(8), prog, 40000)
	big := runProg(t, config.Default().WithIQ(64), prog, 40000)
	if small.IPC >= big.IPC {
		t.Fatalf("8-entry queue (%.3f) not slower than 64-entry (%.3f)", small.IPC, big.IPC)
	}
}

func TestMOPEffectiveWindow(t *testing.T) {
	// Under a tight queue, MOP scheduling must beat the base scheduler
	// (two instructions per entry = bigger effective window), the paper's
	// Figure 15 headline.
	prof, _ := workload.ByName("gap")
	prog := workloadtest.Generate(t, prof)
	base := runProg(t, config.Default().WithIQ(12).WithSched(config.SchedBase), prog, 60000)
	mop := runProg(t, config.Default().WithIQ(12).WithMOP(config.DefaultMOP()), prog, 60000)
	if mop.IPC <= base.IPC {
		t.Fatalf("MOP (%.3f) did not beat base (%.3f) at IQ=12", mop.IPC, base.IPC)
	}
}

func TestProgramEndsDrainPipeline(t *testing.T) {
	b := program.NewBuilder("tiny")
	b.MovI(1, 5)
	b.OpImm(isa.ADDI, 2, 1, 1)
	b.Halt()
	p := b.MustBuild()
	res := runProg(t, config.Default(), p, 1000000)
	if res.Committed != 2 {
		t.Fatalf("committed %d, want 2 then halt", res.Committed)
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	prog := workloadtest.Generate(t, prof)
	m := config.Default()
	m.Width = 0
	if _, err := New(m, prog); err == nil {
		t.Fatal("invalid machine accepted")
	}
}

func TestExtraFormationStagesCost(t *testing.T) {
	prof, _ := workload.ByName("parser")
	prog := workloadtest.Generate(t, prof)
	mk := func(stages int) float64 {
		mc := config.DefaultMOP()
		mc.ExtraFormationStages = stages
		return runProg(t, config.Default().WithMOP(mc), prog, 40000).IPC
	}
	if s0, s2 := mk(0), mk(2); s2 > s0*1.02 {
		t.Fatalf("2 extra stages (%.3f) not costlier than 0 (%.3f)", s2, s0)
	}
}
