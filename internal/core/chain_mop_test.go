package core

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/workload"
	"macroop/internal/workload/workloadtest"
)

// TestChainedMOPSerialChain checks the future-work extension: with
// MaxMOPSize = 4 a serial single-cycle chain groups four instructions per
// entry, restoring back-to-back execution under pipelined scheduling and
// quartering queue pressure.
func TestChainedMOPSerialChain(t *testing.T) {
	p := loopProgram("chain", func(b *program2) {
		for i := 0; i < 16; i++ {
			b.OpImm(isa.ADDI, 8, 8, 1)
		}
	})
	mk := func(size int) config.Machine {
		mc := config.DefaultMOP()
		mc.MaxMOPSize = size
		mc.ExtraFormationStages = 0
		return config.Unrestricted().WithMOP(mc)
	}
	two := runProg(t, mk(2), p, 60000)
	four := runProg(t, mk(4), p, 60000)
	// Pure chains run at ~1 IPC under any MOP size (an N-op MOP takes N
	// cycles); the chained win is queue entries, not throughput, so only
	// near-parity is required here.
	if four.IPC < two.IPC*0.90 {
		t.Fatalf("4x MOPs (%.3f) much worse than 2x (%.3f) on a serial chain", four.IPC, two.IPC)
	}
	if four.InsertReduction() < two.InsertReduction()+0.15 {
		t.Fatalf("4x insert reduction %.2f vs 2x %.2f: chaining not reducing entries",
			four.InsertReduction(), two.InsertReduction())
	}
	if four.GroupedFrac() < 0.8 {
		t.Fatalf("4x grouping %.2f", four.GroupedFrac())
	}
}

// TestChainedMOPOnBenchmark sanity-checks chained MOPs on a full
// benchmark: correctness (completes, committed count) and monotone insert
// reduction.
func TestChainedMOPOnBenchmark(t *testing.T) {
	prof, _ := workload.ByName("gap")
	prog := workloadtest.Generate(t, prof)
	var prevRed float64
	for _, size := range []int{2, 3, 4} {
		mc := config.DefaultMOP()
		mc.MaxMOPSize = size
		res := runProg(t, config.Default().WithMOP(mc), prog, 40000)
		if res.Committed < 40000 {
			t.Fatalf("size %d: committed %d", size, res.Committed)
		}
		if res.InsertReduction() < prevRed-0.02 {
			t.Fatalf("size %d: insert reduction %.3f dropped from %.3f",
				size, res.InsertReduction(), prevRed)
		}
		prevRed = res.InsertReduction()
	}
}

func TestChainedMOPConfigValidation(t *testing.T) {
	mc := config.DefaultMOP()
	mc.MaxMOPSize = 3
	mc.Wakeup = config.WakeupCAM2Src
	m := config.Default().WithMOP(mc)
	if err := m.Validate(); err == nil {
		t.Fatal("chained MOPs with CAM wakeup accepted")
	}
	mc.MaxMOPSize = 5
	mc.Wakeup = config.WakeupWiredOR
	if err := config.Default().WithMOP(mc).Validate(); err == nil {
		t.Fatal("MOP size 5 accepted")
	}
}
