package checker_test

import (
	"strings"
	"testing"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/functional"
	"macroop/internal/program"
	"macroop/internal/workload"
)

func genBench(t *testing.T, name string) *program.Program {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	p, err := workload.Generate(prof)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return p
}

func mopMachine() config.Machine {
	return config.Default().WithMOP(config.DefaultMOP())
}

// TestCheckerCleanRun: a healthy core passes the oracle, cross-checking
// every commit, and the checksum is reproducible.
func TestCheckerCleanRun(t *testing.T) {
	prog := genBench(t, "gzip")
	res, sum, err := checker.CheckedRun(mopMachine(), prog, 20_000, 20_000)
	if err != nil {
		t.Fatalf("checked run: %v", err)
	}
	if sum.Commits != res.Committed {
		t.Errorf("checker saw %d commits, core reports %d", sum.Commits, res.Committed)
	}
	if sum.Commits < 20_000 {
		t.Errorf("checked only %d commits, want >= 20000", sum.Commits)
	}
	_, sum2, err := checker.CheckedRun(mopMachine(), genBench(t, "gzip"), 20_000, 20_000)
	if err != nil {
		t.Fatalf("second checked run: %v", err)
	}
	if sum.Checksum != sum2.Checksum {
		t.Errorf("checksum not reproducible: %016x vs %016x", sum.Checksum, sum2.Checksum)
	}
}

// TestCheckerDetectsInjectedFault proves the oracle is not vacuous: a
// core fed a deliberately corrupted dynamic stream (one wrong-value
// commit) must be rejected, under both the base and MOP schedulers.
func TestCheckerDetectsInjectedFault(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    config.Machine
	}{
		{"base", config.Default().WithSched(config.SchedBase)},
		{"mop", mopMachine()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := genBench(t, "gzip")
			src := &checker.CorruptSource{Src: functional.NewExecutor(prog), At: 5_000}
			c, err := core.NewFromSource(tc.m, prog.Name, src)
			if err != nil {
				t.Fatalf("core: %v", err)
			}
			c.SetHooks(checker.New(prog, tc.m.IQEntries, 0))
			_, err = c.Run(20_000)
			if err == nil {
				t.Fatal("corrupted commit stream passed the checker")
			}
			if !strings.Contains(err.Error(), "diverged") {
				t.Errorf("error does not name the divergence: %v", err)
			}
		})
	}
}

// TestCheckerDetectsWrongALUValue pins the fault injection on a concrete
// hand-written program: the corrupted instruction is an immediate ALU op,
// so the committed destination value is architecturally wrong.
func TestCheckerDetectsWrongALUValue(t *testing.T) {
	prog := program.MustAssemble("alu", `
	        movi  r1, 1000
	loop:   addi  r2, r2, 3
	        addi  r1, r1, -1
	        bne   r1, r0, loop
	        halt
	`)
	src := &checker.CorruptSource{Src: functional.NewExecutor(prog), At: 10}
	m := config.Default()
	c, err := core.NewFromSource(m, prog.Name, src)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	c.SetHooks(checker.New(prog, m.IQEntries, 0))
	if _, err = c.Run(1_000); err == nil {
		t.Fatal("wrong-value ALU commit passed the checker")
	} else if !strings.Contains(err.Error(), "instruction diverged") {
		t.Errorf("want instruction divergence, got: %v", err)
	}
}

// TestCheckerRejectsSkippedCommit: a source that silently drops one
// instruction must trip the sequence-order invariant.
func TestCheckerRejectsSkippedCommit(t *testing.T) {
	prog := genBench(t, "gzip")
	src := &skipSource{src: functional.NewExecutor(prog), at: 3_000}
	m := config.Default()
	c, err := core.NewFromSource(m, prog.Name, src)
	if err != nil {
		t.Fatalf("core: %v", err)
	}
	c.SetHooks(checker.New(prog, m.IQEntries, 0))
	if _, err = c.Run(10_000); err == nil {
		t.Fatal("a skipped instruction passed the checker")
	}
}

// skipSource drops the dynamic instruction with Seq == at (taking care to
// drop a whole fused pair if it lands on an STA, so the core's store
// fusion still sees well-formed input).
type skipSource struct {
	src  functional.Source
	at   int64
	done bool
}

func (s *skipSource) Step(d *functional.DynInst) error {
	if err := s.src.Step(d); err != nil {
		return err
	}
	if !s.done && d.Seq >= s.at && !d.Inst.Op.IsControl() && !d.Inst.Op.IsStore() {
		s.done = true
		return s.src.Step(d)
	}
	return nil
}

// TestChainedMOPRespectsQueueCapacity: a chain member whose link fails the
// transitive cycle check is inserted on its own, and so must wait for a
// free issue queue entry like any other instruction. Each cell here
// refuses chain links while its queue is full within its first few
// thousand commits, so a member inserted without a free entry overflows
// the queue and the checker's occupancy invariant fails the run.
func TestChainedMOPRespectsQueueCapacity(t *testing.T) {
	cells := []struct {
		bench    string
		size, iq int
	}{
		{"gzip", 4, 16},
		{"gap", 4, 4},
		{"twolf", 3, 32},
	}
	for _, c := range cells {
		mc := config.DefaultMOP()
		mc.MaxMOPSize = c.size
		m := config.Default().WithMOP(mc).WithIQ(c.iq)
		res, _, err := checker.CheckedRun(m, genBench(t, c.bench), 10_000, 10_000)
		if err != nil {
			t.Errorf("%s %dx iq%d: %v", c.bench, c.size, c.iq, err)
			continue
		}
		if res.FormCycleAborts == 0 {
			t.Errorf("%s %dx iq%d: no chain link was refused, so the cell no longer covers the demoted-member path",
				c.bench, c.size, c.iq)
		}
	}
}
