package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"macroop/internal/config"
	"macroop/internal/optsched"
)

// TestGapTableGolden locks the rendered gap table on a small, fast,
// fully deterministic slice of the pipeline: three benchmarks, three
// 16-uop windows each, 48 uops apart so they sample past the
// register-initialisation prologue, and a node budget ample enough to
// prove optimality. Any drift — a kernel timing change, a solver change,
// a rendering change — shows up as a golden diff to be reviewed (and
// regenerated with -update if intended). The windows must also exercise
// the scheduling loop the paper is about: a golden in which no
// benchmark separates 2-cycle from base and macro-op is rejected.
func TestGapTableGolden(t *testing.T) {
	r := NewRunner(0)
	rep, err := r.Gap(context.Background(), []string{"gzip", "mcf", "vortex"},
		config.Default(), optsched.GapSpec{Window: 16, Stride: 48, MaxWindows: 3, NodeBudget: 50_000})
	if err != nil {
		t.Fatalf("Gap: %v", err)
	}
	if v := rep.Violations(); v != 0 {
		t.Fatalf("%d admissibility violations", v)
	}
	if opt, total := rep.OptimalWindows(); total != 9 || opt != total {
		t.Fatalf("optimal windows %d/%d, want 9/9 at this budget", opt, total)
	}
	separates := false
	for _, b := range rep.Benches {
		base, two, mop := b.Heur[config.SchedBase.String()], b.Heur[config.SchedTwoCycle.String()], b.Heur[config.SchedMOP.String()]
		if two > base && mop < two {
			separates = true
		}
	}
	if !separates {
		t.Fatal("no benchmark shows 2-cycle > base and macro-op < 2-cycle: the windows miss the scheduling-loop bubble")
	}
	got := GapTable(rep).String()

	golden := filepath.Join("testdata", "gap.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("gap table drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
