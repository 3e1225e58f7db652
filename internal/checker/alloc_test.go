package checker_test

import (
	"testing"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/workload/workloadtest"
)

// TestCheckedStepAllocFree extends core's TestStepAllocFree to checked
// runs: with a checker attached, once the pools, the checker's entry
// table and the reference model's memory pages are warm, stepping the
// pipeline allocates nothing for any of the five scheduler models.
func TestCheckedStepAllocFree(t *testing.T) {
	camMOP := config.DefaultMOP()
	camMOP.Wakeup = config.WakeupCAM2Src
	worMOP := config.DefaultMOP()
	worMOP.Wakeup = config.WakeupWiredOR
	prog := workloadtest.ByName(t, "gzip")
	for name, m := range map[string]config.Machine{
		"baseline":     config.Default(),
		"two-cycle":    config.Default().WithSched(config.SchedTwoCycle),
		"mop-cam":      config.Default().WithMOP(camMOP),
		"mop-wired-or": config.Default().WithMOP(worMOP),
		"select-free":  config.Default().WithSched(config.SchedSelectFreeScoreboard),
	} {
		t.Run(name, func(t *testing.T) {
			c, err := core.New(m, prog)
			if err != nil {
				t.Fatal(err)
			}
			k := checker.New(prog, m.IQEntries, 0)
			c.SetHooks(k)
			if _, err := c.Run(30_000); err != nil {
				t.Fatal(err)
			}
			var stepErr error
			avg := testing.AllocsPerRun(50, func() {
				if _, err := c.StepCycles(200); err != nil && stepErr == nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatalf("checked stepping failed: %v", stepErr)
			}
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per 200 checked cycles in steady state, want 0", name, avg)
			}
			if k.Commits() <= 30_000 {
				t.Errorf("checker saw only %d commits", k.Commits())
			}
		})
	}
}
