package core

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/workload"
	"macroop/internal/workload/workloadtest"
)

// allocConfigs are the five scheduler configurations whose steady-state
// cycle loop must not allocate (ISSUE 4 acceptance criterion).
func allocConfigs() map[string]config.Machine {
	camMOP := config.DefaultMOP()
	camMOP.Wakeup = config.WakeupCAM2Src
	worMOP := config.DefaultMOP()
	worMOP.Wakeup = config.WakeupWiredOR
	return map[string]config.Machine{
		"baseline":     config.Default(),
		"two-cycle":    config.Default().WithSched(config.SchedTwoCycle),
		"mop-cam":      config.Default().WithMOP(camMOP),
		"mop-wired-or": config.Default().WithMOP(worMOP),
		"select-free":  config.Default().WithSched(config.SchedSelectFreeScoreboard),
	}
}

// TestStepAllocFree asserts that once the pools and scratch buffers are
// warm, driving the pipeline allocates nothing: testing.AllocsPerRun over
// blocks of step() calls must report 0 for every scheduler model.
func TestStepAllocFree(t *testing.T) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := workloadtest.Generate(t, prof)
	for name, m := range allocConfigs() {
		t.Run(name, func(t *testing.T) {
			c, err := New(m, prog)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: grow every pool, ring, and scratch buffer to its
			// steady-state footprint (and fault in the functional model's
			// memory pages).
			if _, err := c.Run(30_000); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(50, func() {
				for i := 0; i < 200; i++ {
					c.step()
				}
			})
			if avg != 0 {
				t.Errorf("%s: %.2f allocs per 200-cycle block in steady state, want 0", name, avg)
			}
			if err := c.runErr(); err != nil {
				t.Fatalf("stepping failed: %v", err)
			}
		})
	}
}
