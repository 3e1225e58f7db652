package core

import (
	"fmt"
	"testing"

	"macroop/internal/config"
	"macroop/internal/workload"
)

// BenchmarkCycleLoop measures the steady-state cost of one pipeline cycle
// (commit+issue+insert+fetch) per scheduler model, with allocations
// reported so a regression in the zero-alloc property shows up as
// allocs/op > 0.
func BenchmarkCycleLoop(b *testing.B) {
	prof, err := workload.ByName("gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := workload.Generate(prof)
	if err != nil {
		b.Fatal(err)
	}
	for name, m := range map[string]config.Machine{
		"base": config.Default(),
		"mop":  config.Default().WithMOP(config.DefaultMOP()),
	} {
		b.Run(name, func(b *testing.B) {
			c, err := New(m, prog)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := c.Run(30_000); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.step()
			}
			b.StopTimer()
			if err := c.runErr(); err != nil {
				b.Fatalf("stepping failed: %v", err)
			}
			cycles, committed := c.Progress()
			if cycles > 0 {
				b.ReportMetric(float64(committed)/float64(cycles), "insts/cycle")
			}
			_ = fmt.Sprintf("%d", committed) // keep the counter live
		})
	}
}
