package mop

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/workload/workloadtest"
)

// benchStream returns the first n instructions of a benchmark's
// functional stream as the pointers Observe takes.
func benchStream(tb testing.TB, name string, n int64) []*functional.DynInst {
	tb.Helper()
	insts, err := functional.Run(workloadtest.ByName(tb, name), n)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*functional.DynInst, len(insts))
	for i := range insts {
		out[i] = &insts[i]
	}
	return out
}

// groupFeeder hands a looping stream to a detector width instructions at
// a time, one group per cycle.
type groupFeeder struct {
	det    *Detector
	stream []*functional.DynInst
	width  int
	pos    int
	cycle  int64
}

func (f *groupFeeder) next() {
	end := f.pos + f.width
	if end > len(f.stream) {
		end = len(f.stream)
	}
	f.det.Observe(f.cycle, f.stream[f.pos:end])
	f.cycle++
	if f.pos = end; f.pos == len(f.stream) {
		f.pos = 0
	}
}

// TestObserveAllocFree asserts that once a detector has seen its stream,
// Observe allocates nothing, on the windows core's TestStepAllocFree
// does not reach: 16 slots (an 8-wide machine's two groups), a 3-group
// scope, 4x MOPs and precise cycle detection.
func TestObserveAllocFree(t *testing.T) {
	stream := benchStream(t, "gzip", 20_000)
	cases := []struct {
		name  string
		width int
		edit  func(*config.MOPConfig)
	}{
		{"8-wide", 8, func(*config.MOPConfig) {}},
		{"scope-3", 4, func(c *config.MOPConfig) { c.ScopeGroups = 3 }},
		{"mop-size-4", 4, func(c *config.MOPConfig) { c.MaxMOPSize = 4 }},
		{"precise", 4, func(c *config.MOPConfig) { c.PreciseCycleDetection = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.DefaultMOP()
			tc.edit(&cfg)
			f := &groupFeeder{det: NewDetector(cfg, NewPointerTable()), stream: stream, width: tc.width}
			for range len(stream) / tc.width {
				f.next() // warm-up: every PC the stream installs
			}
			if avg := testing.AllocsPerRun(1000, f.next); avg != 0 {
				t.Errorf("%.2f allocs per Observe in steady state, want 0", avg)
			}
		})
	}
}

// BenchmarkDetectorObserve times Observe on gzip's stream in 4-wide
// groups under wired-OR wakeup: ns/op is per group, and hits/step is
// the fraction of detection steps replayed from the memo.
func BenchmarkDetectorObserve(b *testing.B) {
	stream := benchStream(b, "gzip", 200_000)
	f := &groupFeeder{det: NewDetector(config.DefaultMOP(), NewPointerTable()), stream: stream, width: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.next()
	}
	b.ReportMetric(float64(f.det.hits)/float64(f.det.steps), "hits/step")
}
