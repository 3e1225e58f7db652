package sched

import (
	"fmt"
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
)

// benchDrain releases every finalized entry in fifo order and returns the
// still-live tail, keeping the simulated window (and the free list)
// bounded while a benchmark inserts indefinitely.
func benchDrain(s *Scheduler, live []*Entry) []*Entry {
	n := 0
	for _, e := range live {
		if e.Final() {
			s.Release(e)
			continue
		}
		live[n] = e
		n++
	}
	return live[:n]
}

// BenchmarkInsert measures queue insertion (allocation, dependence
// translation, wakeup registration) on a warm free list: a rolling window
// of dependent ALU entries is inserted, ticked, and released.
func BenchmarkInsert(b *testing.B) {
	s := New(testCfg(config.SchedTwoCycle))
	var live []*Entry
	var prev *Entry
	cyc := int64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cyc++
		e := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, []SrcSpec{{Prod: prev}}, false)
		prev = e
		live = append(live, e)
		s.Tick(cyc)
		// A serial chain issues one entry per two cycles; self-pace so the
		// queue holds steady instead of growing with b.N.
		for len(live) >= 32 {
			cyc++
			s.Tick(cyc)
			live = benchDrain(s, live)
		}
	}
}

// BenchmarkWakeup measures tag broadcast: one producer waking a full
// consumer group, driven to finality each round.
func BenchmarkWakeup(b *testing.B) {
	const fanout = 16
	s := New(testCfg(config.SchedTwoCycle))
	cyc := int64(0)
	var live []*Entry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, nil, false)
		live = append(live, p)
		for k := 0; k < fanout; k++ {
			c := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, []SrcSpec{{Prod: p}}, false)
			live = append(live, c)
		}
		// Width 4: the producer plus fanout consumers drain in ~5 selects.
		for t := 0; t < 8; t++ {
			cyc++
			s.Tick(cyc)
		}
		live = benchDrain(s, live)
	}
}

// benchKernelChain measures one kernel draining serial dependence chains
// of length win through an unrestricted queue: all win entries are
// inserted at once, then ticked to finality. The entry-linked kernel
// re-derives readiness for every live entry every cycle (O(win) per
// tick, O(win^2) per chain); the bit kernel only touches entries whose
// state changes, so the gap between the two grows with the window.
func benchKernelChain(b *testing.B, s Engine, win int) {
	cyc := int64(0)
	ents := make([]*Entry, 0, win)
	srcs := make([]SrcSpec, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ents = ents[:0]
		var prev *Entry
		for j := 0; j < win; j++ {
			sp := srcs[:0]
			if prev != nil {
				srcs[0] = SrcSpec{Prod: prev}
				sp = srcs[:1]
			}
			prev = s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, sp, false)
			ents = append(ents, prev)
		}
		for !prev.Final() {
			cyc++
			s.Tick(cyc)
		}
		for _, e := range ents {
			s.Release(e)
		}
	}
	b.ReportMetric(float64(b.N)*float64(win)/b.Elapsed().Seconds()/1e6, "Muops/s")
}

// BenchmarkKernelWindow compares the two kernels' tick cost as the live
// window grows; the uops/sec ratio at each size is the kernel-level
// speedup headline quoted in DESIGN.md section 12.
func BenchmarkKernelWindow(b *testing.B) {
	for _, win := range []int{32, 128, 512, 2048} {
		cfg := Config{Model: config.SchedBase, Width: 4, IQEntries: 0, ReplayPenalty: 2, Window: win}
		for c := range cfg.FU {
			cfg.FU[c] = 4
		}
		b.Run(fmt.Sprintf("entry/win%d", win), func(b *testing.B) {
			benchKernelChain(b, New(cfg), win)
		})
		b.Run(fmt.Sprintf("bitset/win%d", win), func(b *testing.B) {
			benchKernelChain(b, NewBit(cfg), win)
		})
	}
}

// BenchmarkCycleLoopSched measures a bare scheduler tick over a queue
// kept at steady occupancy, isolating the wakeup/select loop from the
// core's fetch and rename stages.
func BenchmarkCycleLoopSched(b *testing.B) {
	s := New(testCfg(config.SchedTwoCycle))
	var live []*Entry
	var prev *Entry
	cyc := int64(0)
	insert := func() {
		e := s.Insert(OpInfo{FU: isa.ClassIntALU, Latency: 1}, []SrcSpec{{Prod: prev}}, false)
		prev = e
		live = append(live, e)
	}
	for i := 0; i < 32; i++ {
		insert()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc++
		s.Tick(cyc)
		if i%2 == 0 {
			insert()
		}
		if len(live) >= 64 {
			live = benchDrain(s, live)
		}
	}
}
