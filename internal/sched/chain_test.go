package sched

import (
	"fmt"
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
)

func chainIPC(t *testing.T, model config.SchedModel, n int) float64 {
	t.Helper()
	// All n entries are inserted before the first tick, so the live age
	// span is n.
	cfg := Config{Model: model, Width: 4, ReplayPenalty: 2, Window: n}
	for i := range cfg.FU {
		cfg.FU[i] = 4
	}
	s := NewBit(cfg)
	var prev *Entry
	for i := 0; i < n; i++ {
		var srcs []SrcSpec
		if prev != nil {
			srcs = []SrcSpec{{Prod: prev, ProdOp: 0}}
		}
		prev = s.Insert(OpInfo{Seq: int64(i), FU: isa.ClassIntALU, Latency: 1}, srcs, false)
	}
	granted := 0
	var cyc int64
	for cyc = 1; granted < n && cyc < int64(10*n+100); cyc++ {
		granted += len(s.Tick(cyc))
	}
	return float64(n) / float64(cyc)
}

func TestChainThroughput(t *testing.T) {
	onBitKernel(t, func(t *testing.T) {
		for _, m := range []config.SchedModel{config.SchedBase, config.SchedTwoCycle} {
			fmt.Printf("%s %v: chain IPC = %.3f\n", t.Name(), m, chainIPC(t, m, 400))
		}
	})
}
