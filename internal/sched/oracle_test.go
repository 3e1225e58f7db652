package sched

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/isa"
	"macroop/internal/rng"
)

// oracle computes, for a DAG of single-op entries with no structural
// contention (unbounded width and units) and no loads, the earliest cycle
// each node can issue under the base and 2-cycle models:
//
//	base:   issue(n) = max(insert+1, max over deps(issue(d) + L(d)))
//	2cycle: issue(n) = max(insert+1, max over deps(issue(d) + max(L(d),2)))
type oracleNode struct {
	lat  int
	deps []int
}

func oracleIssue(nodes []oracleNode, twoCycle bool) []int64 {
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		t := int64(1) // all inserted at cycle 0, selectable from 1
		for _, d := range n.deps {
			lat := int64(nodes[d].lat)
			if twoCycle && lat < 2 {
				lat = 2
			}
			if v := out[d] + lat; v > t {
				t = v
			}
		}
		out[i] = t
	}
	return out
}

// TestOracleAgreement cross-checks the wakeup/select engine against the
// analytic oracle on random DAGs, with contention disabled (wide machine).
func TestOracleAgreement(t *testing.T) {
	forEachKernel(t, func(t *testing.T, newSched func(Config) Engine) {
		r := rng.New(4242)
		for trial := 0; trial < 40; trial++ {
			n := 10 + r.Intn(40)
			nodes := make([]oracleNode, n)
			for i := range nodes {
				lat := 1
				switch r.Intn(6) {
				case 0:
					lat = 3 // MUL
				case 1:
					lat = 2 // FP add
				}
				nd := oracleNode{lat: lat}
				for k := 0; k < 2; k++ {
					if i > 0 && r.Bool(0.5) {
						nd.deps = append(nd.deps, r.Intn(i))
					}
				}
				nodes[i] = nd
			}
			for _, twoCycle := range []bool{false, true} {
				model := config.SchedBase
				if twoCycle {
					model = config.SchedTwoCycle
				}
				cfg := Config{Model: model, Width: 64, ReplayPenalty: 2}
				for i := range cfg.FU {
					cfg.FU[i] = 64
				}
				s := newSched(cfg)
				entries := make([]*Entry, n)
				for i, nd := range nodes {
					var srcs []SrcSpec
					for _, d := range nd.deps {
						srcs = append(srcs, SrcSpec{Prod: entries[d]})
					}
					fu := isa.ClassIntALU
					entries[i] = s.Insert(OpInfo{FU: fu, Latency: nd.lat}, srcs, false)
				}
				got := make([]int64, n)
				for c := int64(1); c < 500; c++ {
					for _, g := range s.Tick(c) {
						got[indexOf(entries, g.Entry)] = g.Cycle
					}
				}
				want := oracleIssue(nodes, twoCycle)
				for i := range nodes {
					if got[i] != want[i] {
						t.Fatalf("trial %d %v node %d: issued at %d, oracle %d (lat %d deps %v)",
							trial, model, i, got[i], want[i], nodes[i].lat, nodes[i].deps)
					}
				}
			}
		}
	})
}

func indexOf(es []*Entry, e *Entry) int {
	for i, x := range es {
		if x == e {
			return i
		}
	}
	return -1
}
