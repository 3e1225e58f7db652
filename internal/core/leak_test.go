package core

import (
	"runtime"
	"testing"

	"macroop/internal/config"
	"macroop/internal/sched"
	"macroop/internal/workload"
	"macroop/internal/workload/workloadtest"
)

// TestBoundedRetention guards against dependence-graph memory leaks: after
// a long run, the number of scheduler entries reachable from the core's
// live structures must be bounded by the machine window, not by the
// instruction count (regression test for the consumer-list accretion bug).
func TestBoundedRetention(t *testing.T) {
	p, _ := workload.ByName("bzip")
	prog := workloadtest.Generate(t, p)
	for _, m := range []config.Machine{
		config.Default(),
		config.Default().WithMOP(config.DefaultMOP()),
		config.Default().WithSched(config.SchedSelectFreeScoreboard),
	} {
		c, err := New(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(200000); err != nil {
			t.Fatal(err)
		}
		if n := reachableEntries(c); n > 5000 {
			t.Fatalf("%v: %d entries reachable after 200k insts (leak)", m.Sched, n)
		}
	}
}

// TestRetainedHeapBounded is the byte-level version of the same guard.
func TestRetainedHeapBounded(t *testing.T) {
	p, _ := workload.ByName("gzip")
	prog := workloadtest.Generate(t, p)
	c, _ := New(config.Default(), prog)
	if _, err := c.Run(400000); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(c)
	if ms.HeapAlloc > 64<<20 {
		t.Fatalf("retained heap %d MB after 400k insts", ms.HeapAlloc>>20)
	}
}

// reachableEntries counts distinct scheduler entries reachable through
// any reference chain from the core's live structures.
func reachableEntries(c *Core) int {
	seenE := map[*sched.Entry]bool{}
	seenU := map[*uop]bool{}
	var queueE []*sched.Entry
	var queueU []*uop
	addE := func(e *sched.Entry) {
		if e != nil && !seenE[e] {
			seenE[e] = true
			queueE = append(queueE, e)
		}
	}
	addU := func(u *uop) {
		if u != nil && !seenU[u] {
			seenU[u] = true
			queueU = append(queueU, u)
		}
	}
	for _, u := range c.ring {
		addU(u)
	}
	for _, u := range c.rob {
		addU(u)
	}
	for i := 0; i < c.feqLen; i++ {
		addU(c.feq[(c.feqHead+i)%len(c.feq)])
	}
	for _, pr := range c.rename {
		addE(pr.entry)
	}
	for _, e := range c.sch.DebugActive() {
		addE(e)
	}
	for len(queueE) > 0 || len(queueU) > 0 {
		if len(queueE) > 0 {
			e := queueE[0]
			queueE = queueE[1:]
			refs, _ := e.DebugRefs()
			for _, r := range refs {
				addE(r)
			}
			if h, ok := e.UserData.(*uop); ok {
				addU(h)
			}
			continue
		}
		u := queueU[0]
		queueU = queueU[1:]
		addE(u.entry)
		for _, pr := range u.headProds {
			addE(pr.entry)
		}
		for _, pr := range u.tailProds {
			addE(pr.entry)
		}
		addE(u.dataProd.entry)
		addU(u.claimedBy)
		for _, m := range u.members {
			addU(m)
		}
	}
	return len(seenE)
}
