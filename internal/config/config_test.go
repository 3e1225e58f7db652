package config

import (
	"strings"
	"testing"

	"macroop/internal/isa"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Unrestricted().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	m := Default()
	if m.Width != 4 || m.ROBEntries != 128 || m.IQEntries != 32 {
		t.Error("core sizing diverges from Table 1")
	}
	if m.IntALUs != 4 || m.IntMuls != 2 || m.MemPorts != 2 {
		t.Error("FU counts diverge from Table 1")
	}
	if m.Mem.IL1.SizeBytes != 16*1024 || m.Mem.IL1.Assoc != 2 || m.Mem.IL1.Latency != 2 {
		t.Error("IL1 diverges from Table 1")
	}
	if m.Mem.DL1.Assoc != 4 || m.Mem.L2.SizeBytes != 256*1024 || m.Mem.L2.LineBytes != 128 {
		t.Error("DL1/L2 diverge from Table 1")
	}
	if m.Mem.MemLatency != 100 || m.MinBranchPenalty != 14 || m.ReplayPenalty != 2 {
		t.Error("latencies diverge from Table 1")
	}
	if m.Branch.BimodalEntries != 4096 || m.Branch.RASEntries != 16 || m.Branch.BTBEntries != 1024 {
		t.Error("predictor diverges from Table 1")
	}
}

func TestWithHelpersCopy(t *testing.T) {
	m := Default()
	m2 := m.WithSched(SchedTwoCycle).WithIQ(0)
	if m.Sched != SchedBase || m.IQEntries != 32 {
		t.Fatal("With helpers mutated the receiver")
	}
	if m2.Sched != SchedTwoCycle || m2.IQEntries != 0 {
		t.Fatal("With helpers lost changes")
	}
	mc := DefaultMOP()
	mc.Wakeup = WakeupCAM2Src
	m3 := m.WithMOP(mc)
	if m3.Sched != SchedMOP || m3.MOP.Wakeup != WakeupCAM2Src {
		t.Fatal("WithMOP wrong")
	}
}

func TestValidationRejections(t *testing.T) {
	cases := []struct {
		mutate func(*Machine)
		want   string
	}{
		{func(m *Machine) { m.Width = 0 }, "width"},
		{func(m *Machine) { m.ROBEntries = 2 }, "ROB"},
		{func(m *Machine) { m.IQEntries = -1 }, "queue"},
		{func(m *Machine) { m.IntALUs = 0 }, "ALU"},
		{func(m *Machine) { m.FetchBufEntries = 1 }, "fetch buffer"},
		{func(m *Machine) { m.FrontLatency = 0 }, "latencies"},
		{func(m *Machine) { m.MOP.MaxMOPSize = 1 }, "MOP size"},
		{func(m *Machine) { m.MOP.ScopeGroups = 0 }, "scope"},
		{func(m *Machine) { m.Sched = SchedMOP; m.MOP.ScopeGroups = 9; m.Width = 8 }, "9 groups × width 8"},
		{func(m *Machine) { m.MOP.DetectionDelay = -1 }, "negative"},
		{func(m *Machine) { m.Mem.DL1.LineBytes = 60 }, "cache"},
	}
	for i, c := range cases {
		m := Default()
		c.mutate(&m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: err = %v, want substring %q", i, err, c.want)
		}
	}
}

func TestFUCount(t *testing.T) {
	m := Default()
	if m.FUCount(int(isa.ClassIntALU)) != 4 || m.FUCount(int(isa.ClassMem)) != 2 {
		t.Fatal("FUCount mapping wrong")
	}
	if m.FUCount(int(isa.ClassNone)) != m.Width {
		t.Fatal("ClassNone must be width-bounded only")
	}
}

func TestStringers(t *testing.T) {
	names := map[SchedModel]string{
		SchedBase: "base", SchedTwoCycle: "2-cycle", SchedMOP: "macro-op",
		SchedSelectFreeSquashDep: "select-free-squash-dep", SchedSelectFreeScoreboard: "select-free-scoreboard",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d renders %q", m, m.String())
		}
	}
	if WakeupCAM2Src.String() != "2-src" || WakeupWiredOR.String() != "wired-OR" {
		t.Error("wakeup style names wrong")
	}
}

func TestDefaultMOPMatchesPaper(t *testing.T) {
	mc := DefaultMOP()
	if mc.ScopeGroups != 2 || mc.MaxMOPSize != 2 || mc.DetectionDelay != 3 {
		t.Error("MOP defaults diverge from Section 6.2")
	}
	if !mc.GroupIndependent || !mc.LastArrivingFilter {
		t.Error("Sections 5.4.1/5.4.2 mechanisms must default on")
	}
}
