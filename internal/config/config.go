// Package config defines the machine and scheduler configurations used by
// the simulator. Default values reproduce Table 1 of the paper and the
// scheduler configurations of Section 6.2.
package config

import (
	"fmt"

	"macroop/internal/branch"
	"macroop/internal/cache"
)

// SchedModel selects the instruction scheduling logic (Section 6.2).
type SchedModel int

// Scheduler models evaluated in the paper.
const (
	// SchedBase is "base scheduling": ideally pipelined scheduling logic,
	// conceptually equivalent to atomic (1-cycle wakeup+select) scheduling
	// with one extra pipeline stage. All results are normalized to it.
	SchedBase SchedModel = iota
	// SchedTwoCycle pipelines wakeup and select into separate cycles,
	// leaving a one-cycle bubble between a single-cycle instruction and
	// its dependents.
	SchedTwoCycle
	// SchedMOP is macro-op scheduling built on 2-cycle scheduling logic.
	SchedMOP
	// SchedSelectFreeSquashDep is select-free scheduling, Squash Dep
	// select-4 configuration of Brown et al. [8].
	SchedSelectFreeSquashDep
	// SchedSelectFreeScoreboard is select-free scheduling, Scoreboard
	// select-4 configuration of Brown et al. [8].
	SchedSelectFreeScoreboard
)

// String names the model as in the paper's figures.
func (m SchedModel) String() string {
	switch m {
	case SchedBase:
		return "base"
	case SchedTwoCycle:
		return "2-cycle"
	case SchedMOP:
		return "macro-op"
	case SchedSelectFreeSquashDep:
		return "select-free-squash-dep"
	case SchedSelectFreeScoreboard:
		return "select-free-scoreboard"
	}
	return fmt.Sprintf("sched(%d)", int(m))
}

// WakeupStyle selects the wakeup array style for macro-op scheduling
// (Section 2.2): CAM-style with two source comparators, or wired-OR-style
// dependence vectors with no source-count restriction.
type WakeupStyle int

// Wakeup array styles.
const (
	WakeupCAM2Src WakeupStyle = iota
	WakeupWiredOR
)

// String names the style as in Figure 13 ("2-src" / "wired-OR").
func (w WakeupStyle) String() string {
	if w == WakeupCAM2Src {
		return "2-src"
	}
	return "wired-OR"
}

// MOPConfig parameterizes macro-op detection and formation.
type MOPConfig struct {
	// Wakeup selects CAM-2src (union of MOP sources limited to two) or
	// wired-OR (unlimited).
	Wakeup WakeupStyle
	// ScopeGroups is the detection scope in rename groups; 2 groups of a
	// 4-wide machine give the paper's 8-instruction scope.
	ScopeGroups int
	// MaxMOPSize is the number of instructions groupable into one MOP.
	// The paper evaluates 2; larger values enable the "future work"
	// chained-MOP extension (see internal/mop).
	MaxMOPSize int
	// ExtraFormationStages models extra pipeline depth for MOP formation
	// (0, 1 or 2 in Figure 15).
	ExtraFormationStages int
	// DetectionDelay is the latency in cycles from examining dependences
	// to MOP pointers becoming visible (3 optimistic, 100 pessimistic in
	// Section 6.2).
	DetectionDelay int
	// GroupIndependent enables independent-MOP pairing (Section 5.4.1).
	GroupIndependent bool
	// LastArrivingFilter enables deletion of MOP pointers whose tail
	// operand arrives last (Section 5.4.2).
	LastArrivingFilter bool
	// PreciseCycleDetection replaces the conservative heuristic of
	// Section 5.1.1 with full transitive cycle detection (used to measure
	// the >90% coverage claim; much more expensive in hardware).
	PreciseCycleDetection bool
}

// DefaultMOP returns the configuration used for the paper's main results:
// wired-OR wakeup, 2x MOPs over an 8-instruction (2-group) scope, 1 extra
// formation stage, 3-cycle detection delay, independent MOPs and the
// last-arriving filter enabled.
func DefaultMOP() MOPConfig {
	return MOPConfig{
		Wakeup:               WakeupWiredOR,
		ScopeGroups:          2,
		MaxMOPSize:           2,
		ExtraFormationStages: 1,
		DetectionDelay:       3,
		GroupIndependent:     true,
		LastArrivingFilter:   true,
	}
}

// MaxMOPWindow is the largest MOP detection window, ScopeGroups × Width
// instructions, that the detector holds: its window keeps one 64-bit mask
// per instruction property.
const MaxMOPWindow = 64

// Machine is the full machine configuration (Table 1).
type Machine struct {
	// Width is fetch/issue/commit width (4 in Table 1).
	Width int
	// ROBEntries is the reorder buffer size (128).
	ROBEntries int
	// IQEntries is the unified issue queue size; <= 0 means unrestricted
	// (the paper's "unrestricted" configuration).
	IQEntries int
	// Functional unit counts (Table 1).
	IntALUs, IntMuls, FPALUs, FPMuls, MemPorts int
	// ReplayPenalty is the selective scheduling-replay penalty in cycles.
	ReplayPenalty int
	// FetchBufEntries bounds the fetch/decode buffer between the fetch
	// stage and queue insertion (fetch stalls when it is full).
	FetchBufEntries int
	// FrontLatency is the number of front-end stages between fetch and
	// queue insertion (Fetch, Decode, Rename, Rename, Queue → insert
	// visible 5 cycles after fetch), before any extra MOP formation
	// stages.
	FrontLatency int
	// ExecOffset is the number of stages between select and execute
	// (Disp, Disp, RF, RF → execute 5 cycles after issue, Figure 2).
	ExecOffset int
	// MinBranchPenalty is the minimum misprediction recovery time
	// (Table 1: at least 14 cycles).
	MinBranchPenalty int

	// WatchdogCycles is the forward-progress watchdog window: if no
	// instruction commits for this many consecutive cycles, the run
	// aborts with a typed deadlock error and a pipeline state dump.
	// 0 means DefaultWatchdogCycles; negative disables the watchdog.
	WatchdogCycles int
	// ReplayStormLimit is the per-entry scheduling-replay count above
	// which the scheduler reports a livelock (0 = the scheduler's
	// built-in default of 10000).
	ReplayStormLimit int

	Sched SchedModel
	MOP   MOPConfig

	Branch branch.Config
	Mem    cache.HierarchyConfig
}

// Default returns Table 1's machine with the base scheduler and a 32-entry
// issue queue.
func Default() Machine {
	return Machine{
		Width:            4,
		ROBEntries:       128,
		IQEntries:        32,
		IntALUs:          4,
		IntMuls:          2,
		FPALUs:           2,
		FPMuls:           2,
		MemPorts:         2,
		ReplayPenalty:    2,
		FetchBufEntries:  32,
		FrontLatency:     5,
		ExecOffset:       5,
		MinBranchPenalty: 14,
		Sched:            SchedBase,
		MOP:              DefaultMOP(),
		Branch:           branch.DefaultConfig(),
		Mem: cache.HierarchyConfig{
			IL1:        cache.Config{Name: "IL1", SizeBytes: 16 * 1024, Assoc: 2, LineBytes: 64, Latency: 2},
			DL1:        cache.Config{Name: "DL1", SizeBytes: 16 * 1024, Assoc: 4, LineBytes: 64, Latency: 2},
			L2:         cache.Config{Name: "L2", SizeBytes: 256 * 1024, Assoc: 4, LineBytes: 128, Latency: 8},
			MemLatency: 100,
		},
	}
}

// Unrestricted returns the machine with an effectively unlimited issue
// queue (the paper's "unrestricted" configuration keeps the 128-entry ROB,
// which then bounds the window).
func Unrestricted() Machine {
	m := Default()
	m.IQEntries = 0
	return m
}

// Validate checks configuration consistency.
func (m Machine) Validate() error {
	switch {
	case m.Width <= 0:
		return fmt.Errorf("config: non-positive width")
	case m.ROBEntries < m.Width:
		return fmt.Errorf("config: ROB smaller than machine width")
	case m.IQEntries < 0:
		return fmt.Errorf("config: negative issue queue size")
	case m.IntALUs <= 0 || m.MemPorts <= 0:
		return fmt.Errorf("config: need at least one ALU and one memory port")
	case m.FetchBufEntries < m.Width:
		return fmt.Errorf("config: fetch buffer smaller than machine width")
	case m.ReplayPenalty < 0 || m.FrontLatency < 1 || m.ExecOffset < 0:
		return fmt.Errorf("config: invalid pipeline latencies")
	case m.MOP.MaxMOPSize < 2 || m.MOP.MaxMOPSize > 8:
		return fmt.Errorf("config: MOP size must be between 2 and 8")
	case m.MOP.MaxMOPSize > 2 && m.MOP.Wakeup != WakeupWiredOR:
		return fmt.Errorf("config: chained MOPs (size > 2) require wired-OR wakeup (a 2-comparator CAM cannot track the source union)")
	case m.MOP.ScopeGroups < 1:
		return fmt.Errorf("config: MOP scope must be at least one group")
	case m.Sched == SchedMOP && m.MOP.ScopeGroups*m.Width > MaxMOPWindow:
		return fmt.Errorf("config: MOP scope of %d groups × width %d exceeds the %d-instruction detection window", m.MOP.ScopeGroups, m.Width, MaxMOPWindow)
	case m.MOP.DetectionDelay < 0 || m.MOP.ExtraFormationStages < 0:
		return fmt.Errorf("config: negative MOP latencies")
	}
	for _, c := range []cache.Config{m.Mem.IL1, m.Mem.DL1, m.Mem.L2} {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("config: %w", err)
		}
	}
	if err := m.Branch.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}

// DefaultWatchdogCycles is the no-commit window used when WatchdogCycles
// is zero. The longest legitimate commit gap is one full-ROB drain of
// serialized memory-latency misses (≈128 × ~110 cycles); the default
// keeps comfortably above it.
const DefaultWatchdogCycles = 50_000

// EffectiveWatchdog resolves the watchdog window: the configured value,
// the default when 0, or 0 (disabled) when negative.
func (m Machine) EffectiveWatchdog() int64 {
	switch {
	case m.WatchdogCycles < 0:
		return 0
	case m.WatchdogCycles == 0:
		return DefaultWatchdogCycles
	}
	return int64(m.WatchdogCycles)
}

// WithWatchdog returns a copy with the given watchdog window
// (0 = default, negative = disabled).
func (m Machine) WithWatchdog(cycles int) Machine {
	m.WatchdogCycles = cycles
	return m
}

// FUCount returns the number of functional units of the given class.
func (m Machine) FUCount(class int) int {
	switch class {
	case 0:
		return m.IntALUs
	case 1:
		return m.IntMuls
	case 2:
		return m.FPALUs
	case 3:
		return m.FPMuls
	case 4:
		return m.MemPorts
	}
	return m.Width // ClassNone — no constraint beyond width
}

// WithSched returns a copy using the given scheduler model.
func (m Machine) WithSched(s SchedModel) Machine {
	m.Sched = s
	return m
}

// WithIQ returns a copy with the given issue queue size (0 = unrestricted).
func (m Machine) WithIQ(entries int) Machine {
	m.IQEntries = entries
	return m
}

// WithMOP returns a copy using macro-op scheduling with the given MOP
// configuration.
func (m Machine) WithMOP(mop MOPConfig) Machine {
	m.Sched = SchedMOP
	m.MOP = mop
	return m
}
