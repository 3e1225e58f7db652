// Package fault implements controlled fault injection for the simulator,
// and a campaign runner that proves the verification layers are not
// vacuous: every injected fault must be flagged by the lockstep checker
// (internal/checker) or by the forward-progress watchdog (internal/core),
// as a typed error — never a crash, never a silently wrong result.
//
// Faults come in two surfaces:
//
//   - machine faults perturb real scheduler state through the narrow
//     sched.Fault* API (a dropped wakeup broadcast, a lost selective
//     replay). These starve the machine of forward progress and must be
//     caught by the watchdog as ErrDeadlock;
//   - event faults perturb the hook event stream between the core and
//     the checker (corrupted destination tag, commit-order swap,
//     premature commit, skipped commit) without touching machine state.
//     These must be caught by the checker as ErrCheckFailed.
//
// The injector is core.Hooks middleware: it wraps the real checker, so a
// campaign run exercises exactly the production verification path.
package fault

import (
	"fmt"
	"strings"

	"macroop/internal/core"
	"macroop/internal/functional"
	"macroop/internal/sched"
)

// Kind enumerates the injectable faults.
type Kind int

// The six fault kinds of the campaign.
const (
	// DroppedWakeup deafens one pending source edge in the issue queue:
	// the producer's tag broadcast never reaches the consumer, which
	// therefore never issues. Models a lost wakeup in the CAM/wired-OR
	// array. Expected detector: watchdog (deadlock).
	DroppedWakeup Kind = iota
	// CorruptedDestTag corrupts the issue-queue entry identity on one
	// commit event, as if the destination tag had flipped bits between
	// issue and commit bookkeeping. Expected detector: checker ("commits
	// without ever issuing").
	CorruptedDestTag
	// LostReplay swallows one selective scheduling replay: the invalidly
	// issued op is never re-scheduled, so its entry never finalizes.
	// Expected detector: watchdog (deadlock).
	LostReplay
	// SwappedMOPPair reorders a macro-op pair: under macro-op scheduling
	// the formation report has its member sequence numbers swapped; under
	// the other models (which form no MOPs) two adjacent commit events are
	// delivered in swapped order instead. Expected detector: checker (MOP
	// order violation, or sequence divergence).
	SwappedMOPPair
	// PrematureCommit reports one instruction as committing while its
	// scheduler entry is not final (replay still outstanding). Expected
	// detector: checker.
	PrematureCommit
	// SkippedCommit drops one commit event entirely, as if an instruction
	// retired without the architectural bookkeeping seeing it. Expected
	// detector: checker (sequence divergence on the next commit).
	SkippedCommit

	numKinds
)

// String names the kind (stable; used by the -faults flag and reports).
func (k Kind) String() string {
	switch k {
	case DroppedWakeup:
		return "dropped-wakeup"
	case CorruptedDestTag:
		return "corrupted-dest-tag"
	case LostReplay:
		return "lost-replay"
	case SwappedMOPPair:
		return "swapped-mop-pair"
	case PrematureCommit:
		return "premature-commit"
	case SkippedCommit:
		return "skipped-commit"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Kinds returns all fault kinds in declaration order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// ParseKind resolves a fault name as printed by Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	names := make([]string, 0, numKinds)
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return 0, fmt.Errorf("fault: unknown kind %q (known: %s)", s, strings.Join(names, ", "))
}

// MachineSurface reports whether the kind perturbs real scheduler state
// (detected by the watchdog) rather than the event stream (detected by
// the checker).
func (k Kind) MachineSurface() bool {
	return k == DroppedWakeup || k == LostReplay
}

// Injector is core.Hooks middleware that injects exactly one fault of the
// configured kind once the trigger point is reached, forwarding all
// events (faulted or not) to the wrapped hook set.
type Injector struct {
	kind  Kind
	inner core.Hooks
	sch   *sched.BitScheduler
	// trigger is the number of commits to pass cleanly before injecting.
	trigger int64
	// mopModel selects the formation-report variant of SwappedMOPPair.
	mopModel bool

	commits int64
	fired   bool
	armed   bool // LostReplay: suppression handed to the scheduler

	// held is the buffered commit event for the SwappedMOPPair fallback;
	// heldDyn keeps a stable copy of its dynamic instruction.
	held    *core.CommitEvent
	heldDyn functional.DynInst
}

var _ core.Hooks = (*Injector)(nil)

// NewInjector wraps inner with a single-shot fault of the given kind.
// sch is the scheduler of the core the injector is attached to (needed
// for machine-surface faults; may be nil for event faults). The fault
// arms after trigger commits; mopModel selects the macro-op variant of
// SwappedMOPPair.
func NewInjector(kind Kind, inner core.Hooks, sch *sched.BitScheduler, trigger int64, mopModel bool) *Injector {
	return &Injector{kind: kind, inner: inner, sch: sch, trigger: trigger, mopModel: mopModel}
}

// Fired reports whether the fault has actually been injected. A campaign
// cell whose fault never fired (e.g. LostReplay on a run with no replays
// after the trigger) is inconclusive rather than a detection failure.
func (j *Injector) Fired() bool {
	if j.kind == LostReplay {
		// Armed suppression only becomes a fault when a replay is lost.
		return j.sch != nil && j.sch.FaultReplaySuppressed()
	}
	return j.fired
}

// OnIssue implements core.Hooks.
func (j *Injector) OnIssue(ev *core.IssueEvent) error {
	return j.inner.OnIssue(ev)
}

// OnCycle implements core.Hooks; machine-surface faults are injected here
// because they act on scheduler state, not on any single event.
func (j *Injector) OnCycle(cycle int64, iqOccupied int) error {
	if j.commits >= j.trigger && j.sch != nil {
		switch j.kind {
		case DroppedWakeup:
			if !j.fired {
				// Retry each cycle until the queue holds a waiting entry
				// with a pending wakeup to drop.
				j.fired = j.sch.FaultDeafen()
			}
		case LostReplay:
			if !j.armed {
				j.sch.FaultSuppressReplay()
				j.armed = true
			}
		}
	}
	return j.inner.OnCycle(cycle, iqOccupied)
}

// OnMOPFormed implements core.Hooks; the macro-op variant of
// SwappedMOPPair corrupts the formation report.
func (j *Injector) OnMOPFormed(entryID int64, seqs []int64) error {
	if j.kind == SwappedMOPPair && j.mopModel && !j.fired &&
		j.commits >= j.trigger && len(seqs) >= 2 {
		j.fired = true
		swapped := append([]int64(nil), seqs...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		return j.inner.OnMOPFormed(entryID, swapped)
	}
	return j.inner.OnMOPFormed(entryID, seqs)
}

// OnCommit implements core.Hooks; event-surface faults perturb exactly
// one commit event on its way to the wrapped checker.
func (j *Injector) OnCommit(ev *core.CommitEvent) error {
	j.commits++
	at := !j.fired && j.commits > j.trigger
	switch j.kind {
	case CorruptedDestTag:
		if at {
			j.fired = true
			bad := *ev
			bad.EntryID ^= 1 << 40 // far outside any live entry id
			return j.inner.OnCommit(&bad)
		}
	case PrematureCommit:
		if at {
			j.fired = true
			bad := *ev
			bad.EntryFinal = false
			return j.inner.OnCommit(&bad)
		}
	case SkippedCommit:
		if at {
			j.fired = true
			return nil // swallowed: the checker's reference stream now leads
		}
	case SwappedMOPPair:
		if !j.mopModel {
			if at && j.held == nil {
				// Hold this commit back; deliver the next one first. Copy
				// the event and its dynamic instruction, since the core
				// reuses the backing storage after the hook returns.
				held := *ev
				j.heldDyn = *ev.Dyn
				held.Dyn = &j.heldDyn
				j.held = &held
				return nil
			}
			if j.held != nil {
				j.fired = true
				held := j.held
				j.held = nil
				if err := j.inner.OnCommit(ev); err != nil {
					return err
				}
				return j.inner.OnCommit(held)
			}
		}
	}
	return j.inner.OnCommit(ev)
}
