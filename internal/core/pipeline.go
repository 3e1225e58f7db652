package core

import (
	"context"
	"runtime/debug"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/program"
	"macroop/internal/sched"
	"macroop/internal/simerr"
)

// New builds a core over prog with an embedded functional reference
// stream.
func New(cfg config.Machine, prog *program.Program) (*Core, error) {
	return NewFromSource(cfg, prog.Name, functional.NewExecutor(prog))
}

// SetTracer attaches t to receive per-uop stage events. Pass nil to
// detach. Tracing is off the hot path: with no tracer the per-event cost
// is a nil check.
func (c *Core) SetTracer(t Tracer) { c.tracer = t }

// SetHooks attaches h to receive issue/commit/MOP-formation/cycle
// events. Pass nil to detach.
func (c *Core) SetHooks(h Hooks) { c.hooks = h }

// SetStageAccounting toggles per-stage wall-time accounting. When on,
// every cycle brackets each pipeline stage with monotonic clock reads —
// roughly doubling the cost of a cycle — so throughput measurement and
// stage attribution should run in separate legs. Toggling resets the
// accumulated breakdown.
func (c *Core) SetStageAccounting(on bool) {
	if on {
		c.clock = &stageClock{}
	} else {
		c.clock = nil
	}
}

// StageBreakdown returns the per-stage time split accumulated since
// stage accounting was last enabled. Zero value if accounting is off.
func (c *Core) StageBreakdown() StageBreakdown {
	if c.clock == nil {
		return StageBreakdown{}
	}
	return c.clock.breakdown()
}

// Scheduler exposes the core's scheduler for diagnostic and
// fault-injection use (internal/fault). Mutating it mid-run changes
// simulated timing.
func (c *Core) Scheduler() *sched.BitScheduler { return c.sch }

// Progress reports the machine's cumulative cycle and committed-
// instruction counters. Unlike Result, which is refreshed only when a
// Run returns, these are live — callers interleaving StepCycles with
// timed Run legs use them to delimit measurement windows.
func (c *Core) Progress() (cycles, committed int64) { return c.cycle, c.cnt.committed }

// Run simulates until maxInsts instructions commit (or the program ends)
// and returns the results.
func (c *Core) Run(maxInsts int64) (*Result, error) {
	return c.RunContext(context.Background(), maxInsts)
}

// ctxPollCycles is how often RunContext polls the context for
// cancellation. 1024 cycles keeps the check off the per-cycle hot path
// while bounding the response latency to well under a millisecond of
// wall time.
const ctxPollCycles = 1024

// RunContext simulates until maxInsts instructions commit, the program
// ends, ctx is cancelled, or the machine stops making forward progress.
//
// Every abnormal outcome is a typed error from internal/simerr:
//
//   - ErrCancelled when ctx is cancelled (checked every ctxPollCycles);
//   - ErrDeadlock when no instruction commits within the watchdog window
//     (config.Machine.WatchdogCycles), with a pipeline state dump;
//   - ErrLivelock when a scheduler entry exceeds the replay-storm limit;
//   - ErrCheckFailed when an attached verification hook rejects a commit;
//   - ErrInternal for residual panics, recovered here so a simulator bug
//     in one run cannot take down the whole process.
func (c *Core) RunContext(ctx context.Context, maxInsts int64) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(*simerr.InternalError); ok {
				// Typed panic from a subsystem: keep its context if set,
				// fill ours in where missing.
				if ie.Ctx == (simerr.Context{}) {
					ie.Ctx = c.errCtx()
				} else {
					c.fillCtx(&ie.Ctx)
				}
				res, err = nil, ie
				return
			}
			res, err = nil, simerr.Internal(c.errCtx(), r, string(debug.Stack()))
		}
	}()
	// An already-expired context stops the run before cycle 0 — without
	// this, a cancelled sweep cell would still burn a full poll window
	// (ctxPollCycles cycles) before noticing.
	if cerr := ctx.Err(); cerr != nil {
		return nil, simerr.Cancelled(c.errCtx(), cerr)
	}
	maxCycles := maxInsts * 1000
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	watchdog := c.cfg.EffectiveWatchdog()
	cycle, committed := c.Progress()
	lastCommitCycle := cycle
	lastCommitted := committed
	nextPoll := cycle + ctxPollCycles
	for committed < maxInsts {
		if c.drained() {
			break // program ended and pipeline drained
		}
		c.step()
		cycle, committed = c.Progress()
		if rerr := c.runErr(); rerr != nil {
			return nil, rerr
		}
		if serr := c.sch.Err(); serr != nil {
			if se, ok := serr.(*simerr.Error); ok {
				c.fillCtx(&se.Ctx)
			}
			return nil, serr
		}
		if committed > lastCommitted {
			lastCommitted = committed
			lastCommitCycle = cycle
		} else if watchdog > 0 && cycle-lastCommitCycle > watchdog {
			return nil, simerr.Deadlock(c.errCtx(), c.stateDump(),
				"no commit for %d cycles (watchdog window %d)",
				cycle-lastCommitCycle, watchdog)
		}
		if cycle >= nextPoll {
			nextPoll = cycle + ctxPollCycles
			if cerr := ctx.Err(); cerr != nil {
				return nil, simerr.Cancelled(c.errCtx(), cerr)
			}
		}
		if cycle > maxCycles {
			return nil, simerr.Deadlock(c.errCtx(), c.stateDump(),
				"exceeded cycle budget %d for %d insts", maxCycles, maxInsts)
		}
	}
	return c.finishStats(), nil
}

// StepCycles advances the machine by exactly n cycles (or until the
// program ends and the pipeline drains), regardless of how many
// instructions commit. It exists for steady-state measurement — a caller
// that has already warmed the core can bracket a StepCycles window with
// runtime.ReadMemStats to attribute allocations to the cycle loop alone,
// excluding one-time costs like lazy memory-page growth during the rest
// of the run. Returns the number of cycles actually stepped.
func (c *Core) StepCycles(n int64) (int64, error) {
	var stepped int64
	for ; stepped < n; stepped++ {
		if c.drained() {
			break
		}
		c.step()
		if rerr := c.runErr(); rerr != nil {
			return stepped, rerr
		}
		if serr := c.sch.Err(); serr != nil {
			return stepped, serr
		}
	}
	return stepped, nil
}
