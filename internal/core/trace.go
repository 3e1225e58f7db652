package core

import (
	"fmt"
	"strings"
)

// Stage identifies a pipeline event for tracing.
type Stage uint8

// Traced pipeline stages.
const (
	StageFetch Stage = iota
	StageInsert
	StageIssue
	StageCommit
)

// Tracer observes per-instruction pipeline events. Tracing is passive:
// it never affects timing.
type Tracer interface {
	// Event reports that the instruction with the given dynamic sequence
	// number reached a stage at a cycle. Issue may fire multiple times
	// for one instruction (scheduling replays); the last one stands.
	Event(seq int64, pc int, text string, stage Stage, cycle int64)
}

func (c *Core) trace(u *uop, stage Stage, cycle int64) {
	if c.tracer == nil {
		return
	}
	c.tracer.Event(u.d.Seq, u.d.PC, u.d.Inst.String(), stage, cycle)
}

// Timeline is a bounded Tracer that renders a per-instruction pipeline
// table: fetch, queue-insert, (final) issue and commit cycles, with MOP
// fusion visible as shared issue cycles.
type Timeline struct {
	Limit int // maximum number of instructions recorded

	rows map[int64]*timelineRow
	seqs []int64
}

type timelineRow struct {
	pc     int
	text   string
	cycles [4]int64
	issues int
}

// NewTimeline returns a Timeline recording the first limit instructions.
func NewTimeline(limit int) *Timeline {
	return &Timeline{Limit: limit, rows: make(map[int64]*timelineRow)}
}

// Event implements Tracer.
func (t *Timeline) Event(seq int64, pc int, text string, stage Stage, cycle int64) {
	r, ok := t.rows[seq]
	if !ok {
		if len(t.seqs) >= t.Limit {
			return
		}
		r = &timelineRow{pc: pc, text: text, cycles: [4]int64{-1, -1, -1, -1}}
		t.rows[seq] = r
		t.seqs = append(t.seqs, seq)
	}
	r.cycles[stage] = cycle
	if stage == StageIssue {
		r.issues++
	}
}

// String renders the recorded timeline.
func (t *Timeline) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %5s  %-24s %7s %7s %7s %7s %s\n",
		"seq", "pc", "instruction", "fetch", "insert", "issue", "commit", "")
	for _, seq := range t.seqs {
		r := t.rows[seq]
		note := ""
		if r.issues > 1 {
			note = fmt.Sprintf("(replayed x%d)", r.issues-1)
		}
		fmt.Fprintf(&b, "%5d %5d  %-24s %7s %7s %7s %7s %s\n",
			seq, r.pc, r.text,
			cyc(r.cycles[StageFetch]), cyc(r.cycles[StageInsert]),
			cyc(r.cycles[StageIssue]), cyc(r.cycles[StageCommit]), note)
	}
	return b.String()
}

// IssueCycle returns the final issue cycle of the seq-th instruction (-1
// if never recorded); useful for timing assertions in tests.
func (t *Timeline) IssueCycle(seq int64) int64 {
	if r, ok := t.rows[seq]; ok {
		return r.cycles[StageIssue]
	}
	return -1
}

// CommitCycle returns the commit cycle of the seq-th instruction.
func (t *Timeline) CommitCycle(seq int64) int64 {
	if r, ok := t.rows[seq]; ok {
		return r.cycles[StageCommit]
	}
	return -1
}

func cyc(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprint(v)
}
