package checker

import (
	"math/rand/v2"
	"testing"

	"macroop/internal/core"
	"macroop/internal/functional"
	"macroop/internal/program"
	"macroop/internal/sched"
	"macroop/internal/simerr"
)

// mapModel is the checker's bookkeeping for the scheduling, MOP
// atomicity and commit-order invariants as it was first written, over Go
// maps. The entry table must reproduce its every verdict and message.
type mapModel struct {
	name                      string
	inv                       Invariant
	commits, lastSeq, lastCyc int64
	lastIssue                 map[int64]int64   // entryID<<4|opIdx -> last grant cycle
	mop                       map[int64][]int64 // entryID -> formed members
	mopNext                   map[int64]int     // entryID -> next op to commit
}

func newMapModel(name string, inv Invariant) *mapModel {
	return &mapModel{
		name: name, inv: inv, lastSeq: -1, lastCyc: -1,
		lastIssue: map[int64]int64{},
		mop:       map[int64][]int64{},
		mopNext:   map[int64]int{},
	}
}

func (m *mapModel) errorf(format string, args ...any) error {
	ctx := simerr.Context{Benchmark: m.name, Committed: m.commits}
	if m.lastCyc > 0 {
		ctx.Cycle = m.lastCyc
	}
	return simerr.New(simerr.KindCheckFailed, ctx, "commit %d: "+format,
		append([]any{m.commits}, args...)...)
}

func (m *mapModel) OnIssue(ev *core.IssueEvent) error {
	m.lastIssue[ev.EntryID<<4|int64(ev.OpIdx)] = ev.Cycle
	return nil
}

func (m *mapModel) OnMOPFormed(entryID int64, seqs []int64) error {
	if m.inv&InvMOPAtomicity == 0 {
		return nil
	}
	if len(seqs) < 2 {
		return simerr.New(simerr.KindCheckFailed, simerr.Context{Benchmark: m.name},
			"entry %d formed a MOP with %d member(s)", entryID, len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return simerr.New(simerr.KindCheckFailed, simerr.Context{Benchmark: m.name},
				"entry %d MOP members out of program order: %v", entryID, seqs)
		}
	}
	m.mop[entryID] = append([]int64(nil), seqs...)
	return nil
}

func (m *mapModel) OnCommit(ev *core.CommitEvent) error {
	d := ev.Dyn
	if m.inv&InvCommitOrder != 0 {
		if d.Seq <= m.lastSeq {
			return m.errorf("sequence %d commits at or before already-committed %d (double or out-of-order commit)", d.Seq, m.lastSeq)
		}
		if ev.Cycle < m.lastCyc {
			return m.errorf("commit cycle went backwards: %d after %d", ev.Cycle, m.lastCyc)
		}
	}
	key := ev.EntryID<<4 | int64(ev.OpIdx)
	issued, ok := m.lastIssue[key]
	delete(m.lastIssue, key)
	if m.inv&InvScheduling != 0 {
		if !ok {
			return m.errorf("seq %d (entry %d op %d) commits without ever issuing", d.Seq, ev.EntryID, ev.OpIdx)
		}
		if issued > ev.Cycle {
			return m.errorf("seq %d issued at cycle %d after its commit cycle %d", d.Seq, issued, ev.Cycle)
		}
		if !ev.EntryFinal {
			return m.errorf("seq %d commits while its scheduler entry %d is not final (replay outstanding)", d.Seq, ev.EntryID)
		}
		if ev.Cycle < ev.ReadyAt {
			return m.errorf("seq %d commits at cycle %d before its result is ready at %d", d.Seq, ev.Cycle, ev.ReadyAt)
		}
	}
	if m.inv&InvMOPAtomicity != 0 && ev.NumOps > 1 {
		seqs, ok := m.mop[ev.EntryID]
		if !ok {
			return m.errorf("seq %d commits from multi-op entry %d that never reported formation", d.Seq, ev.EntryID)
		}
		next := m.mopNext[ev.EntryID]
		if ev.OpIdx != next {
			return m.errorf("entry %d commits op %d before op %d (MOP not committing in op order)", ev.EntryID, ev.OpIdx, next)
		}
		if len(seqs) != ev.NumOps {
			return m.errorf("entry %d formed with %d members but commits with %d ops", ev.EntryID, len(seqs), ev.NumOps)
		}
		if seqs[ev.OpIdx] != d.Seq {
			return m.errorf("entry %d op %d commits seq %d, formed as seq %d", ev.EntryID, ev.OpIdx, d.Seq, seqs[ev.OpIdx])
		}
		if ev.OpIdx == ev.NumOps-1 {
			delete(m.mop, ev.EntryID)
			delete(m.mopNext, ev.EntryID)
		} else {
			m.mopNext[ev.EntryID] = next + 1
		}
	}
	m.lastSeq = d.Seq
	m.lastCyc = ev.Cycle
	m.commits++
	return nil
}

// scriptEntry is one scheduler entry a script drives events for.
type scriptEntry struct {
	id   int64
	seqs []int64 // member sequence numbers, in op order
	next int     // next op the script means to commit
}

// TestEntryTableMatchesMapModel drives OnIssue, OnMOPFormed and OnCommit
// directly with randomized event scripts, differential check off, and
// requires the checker to return exactly the map model's verdict and
// message for every event. Scripts mix sequential IDs with IDs that
// collide modulo the table size while both are live (forcing growth)
// and far IDs (forcing the overflow map), and include replays,
// re-reported and corrupt formations, MOP ops committing out of order,
// multi-op commits with no formation report, and events for an entry
// after its last op committed. Event fields stay in
// the core's domain: op indices below NumOps <= sched.MaxMOPOps.
func TestEntryTableMatchesMapModel(t *testing.T) {
	prog := &program.Program{Name: "script"}
	seen := map[string]int{}
	for script := uint64(0); script < 400; script++ {
		rng := rand.New(rand.NewPCG(script, 0x5eed))
		inv := Invariant(rng.IntN(8)) // subsets of commit-order, scheduling, MOP atomicity
		k := New(prog, 0, 0)
		k.SetInvariants(inv)
		m := newMapModel(prog.Name, inv)

		var live []*scriptEntry
		nextID, nextSeq, cycle := int64(rng.IntN(1000)), int64(0), int64(1)
		newEntry := func() {
			e := &scriptEntry{id: nextID}
			nextID++
			if len(live) > 0 && rng.IntN(4) == 0 {
				// Alias a live entry: the same slot modulo some table size,
				// or a far ID that no table size separates.
				base := live[rng.IntN(len(live))].id
				switch rng.IntN(3) {
				case 0:
					e.id = base + minEntryTable<<rng.IntN(4)
				case 1:
					e.id = base + 1<<20
				default:
					e.id = base ^ 1<<40
				}
			}
			n := 1
			if rng.IntN(2) == 0 {
				n = 2 + rng.IntN(sched.MaxMOPOps-1)
			}
			for i := 0; i < n; i++ {
				nextSeq += 1 + int64(rng.IntN(3))
				e.seqs = append(e.seqs, nextSeq)
			}
			live = append(live, e)
		}

		var trail []string
		check := func(what string, got, want error) {
			trail = append(trail, what)
			if errText(got) != errText(want) {
				t.Fatalf("script %d (invariants %v) diverged at event %d %s:\n table: %v\n maps:  %v\nevents: %v",
					script, inv.Names(), len(trail), what, got, want, trail)
			}
		}
		for step := 0; step < 300; step++ {
			if len(live) < 2 || (len(live) < 24 && rng.IntN(4) == 0) {
				newEntry()
			}
			e := live[rng.IntN(len(live))]
			if rng.IntN(3) > 0 {
				e = live[0] // mostly the oldest, as commit order would have it
			}
			switch r := rng.IntN(10); {
			case r < 4: // issue (repeats are replays)
				op := rng.IntN(len(e.seqs))
				if _, ok := m.lastIssue[e.id<<4|int64(op)]; ok {
					seen["replay"]++
				}
				ev := &core.IssueEvent{Cycle: cycle + int64(rng.IntN(4)) - 1, Seq: e.seqs[op], EntryID: e.id, OpIdx: op}
				check("issue", k.OnIssue(ev), m.OnIssue(ev))
			case r < 6: // formation report, sometimes corrupt or repeated
				seqs := append([]int64(nil), e.seqs...)
				switch rng.IntN(8) {
				case 0:
					seqs = seqs[:1]
				case 1:
					if len(seqs) > 2 {
						seqs = seqs[:len(seqs)-1]
					}
				case 2:
					if len(seqs) > 1 {
						seqs[0], seqs[1] = seqs[1], seqs[0]
					}
				}
				if _, ok := m.mop[e.id]; ok {
					seen["re-formed"]++
				}
				check("formed", k.OnMOPFormed(e.id, seqs), m.OnMOPFormed(e.id, seqs))
			default: // commit
				op := e.next
				if rng.IntN(8) == 0 {
					op = rng.IntN(len(e.seqs))
				}
				ev := &core.CommitEvent{
					Cycle: cycle, Dyn: &functional.DynInst{Seq: e.seqs[op]},
					EntryID: e.id, OpIdx: op, NumOps: len(e.seqs), IsMOP: len(e.seqs) > 1,
					EntryFinal: rng.IntN(20) > 0, ReadyAt: cycle - int64(rng.IntN(4)) + 1,
				}
				switch rng.IntN(20) {
				case 0:
					ev.EntryID ^= 1 << 40
					seen["far commit"]++
				case 1:
					ev.Dyn.Seq++
				case 2:
					ev.NumOps = op + 1 + rng.IntN(sched.MaxMOPOps-op)
				}
				if ev.NumOps > 1 {
					if _, ok := m.mop[ev.EntryID]; !ok {
						seen["unformed commit"]++
					} else if op != m.mopNext[ev.EntryID] {
						seen["out-of-order commit"]++
					}
				}
				check("commit", k.OnCommit(ev), m.OnCommit(ev))
				if op == e.next {
					e.next++
				}
				switch {
				case e.next == len(e.seqs) && rng.IntN(8) == 0:
					e.next = 0 // keeps drawing events after its last commit
					seen["stale events"]++
				case e.next == len(e.seqs) || rng.IntN(30) == 0:
					live = removeEntry(live, e) // done, or abandoned mid-flight
				}
				if rng.IntN(4) > 0 {
					cycle++
				} else if rng.IntN(8) == 0 {
					cycle -= 2
				}
			}
		}
		if len(k.ents.recs) > minEntryTable {
			seen["table grown"]++
		}
		if k.ents.over != nil {
			seen["overflow map"]++
		}
	}
	t.Logf("scenario counts: %v", seen)
	for _, what := range []string{"replay", "re-formed", "far commit", "unformed commit",
		"out-of-order commit", "stale events", "table grown", "overflow map"} {
		if seen[what] == 0 {
			t.Errorf("no script exercised %q", what)
		}
	}
}

func removeEntry(live []*scriptEntry, e *scriptEntry) []*scriptEntry {
	for i, x := range live {
		if x == e {
			return append(live[:i], live[i+1:]...)
		}
	}
	return live
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// fnvBytes is byte-wise FNV-1a over v's eight little-endian bytes.
func fnvBytes(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// TestMixMatchesByteFNV: collapsing a word's zero high bytes into one
// multiply leaves the checksum bit-identical.
func TestMixMatchesByteFNV(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 1 << 56, 0xff << 56, 1<<63 | 1, ^uint64(0)}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		words = append(words, rng.Uint64()>>(8*rng.IntN(8)))
	}
	for _, h := range []uint64{fnvOffset, 0, ^uint64(0), rng.Uint64()} {
		for _, v := range words {
			k := &Checker{sum: h}
			if k.mix(v); k.sum != fnvBytes(h, v) {
				t.Fatalf("mix(%#x) from %#x = %#x, byte-wise FNV-1a = %#x", v, h, k.sum, fnvBytes(h, v))
			}
		}
		k, want := &Checker{sum: h}, h
		k.mix(words...)
		for _, v := range words {
			want = fnvBytes(want, v)
		}
		if k.sum != want {
			t.Fatalf("mix over %d words from %#x = %#x, byte-wise FNV-1a = %#x", len(words), h, k.sum, want)
		}
	}
}
