// Package checker implements a lockstep differential oracle for the
// timing core: it re-executes the program on an independent functional
// model and, at every commit the core reports through the core.Hooks
// interface, cross-checks the architectural work (PC, opcode, operands,
// memory effective address, branch outcome and target, destination and
// store values) plus pipeline invariants:
//
//   - committed sequence numbers are strictly increasing (no instruction
//     commits twice, none is skipped out of order);
//   - every committed instruction was issued, its scheduler entry is
//     final (all speculative-scheduling replays resolved), and its
//     result was architecturally available before the commit cycle —
//     replayed uops therefore re-executed before committing;
//   - macro-op members commit exactly as formed: same entry, in op
//     order, in program order, with no member missing or duplicated;
//   - issue queue occupancy never exceeds its configured capacity.
//
// The checker also folds every committed architectural effect into a
// running FNV-1a checksum. Two runs that commit the same architectural
// work — e.g. MOP scheduling on vs off — produce identical checksums even
// though their timing differs, which is what the golden-result harness
// (golden.go) and the property tests record and compare.
//
// Attach a checker with core.SetHooks; it is timing-passive and costs
// one extra functional execution of the committed stream. Its
// bookkeeping allocates nothing in steady state: per-entry state lives
// in a direct-mapped table keyed by entry ID (entries.go) and the
// checksum hashes each word's zero high bytes with one multiply, so a
// checked run costs about 1.2x an unchecked one, most of the difference
// being the reference model's own execution.
package checker

import (
	"fmt"
	"math/bits"

	"macroop/internal/core"
	"macroop/internal/functional"
	"macroop/internal/isa"
	"macroop/internal/program"
	"macroop/internal/sched"
	"macroop/internal/simerr"
)

// Invariant is a bitmask selecting which of the checker's invariant
// groups are active. The default is InvAll; the repro minimizer
// (internal/shrink) strips groups that are not needed to reproduce a
// given check failure, so a minimized bundle names the one invariant
// that actually bites.
type Invariant uint

// Invariant groups.
const (
	// InvCommitOrder: committed sequence numbers strictly increase and
	// commit cycles never go backwards.
	InvCommitOrder Invariant = 1 << iota
	// InvScheduling: every committed op issued, no later than it commits,
	// with its entry final and its result ready.
	InvScheduling
	// InvMOPAtomicity: macro-op members commit exactly as formed.
	InvMOPAtomicity
	// InvOccupancy: issue queue occupancy respects capacity.
	InvOccupancy
	// InvDifferential: lockstep cross-check against the reference
	// functional model (and the architectural checksum, which needs it).
	InvDifferential

	// InvAll enables every invariant group.
	InvAll = InvCommitOrder | InvScheduling | InvMOPAtomicity | InvOccupancy | InvDifferential
)

// invariantNames orders the stable names used by repro bundles.
var invariantNames = []struct {
	bit  Invariant
	name string
}{
	{InvCommitOrder, "commit-order"},
	{InvScheduling, "scheduling"},
	{InvMOPAtomicity, "mop-atomicity"},
	{InvOccupancy, "occupancy"},
	{InvDifferential, "differential"},
}

// Names renders the active invariant groups as their stable names.
func (v Invariant) Names() []string {
	var out []string
	for _, in := range invariantNames {
		if v&in.bit != 0 {
			out = append(out, in.name)
		}
	}
	return out
}

// ParseInvariants resolves stable invariant names back into a mask.
func ParseInvariants(names []string) (Invariant, error) {
	var v Invariant
	for _, name := range names {
		found := false
		for _, in := range invariantNames {
			if in.name == name {
				v |= in.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("checker: unknown invariant %q", name)
		}
	}
	return v, nil
}

// Checker is a core.Hooks implementation performing lockstep differential
// checking against a reference functional execution of the same program.
type Checker struct {
	name string
	ref  *functional.Executor
	inv  Invariant

	sum      uint64 // FNV-1a over committed architectural effects
	sumLimit int64  // commits folded into sum (0 = all); see New
	commits  int64
	lastSeq  int64
	lastCyc  int64

	iqCap int

	// ents holds each in-flight entry's last grant cycle per op (cleared
	// as the op commits) and its formation report (cleared when its last
	// op commits), so it stays bounded by the instruction window.
	ents entryTable
}

var _ core.Hooks = (*Checker)(nil)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// New builds a checker for one simulation of prog. iqEntries is the
// machine's issue queue capacity (0 = unrestricted, disabling the
// occupancy invariant). sumLimit bounds how many commits fold into the
// checksum (0 = all): because the core may overshoot its instruction
// budget by up to one commit group, callers comparing checksums across
// machine configurations pass the common budget here so both runs
// checksum the same prefix.
func New(prog *program.Program, iqEntries int, sumLimit int64) *Checker {
	return &Checker{
		name:     prog.Name,
		ref:      functional.NewExecutor(prog),
		inv:      InvAll,
		sum:      fnvOffset,
		sumLimit: sumLimit,
		lastSeq:  -1,
		lastCyc:  -1,
		iqCap:    iqEntries,
		ents:     newEntryTable(),
	}
}

// SetInvariants restricts the checker to the given invariant groups.
// Disabling InvDifferential also disables the architectural checksum
// (it is computed from the reference model's state).
func (k *Checker) SetInvariants(v Invariant) { k.inv = v }

// Invariants returns the active invariant groups.
func (k *Checker) Invariants() Invariant { return k.inv }

// Summary is the distilled outcome of a checked run.
type Summary struct {
	Benchmark string
	Commits   int64  // commits cross-checked
	Checksum  uint64 // FNV-1a over the first min(Commits, limit) commits
}

// Summary returns the check outcome so far.
func (k *Checker) Summary() Summary {
	return Summary{Benchmark: k.name, Commits: k.commits, Checksum: k.sum}
}

// Checksum returns the architectural-effect checksum so far.
func (k *Checker) Checksum() uint64 { return k.sum }

// Commits returns how many commits were cross-checked so far.
func (k *Checker) Commits() int64 { return k.commits }

// errorf reports an invariant violation or divergence as a typed
// *simerr.Error classified under ErrCheckFailed, carrying the benchmark
// and how many commits had been cross-checked when the check tripped.
func (k *Checker) errorf(format string, args ...any) error {
	ctx := simerr.Context{Benchmark: k.name, Committed: k.commits}
	if k.lastCyc > 0 {
		ctx.Cycle = k.lastCyc
	}
	return simerr.New(simerr.KindCheckFailed, ctx, "commit %d: "+format,
		append([]any{k.commits}, args...)...)
}

// fnvZeros[j] is fnvPrime^j: FNV-1a over j zero bytes, whose XOR steps
// are no-ops, multiplies the hash by it.
var fnvZeros = func() (p [9]uint64) {
	p[0] = 1
	for j := 1; j < len(p); j++ {
		p[j] = p[j-1] * fnvPrime
	}
	return p
}()

// mix folds 64-bit words into the running FNV-1a checksum.
func (k *Checker) mix(vs ...uint64) {
	h := k.sum
	for _, v := range vs {
		h = fnvWord(h, v)
	}
	k.sum = h
}

// fnvWord folds v's eight little-endian bytes into FNV-1a hash h. It
// hashes the significant low bytes one by one and the zero high bytes
// with a single multiply, so the result equals byte-wise FNV-1a.
func fnvWord(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) / 8
	for i := 0; i < n; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h * fnvZeros[8-n]
}

// OnIssue implements core.Hooks: it records the grant so the commit-side
// invariant "committed ops were issued, and issued no later than they
// committed" has something to check against. An op index beyond the
// sched.MaxMOPOps an entry can hold is not recorded, so its commit
// fails that check.
func (k *Checker) OnIssue(ev *core.IssueEvent) error {
	if uint(ev.OpIdx) >= sched.MaxMOPOps {
		return nil
	}
	r := k.ents.claim(ev.EntryID)
	r.issue[ev.OpIdx] = ev.Cycle
	r.issued |= 1 << ev.OpIdx
	return nil
}

// OnMOPFormed implements core.Hooks: it records the closed macro-op's
// membership for commit-side atomicity checking.
func (k *Checker) OnMOPFormed(entryID int64, seqs []int64) error {
	if k.inv&InvMOPAtomicity == 0 {
		return nil
	}
	if len(seqs) < 2 || len(seqs) > sched.MaxMOPOps {
		return simerr.New(simerr.KindCheckFailed, simerr.Context{Benchmark: k.name},
			"entry %d formed a MOP with %d member(s)", entryID, len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			return simerr.New(simerr.KindCheckFailed, simerr.Context{Benchmark: k.name},
				"entry %d MOP members out of program order: %v", entryID, seqs)
		}
	}
	// A repeated report replaces the members but keeps the commit
	// position.
	r := k.ents.claim(entryID)
	r.n = uint8(copy(r.seqs[:], seqs))
	return nil
}

// OnCycle implements core.Hooks: issue queue occupancy must respect the
// configured capacity.
func (k *Checker) OnCycle(cycle int64, iqOccupied int) error {
	if k.inv&InvOccupancy == 0 {
		return nil
	}
	if k.iqCap > 0 && iqOccupied > k.iqCap {
		return simerr.New(simerr.KindCheckFailed,
			simerr.Context{Benchmark: k.name, Cycle: cycle, Committed: k.commits},
			"issue queue occupancy %d exceeds capacity %d", iqOccupied, k.iqCap)
	}
	return nil
}

// OnCommit implements core.Hooks: the differential cross-check proper.
func (k *Checker) OnCommit(ev *core.CommitEvent) error {
	d := ev.Dyn

	// Commit-order invariants.
	if k.inv&InvCommitOrder != 0 {
		if d.Seq <= k.lastSeq {
			return k.errorf("sequence %d commits at or before already-committed %d (double or out-of-order commit)", d.Seq, k.lastSeq)
		}
		if ev.Cycle < k.lastCyc {
			return k.errorf("commit cycle went backwards: %d after %d", ev.Cycle, k.lastCyc)
		}
	}

	// Scheduling invariants: the op issued, no later than it commits, and
	// its entry settled with the result available before now. The issue
	// record is consumed regardless so the table stays window-bounded
	// with the group disabled.
	r := k.ents.find(ev.EntryID)
	issued, ok := r.takeIssue(ev.OpIdx)
	k.ents.release(r)
	if k.inv&InvScheduling != 0 {
		if !ok {
			return k.errorf("seq %d (entry %d op %d) commits without ever issuing", d.Seq, ev.EntryID, ev.OpIdx)
		}
		if issued > ev.Cycle {
			return k.errorf("seq %d issued at cycle %d after its commit cycle %d", d.Seq, issued, ev.Cycle)
		}
		if !ev.EntryFinal {
			return k.errorf("seq %d commits while its scheduler entry %d is not final (replay outstanding)", d.Seq, ev.EntryID)
		}
		if ev.Cycle < ev.ReadyAt {
			return k.errorf("seq %d commits at cycle %d before its result is ready at %d", d.Seq, ev.Cycle, ev.ReadyAt)
		}
	}

	// MOP atomicity: members commit exactly as formed, in op order.
	if k.inv&InvMOPAtomicity != 0 && ev.NumOps > 1 {
		if r == nil || r.n == 0 {
			return k.errorf("seq %d commits from multi-op entry %d that never reported formation", d.Seq, ev.EntryID)
		}
		next := int(r.next)
		if ev.OpIdx != next {
			return k.errorf("entry %d commits op %d before op %d (MOP not committing in op order)", ev.EntryID, ev.OpIdx, next)
		}
		if int(r.n) != ev.NumOps {
			return k.errorf("entry %d formed with %d members but commits with %d ops", ev.EntryID, r.n, ev.NumOps)
		}
		if r.seqs[ev.OpIdx] != d.Seq {
			return k.errorf("entry %d op %d commits seq %d, formed as seq %d", ev.EntryID, ev.OpIdx, d.Seq, r.seqs[ev.OpIdx])
		}
		if ev.OpIdx == ev.NumOps-1 {
			r.n, r.next = 0, 0
			k.ents.release(r)
		} else {
			r.next++
		}
	}

	// Differential cross-check against the reference functional model
	// (and the architectural checksum, which is built from the reference
	// state and so rides on the same invariant group).
	if k.inv&InvDifferential != 0 {
		var ref functional.DynInst
		if err := k.ref.Step(&ref); err != nil {
			return k.errorf("reference model cannot execute seq %d: %v", d.Seq, err)
		}
		if err := k.compare(&ref, d); err != nil {
			return err
		}

		// Destination value from the reference architectural state.
		var destVal uint64
		if ref.Inst.WritesReg() {
			destVal = k.ref.Reg(ref.Inst.Dest)
		}

		// A fused store commits as one uop but is two reference steps; the
		// merged STD supplies the store data.
		var storeVal uint64
		if ref.Inst.Op == isa.STA {
			var std functional.DynInst
			if err := k.ref.Step(&std); err != nil {
				return k.errorf("reference model cannot execute STD for store seq %d: %v", d.Seq, err)
			}
			if std.Inst.Op != isa.STD {
				return k.errorf("store seq %d not followed by STD in reference stream (got %s)", d.Seq, std.Inst.Op)
			}
			if std.MemAddr != ref.MemAddr {
				return k.errorf("store seq %d: STD address %#x != STA address %#x", d.Seq, std.MemAddr, ref.MemAddr)
			}
			if ev.DataReg != std.Inst.Src1 {
				return k.errorf("store seq %d commits data register %s, reference says %s", d.Seq, ev.DataReg, std.Inst.Src1)
			}
			storeVal = k.ref.Mem().Read(ref.MemAddr)
		}

		if k.sumLimit <= 0 || k.commits < k.sumLimit {
			k.mix(uint64(d.Seq), uint64(int64(d.PC)), uint64(d.Inst.Op),
				uint64(d.Inst.Dest), destVal, d.MemAddr, boolWord(d.Taken),
				uint64(int64(d.NextPC)), storeVal)
		}
	}
	k.lastSeq = d.Seq
	k.lastCyc = ev.Cycle
	k.commits++
	return nil
}

// compare checks the committed dynamic instruction against the reference
// model's independently computed one.
func (k *Checker) compare(ref, got *functional.DynInst) error {
	switch {
	case ref.Seq != got.Seq:
		return k.errorf("sequence diverged: core commits seq %d, reference executes seq %d", got.Seq, ref.Seq)
	case ref.PC != got.PC:
		return k.errorf("seq %d: PC diverged: core %d, reference %d", got.Seq, got.PC, ref.PC)
	case ref.Inst != got.Inst:
		return k.errorf("seq %d: instruction diverged: core commits %s, reference executes %s", got.Seq, got.Inst, ref.Inst)
	case ref.MemAddr != got.MemAddr:
		return k.errorf("seq %d (%s): memory address diverged: core %#x, reference %#x", got.Seq, got.Inst, got.MemAddr, ref.MemAddr)
	case ref.Taken != got.Taken:
		return k.errorf("seq %d (%s): branch outcome diverged: core taken=%v, reference taken=%v", got.Seq, got.Inst, got.Taken, ref.Taken)
	case ref.NextPC != got.NextPC:
		return k.errorf("seq %d (%s): next PC diverged: core %d, reference %d", got.Seq, got.Inst, got.NextPC, ref.NextPC)
	}
	return nil
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// CorruptSource wraps a dynamic instruction source and corrupts exactly
// one instruction at or after sequence At: loads and store-address ops
// get their effective address flipped; other register writers get their
// immediate perturbed. Control instructions and STDs are skipped so the
// corruption stays on the committed path. It exists to prove the oracle
// is not vacuous — a core driven through a CorruptSource commits wrong
// architectural work that an attached Checker must detect.
type CorruptSource struct {
	Src functional.Source
	At  int64

	done bool
}

// Step implements functional.Source.
func (s *CorruptSource) Step(d *functional.DynInst) error {
	if err := s.Src.Step(d); err != nil {
		return err
	}
	if s.done || d.Seq < s.At || d.Inst.Op.IsControl() || d.Inst.Op == isa.STD {
		return nil
	}
	switch {
	case d.Inst.Op == isa.LD || d.Inst.Op == isa.STA:
		d.MemAddr ^= 8 // wrong word: the committed value is now wrong
	case d.Inst.WritesReg():
		d.Inst.Imm++ // wrong operand: the committed result is now wrong
	default:
		return nil
	}
	s.done = true
	return nil
}
