package mop

import (
	"fmt"
	"math/bits"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/isa"
)

// DetectStats counts detection outcomes for reporting.
type DetectStats struct {
	DependentPairs   int64 // dependent MOP pointers generated
	IndependentPairs int64 // independent MOP pointers generated (Section 5.4.1)
	CycleRejects     int64 // pairs rejected by the cycle heuristic ("2" across marks)
	ControlRejects   int64 // pairs rejected by control-flow pointer rules
	CAMRejects       int64 // pairs rejected by the 2-source-comparator limit
	ConflictLosses   int64 // heads that lost the priority-decoder conflict
}

// slot is one instruction in the window: the fields a detection step
// reads from it.
type slot struct {
	pc   int
	key  uint64     // memo key word without the per-step fields (see keyWord)
	src  [2]isa.Reg // distinct non-R0 sources; NoReg when unused
	dest isa.Reg    // NoReg if the instruction writes no register
	nsrc uint8
}

// Detector implements the MOP detection logic of Section 5.1.2: it
// observes the renamed instruction stream one rename group at a time,
// maintains a sliding window of ScopeGroups groups (the paper's 2-cycle,
// 8-instruction scope), and installs MOP pointers into a PointerTable.
//
// Detection is located off the critical path; its latency is modelled by
// PointerTable visibility (config.MOPConfig.DetectionDelay).
//
// The window is flat: n slots in program order, held in a ring, plus one
// uint64 mask per slot property, bit p describing window position p.
// Evicting a group advances the ring and shifts the masks by its length.
// A step whose window fits the memo key replays a recorded outcome when
// the same window was seen before (see memo.go), so hot loops are
// analysed once, as the paper's pointers beside the I-cache are; only a
// step that runs builds the window's dependences.
type Detector struct {
	cfg   config.MOPConfig
	table *PointerTable
	stats DetectStats

	ring    [config.MaxMOPWindow]slot // position p is ring[(start+p)%MaxMOPWindow]
	start   int
	n       int
	groups  [config.MaxMOPWindow]uint8 // window group lengths, oldest first
	ngroups int

	taken    uint64 // control instructions that were taken
	inval    uint64 // not a MOP candidate
	valueGen uint64 // value-generating candidates (possible dependent heads)
	control  uint64
	indirect uint64 // indirect control instructions
	head     uint64
	tail     uint64

	// Dependences, built by a step that runs: each position's consumer
	// mask (bit j: position j reads its result) and the position of each
	// source's producer (-1 outside the window).
	cons [config.MaxMOPWindow]uint64
	prod [config.MaxMOPWindow][2]int8

	// The current step's outcome: installs in order, each packed as
	// head | tail<<6 | control<<12 window positions.
	inst  [config.MaxMOPWindow]uint16
	ninst int

	memo []memoSet
	// Detection steps run, steps whose window packed into a memo key, and
	// steps replayed from the memo.
	steps, packed, hits int64
}

// NewDetector creates a detector installing into the given table.
func NewDetector(cfg config.MOPConfig, table *PointerTable) *Detector {
	return &Detector{cfg: cfg, table: table, memo: make([]memoSet, memoSets)}
}

// Stats returns the accumulated detection statistics.
func (d *Detector) Stats() DetectStats { return d.stats }

// Observe feeds one rename group (program order) into the detector at the
// given cycle and runs a detection step over the current window.
func (d *Detector) Observe(cycle int64, group []*functional.DynInst) {
	if len(group) == 0 {
		return
	}
	if d.ngroups == d.cfg.ScopeGroups {
		d.evict()
	}
	if d.n+len(group) > config.MaxMOPWindow {
		panic(fmt.Sprintf("mop: detection window of %d slots exceeds %d (ScopeGroups × width must fit)", d.n+len(group), config.MaxMOPWindow))
	}
	for _, di := range group {
		d.push(di)
	}
	d.groups[d.ngroups] = uint8(len(group))
	d.ngroups++
	if d.n >= 2 {
		d.detect(cycle)
	}
}

// at returns the slot at window position p.
func (d *Detector) at(p int) *slot {
	return &d.ring[uint(d.start+p)%config.MaxMOPWindow]
}

// push appends one instruction to the window.
func (d *Detector) push(di *functional.DynInst) {
	bit := uint64(1) << d.n
	in := &di.Inst
	s := d.at(d.n)
	d.n++
	*s = slot{pc: di.PC, src: [2]isa.Reg{isa.NoReg, isa.NoReg}, dest: isa.NoReg}
	if r := in.Src1; r != isa.NoReg && r != isa.R0 {
		s.src[0], s.nsrc = r, 1
	}
	if r := in.Src2; r != isa.NoReg && r != isa.R0 && r != s.src[0] {
		s.src[s.nsrc] = r
		s.nsrc++
	}
	if in.WritesReg() {
		s.dest = in.Dest
	}
	op := in.Op
	taken := op.IsControl() && di.Taken
	if op.IsControl() {
		d.control |= bit
		if op.IsIndirect() {
			d.indirect |= bit
		}
		if taken {
			d.taken |= bit
		}
	}
	if !op.IsMOPCandidate() {
		d.inval |= bit
	}
	if op.IsValueGenCandidate() {
		d.valueGen |= bit
	}
	s.key = keyWord(di.PC, op, s.dest, s.src, taken)
}

// evict drops the oldest group: the ring advances and every mask shifts
// down by the group's length.
func (d *Detector) evict() {
	l := int(d.groups[0])
	copy(d.groups[:], d.groups[1:d.ngroups])
	d.ngroups--
	d.start = (d.start + l) % config.MaxMOPWindow
	d.n -= l
	d.taken >>= l
	d.inval >>= l
	d.valueGen >>= l
	d.control >>= l
	d.indirect >>= l
	d.head >>= l
	d.tail >>= l
}

// detect runs one detection step, from the memo when this exact window
// was seen before.
func (d *Detector) detect(cycle int64) {
	d.steps++
	var key [memoSlots]uint64
	h, ok := d.windowKey(&key)
	if !ok {
		d.step()
		d.apply(cycle)
		return
	}
	d.packed++
	set := &d.memo[h]
	for w := range set {
		if e := &set[w]; e.matches(&key, d.n) {
			d.hits++
			set[0].mru = uint8(w)
			d.replay(e, cycle)
			return
		}
	}
	before := d.stats
	d.step()
	d.apply(cycle)
	w := 1 - set[0].mru
	set[0].mru = w
	set[w].record(&key, d, &before)
}

// deps builds the window's direct register dependences: each source's
// producer is the nearest earlier writer of the register in the window.
// A duplicate edge (two source registers with the same producer) cannot
// occur, since a producer writes one register.
func (d *Detector) deps() {
	var lastW [isa.NumRegs]int8
	for r := range lastW {
		lastW[r] = -1
	}
	for p := 0; p < d.n; p++ {
		s := d.at(p)
		d.cons[p] = 0
		d.prod[p] = [2]int8{-1, -1}
		for k, r := range s.src[:s.nsrc] {
			w := lastW[r]
			if w >= 0 {
				d.cons[w] |= 1 << p
			}
			d.prod[p][k] = w
		}
		if s.dest != isa.NoReg {
			lastW[s.dest] = int8(p)
		}
	}
}

// step runs one detection pass over the window: dependent pairs first,
// then independent pairs (Section 5.4.1). It updates the head and tail
// masks and the statistics and leaves the installs in d.inst for apply.
func (d *Detector) step() {
	d.deps()
	d.ninst = 0
	all := uint64(1)<<d.n - 1
	heads := d.valueGen &^ d.head
	if d.cfg.MaxMOPSize <= 2 {
		heads &^= d.tail // a tail may start another pair only in the chained-MOP extension
	}
	tails := all &^ (d.inval | d.head | d.tail)

	// Dependent pairs. Every head's request is made against the flags
	// the step started with, so each head is decided as soon as it has
	// scanned: the priority decoder walks heads oldest first and only
	// consults claims made by older heads. A selected tail is marked so
	// it is not examined again (Figure 9) — it neither serves a second
	// head nor starts its own pair in the same step (unless the chained
	// extension is enabled).
	var claimed uint64
	for hs := heads; hs != 0; hs &= hs - 1 {
		i := bits.TrailingZeros64(hs)
		j := d.pickTail(i, tails)
		if j < 0 {
			continue
		}
		ib, jb := uint64(1)<<i, uint64(1)<<j
		if claimed&ib != 0 && d.cfg.MaxMOPSize <= 2 {
			continue // this instruction just became a tail
		}
		if claimed&jb != 0 {
			d.stats.ConflictLosses++
			continue
		}
		claimed |= jb
		d.head |= ib
		d.tail |= jb
		ctrl, _ := d.controlClass(i, j)
		d.record(i, j, ctrl)
		d.stats.DependentPairs++
	}

	if d.cfg.GroupIndependent {
		d.pairIndependent(all)
	}
}

// pickTail scans head i's column marks top to bottom and returns the
// first selectable tail, or -1. The consumer mask walk visits exactly the
// marked rows in ascending order.
func (d *Detector) pickTail(i int, tails uint64) int {
	seenMark := false
	for m := d.cons[i]; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		// Row j carries a dependence mark for column i. The mark value is
		// the consumer's source-operand count: "1" is selectable anywhere;
		// "2" only as the first mark in the column (the hardware encoding
		// of the Section 5.1.1 cycle heuristic).
		selectable := d.at(j).nsrc == 1 || !seenMark
		seenMark = true
		if tails&(1<<j) == 0 {
			continue
		}
		if d.cfg.PreciseCycleDetection {
			if d.inducesCycle(i, j) {
				d.stats.CycleRejects++
				continue
			}
		} else if !selectable {
			d.stats.CycleRejects++
			continue
		}
		if j-i > MaxOffset {
			return -1
		}
		if _, ok := d.controlClass(i, j); !ok {
			d.stats.ControlRejects++
			continue
		}
		if d.cfg.Wakeup == config.WakeupCAM2Src && d.unionSources(i, j) > 2 {
			d.stats.CAMRejects++
			continue
		}
		if d.table.Blacklisted(d.at(i).pc, d.at(j).pc) {
			continue
		}
		return j
	}
	return -1
}

// record appends an install of head i → tail j to the step's outcome.
func (d *Detector) record(i, j int, ctrl bool) {
	in := uint16(i) | uint16(j)<<6
	if ctrl {
		in |= 1 << 12
	}
	d.inst[d.ninst] = in
	d.ninst++
}

// apply installs the step's pointers, in the order the step chose them.
func (d *Detector) apply(cycle int64) {
	at := cycle + int64(d.cfg.DetectionDelay)
	for _, in := range d.inst[:d.ninst] {
		d.install(in, at)
	}
}

func (d *Detector) install(in uint16, visibleAt int64) {
	i, j := int(in&63), int(in>>6&63)
	ptr := Pointer{Control: in&(1<<12) != 0, Offset: uint8(j - i)}
	d.table.Install(d.at(i).pc, d.at(j).pc, ptr, visibleAt)
}

// unionSources counts the distinct non-R0 source registers a MOP of head
// i and tail j would expose to the wakeup array: the head's sources plus
// the tail's sources minus the intra-MOP edge (Section 5.2.2).
func (d *Detector) unionSources(i, j int) int {
	h, t := d.at(i), d.at(j)
	n := int(h.nsrc)
	for _, r := range t.src[:t.nsrc] {
		// An unused source is NoReg, which no used source equals; the
		// head's result is satisfied inside the MOP and needs no tag.
		if r != h.dest && r != h.src[0] && r != h.src[1] {
			n++
		}
	}
	return n
}

// controlClass classifies the control flow between head i and tail j
// (window positions) per Section 5.1.3: returns the control bit and
// whether a pointer may be generated at all. An intervening indirect
// jump, or multiple control instructions with any taken, forbid grouping.
func (d *Detector) controlClass(i, j int) (controlBit, ok bool) {
	between := (uint64(1)<<j - 1) &^ (uint64(1)<<i - 1) // positions [i, j)
	if d.indirect&between != 0 {
		return false, false
	}
	switch nTaken := bits.OnesCount64(d.taken & between); {
	case nTaken == 0:
		return false, true
	case nTaken == 1 && bits.OnesCount64(d.control&between) == 1:
		return true, true
	default:
		return false, false
	}
}

// inducesCycle is the precise alternative to the heuristic: grouping head
// i with tail j deadlocks iff some window instruction x strictly between
// them lies on a dependence path i →+ x →+ j. The search is a one-word
// BFS over the consumer masks whose frontier never passes through j.
func (d *Detector) inducesCycle(i, j int) bool {
	jb := uint64(1) << j
	seen := d.cons[i] &^ jb
	for todo := seen; todo != 0; {
		x := bits.TrailingZeros64(todo)
		todo &= todo - 1
		c := d.cons[x]
		if c&jb != 0 {
			return true // i →+ x →+ j through x ≠ j
		}
		c &^= seen | jb
		seen |= c
		todo |= c
	}
	return false
}

// indepReach is the mask of positions 1..MaxOffset after a head that an
// independent tail may occupy.
const indepReach = uint64(1)<<(MaxOffset+1) - 2

// pairIndependent groups leftover candidate pairs with identical (or
// empty) source dependences, per Section 5.4.1. Both instructions must
// read the same values, so shared source registers must have the same
// in-window producer and must not be rewritten between the two.
func (d *Detector) pairIndependent(all uint64) {
	free := all &^ (d.inval | d.head | d.tail)
	for fs := free; fs != 0; fs &= fs - 1 {
		i := bits.TrailingZeros64(fs)
		if free&(1<<i) == 0 {
			continue // became a tail earlier in this pass
		}
		for c := free & (indepReach << i); c != 0; c &= c - 1 {
			j := bits.TrailingZeros64(c)
			if !d.sameSources(i, j) || d.cons[i]&(1<<j) != 0 {
				continue // different values, or actually dependent
			}
			ctrl, ok := d.controlClass(i, j)
			if !ok || d.table.Blacklisted(d.at(i).pc, d.at(j).pc) {
				continue
			}
			d.head |= 1 << i
			d.tail |= 1 << j
			free &^= 1<<i | 1<<j
			d.record(i, j, ctrl)
			d.stats.IndependentPairs++
			break
		}
	}
}

// sameSources reports whether window slots i and j have identical source
// register sets reading identical values: every shared register has the
// same recorded in-window producer (or none), so no instruction in
// [i, j) rewrites it.
func (d *Detector) sameSources(i, j int) bool {
	a, b := d.at(i), d.at(j)
	if a.nsrc != b.nsrc {
		return false
	}
	pa, pb := &d.prod[i], &d.prod[j]
	for k, r := range b.src[:b.nsrc] {
		if !(a.src[0] == r && pa[0] == pb[k] || a.src[1] == r && pa[1] == pb[k]) {
			return false
		}
	}
	return true
}
