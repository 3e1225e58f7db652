package mop

import (
	"math/bits"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/isa"
)

// refDetector is the pointer-window detector the flat, memoized Detector
// replaced, kept as FuzzDetector's reference: it re-derives every step
// from scratch over a []*refSlot window of recycled group slices, with a
// column-bitset dependence matrix sized to the window.

// refSlot is one instruction being examined in the reference window.
type refSlot struct {
	pc       int
	op       isa.Op
	dest     isa.Reg // NoReg if the instruction writes no register
	srcs     [2]isa.Reg
	nsrc     int // distinct non-R0 source registers
	taken    bool
	inval    bool // not a MOP candidate
	valueGen bool
	head     bool
	tail     bool
}

func newRefSlot(d *functional.DynInst) refSlot {
	s := refSlot{pc: d.PC, op: d.Inst.Op, dest: isa.NoReg, taken: d.Taken}
	if d.Inst.WritesReg() {
		s.dest = d.Inst.Dest
	}
	for _, r := range [2]isa.Reg{d.Inst.Src1, d.Inst.Src2} {
		if r == isa.NoReg || r == isa.R0 {
			continue
		}
		dup := false
		for k := 0; k < s.nsrc; k++ {
			if s.srcs[k] == r {
				dup = true
			}
		}
		if !dup {
			s.srcs[s.nsrc] = r
			s.nsrc++
		}
	}
	s.inval = !d.Inst.Op.IsMOPCandidate()
	s.valueGen = d.Inst.Op.IsValueGenCandidate()
	return s
}

type refDetector struct {
	cfg   config.MOPConfig
	table *PointerTable
	stats DetectStats

	groups [][]refSlot // oldest first, at most cfg.ScopeGroups

	slotFree [][]refSlot
	winBuf   []*refSlot
	wantBuf  []int
	claimBuf []bool

	// colBits holds one n-bit row mask per window column (row i starts
	// at i*wn), bit j meaning window row j directly consumes column i's
	// result. cycSeen/cycTodo are inducesCycle scratch.
	colBits []uint64
	wn      int
	cycSeen []uint64
	cycTodo []uint64
}

func newRefDetector(cfg config.MOPConfig, table *PointerTable) *refDetector {
	return &refDetector{cfg: cfg, table: table}
}

func (d *refDetector) Observe(cycle int64, group []*functional.DynInst) {
	if len(group) == 0 {
		return
	}
	if len(d.groups) == d.cfg.ScopeGroups {
		d.slotFree = append(d.slotFree, d.groups[0][:0])
		copy(d.groups, d.groups[1:])
		d.groups = d.groups[:len(d.groups)-1]
	}
	var slots []refSlot
	if n := len(d.slotFree); n > 0 {
		slots = d.slotFree[n-1]
		d.slotFree = d.slotFree[:n-1]
	}
	for _, di := range group {
		slots = append(slots, newRefSlot(di))
	}
	d.groups = append(d.groups, slots)
	d.step(cycle)
}

func (d *refDetector) window() []*refSlot {
	w := d.winBuf[:0]
	for gi := range d.groups {
		for si := range d.groups[gi] {
			w = append(w, &d.groups[gi][si])
		}
	}
	d.winBuf = w
	return w
}

func (d *refDetector) buildColBits(w []*refSlot) {
	n := len(w)
	wn := (n + 63) / 64
	d.wn = wn
	need := n * wn
	if cap(d.colBits) < need {
		d.colBits = make([]uint64, need)
	} else {
		d.colBits = d.colBits[:need]
		clear(d.colBits)
	}
	var lastWriter [isa.NumRegs]int
	for r := range lastWriter {
		lastWriter[r] = -1
	}
	for j, s := range w {
		for k := 0; k < s.nsrc; k++ {
			if p := lastWriter[s.srcs[k]]; p >= 0 {
				d.colBits[p*wn+j>>6] |= 1 << uint(j&63)
			}
		}
		if s.dest != isa.NoReg {
			lastWriter[s.dest] = j
		}
	}
}

func (d *refDetector) depBit(j, i int) bool {
	return d.colBits[i*d.wn+j>>6]&(1<<uint(j&63)) != 0
}

func (d *refDetector) step(cycle int64) {
	w := d.window()
	if len(w) < 2 {
		return
	}
	d.buildColBits(w)

	want := d.wantBuf[:0] // head index -> chosen tail index, -1 none
	for range w {
		want = append(want, -1)
	}
	d.wantBuf = want
	wn := d.wn
	for i, h := range w {
		if !d.headEligible(h) {
			continue
		}
		seenMark := false
		row := d.colBits[i*wn : (i+1)*wn]
	marks:
		for wi := 0; wi < wn; wi++ {
			for m := row[wi]; m != 0; m &= m - 1 {
				j := wi<<6 + bits.TrailingZeros64(m)
				t := w[j]
				selectable := t.nsrc == 1 || !seenMark
				seenMark = true
				if !refTailEligible(t) {
					continue
				}
				if !selectable && !d.cfg.PreciseCycleDetection {
					d.stats.CycleRejects++
					continue
				}
				if d.cfg.PreciseCycleDetection && d.inducesCycle(i, j) {
					d.stats.CycleRejects++
					continue
				}
				if j-i > MaxOffset {
					break marks
				}
				if _, ok := refControlClass(w, i, j); !ok {
					d.stats.ControlRejects++
					continue
				}
				if d.cfg.Wakeup == config.WakeupCAM2Src && refUnionSources(h, t) > 2 {
					d.stats.CAMRejects++
					continue
				}
				if d.table.Blacklisted(h.pc, t.pc) {
					continue
				}
				want[i] = j
				break marks
			}
		}
	}

	claimedTail := d.claimBuf[:0]
	for range w {
		claimedTail = append(claimedTail, false)
	}
	d.claimBuf = claimedTail
	for i := 0; i < len(w); i++ {
		j := want[i]
		if j < 0 {
			continue
		}
		if claimedTail[i] && d.cfg.MaxMOPSize <= 2 {
			continue
		}
		if claimedTail[j] {
			d.stats.ConflictLosses++
			continue
		}
		claimedTail[j] = true
		h, t := w[i], w[j]
		h.head, t.tail = true, true
		ctrl, _ := refControlClass(w, i, j)
		d.table.Install(h.pc, t.pc, Pointer{Control: ctrl, Offset: uint8(j - i)}, cycle+int64(d.cfg.DetectionDelay))
		d.stats.DependentPairs++
	}

	if d.cfg.GroupIndependent {
		d.pairIndependent(w, cycle)
	}
}

func (d *refDetector) headEligible(s *refSlot) bool {
	if s.inval || s.head || !s.valueGen {
		return false
	}
	if s.tail && d.cfg.MaxMOPSize <= 2 {
		return false
	}
	return true
}

func refTailEligible(s *refSlot) bool {
	return !s.inval && !s.head && !s.tail
}

func refUnionSources(h, t *refSlot) int {
	var regs [4]isa.Reg
	n := 0
	for k := 0; k < h.nsrc; k++ {
		regs[n] = h.srcs[k]
		n++
	}
outer:
	for k := 0; k < t.nsrc; k++ {
		r := t.srcs[k]
		if r == h.dest {
			continue
		}
		for i := 0; i < n; i++ {
			if regs[i] == r {
				continue outer
			}
		}
		regs[n] = r
		n++
	}
	return n
}

func refControlClass(w []*refSlot, i, j int) (controlBit, ok bool) {
	nControl, nTaken := 0, 0
	for k := i; k < j; k++ {
		s := w[k]
		if !s.op.IsControl() {
			continue
		}
		if s.op.IsIndirect() {
			return false, false
		}
		nControl++
		if s.taken {
			nTaken++
		}
	}
	switch {
	case nTaken == 0:
		return false, true
	case nTaken == 1 && nControl == 1:
		return true, true
	default:
		return false, false
	}
}

func (d *refDetector) inducesCycle(i, j int) bool {
	wn := d.wn
	if cap(d.cycSeen) < wn {
		d.cycSeen = make([]uint64, wn)
		d.cycTodo = make([]uint64, wn)
	}
	seen := d.cycSeen[:wn]
	todo := d.cycTodo[:wn]
	jw, jb := j>>6, uint64(1)<<uint(j&63)
	row := d.colBits[i*wn : (i+1)*wn]
	copy(seen, row)
	seen[jw] &^= jb
	copy(todo, seen)
	for {
		x := -1
		for wi := 0; wi < wn; wi++ {
			if todo[wi] != 0 {
				x = wi<<6 + bits.TrailingZeros64(todo[wi])
				todo[wi] &= todo[wi] - 1
				break
			}
		}
		if x < 0 {
			return false
		}
		xr := d.colBits[x*wn : (x+1)*wn]
		if xr[jw]&jb != 0 {
			return true
		}
		for wi := 0; wi < wn; wi++ {
			nw := xr[wi] &^ seen[wi]
			if wi == jw {
				nw &^= jb
			}
			seen[wi] |= nw
			todo[wi] |= nw
		}
	}
}

func (d *refDetector) pairIndependent(w []*refSlot, cycle int64) {
	for i := 0; i < len(w); i++ {
		h := w[i]
		if h.inval || h.head || h.tail {
			continue
		}
		for j := i + 1; j < len(w) && j-i <= MaxOffset; j++ {
			t := w[j]
			if t.inval || t.head || t.tail {
				continue
			}
			if !refSameSources(w, i, j) {
				continue
			}
			if d.depBit(j, i) {
				continue
			}
			ctrl, ok := refControlClass(w, i, j)
			if !ok {
				continue
			}
			if d.table.Blacklisted(h.pc, t.pc) {
				continue
			}
			h.head, t.tail = true, true
			d.table.Install(h.pc, t.pc, Pointer{Control: ctrl, Offset: uint8(j - i)}, cycle+int64(d.cfg.DetectionDelay))
			d.stats.IndependentPairs++
			break
		}
	}
}

func refSameSources(w []*refSlot, i, j int) bool {
	a, b := w[i], w[j]
	if a.nsrc != b.nsrc {
		return false
	}
	lastWriterBefore := func(r isa.Reg, row int) int {
		for x := row - 1; x >= 0; x-- {
			if w[x].dest == r {
				return x
			}
		}
		return -1
	}
	for k := 0; k < b.nsrc; k++ {
		r := b.srcs[k]
		found := false
		for m := 0; m < a.nsrc; m++ {
			if a.srcs[m] == r {
				found = true
			}
		}
		if !found {
			return false
		}
		if lastWriterBefore(r, i) != lastWriterBefore(r, j) {
			return false
		}
	}
	return true
}
