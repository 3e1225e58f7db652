package mop

import "macroop/internal/isa"

// The detection memo replays a step's outcome when the detector sees a
// window it has analysed before. A step is a pure function of three
// things: the run-constant configuration, every field it reads from the
// window's slots, and the answers of PointerTable.Blacklisted. The key
// packs the second into one word per slot, and the third as each slot's
// PC's ban count: the blacklist only grows, so within one run a head's
// count names its banned set exactly, which is also why the memo belongs
// to one detector (and its table) and is never shared. Group boundaries
// are not part of the key because a step reads only the flattened window.
// Every key word is compared exactly; the hash only picks the set.
//
// The value is what the step wrote: the head and tail masks after it, its
// PointerTable.Install calls as window positions (replayed through the
// table at the current cycle, so visibility and the table's own
// keep-the-earlier-visibility rule behave as on a first run), and its
// DetectStats deltas.
//
// The table is fixed-size, 2-way set-associative with LRU replacement,
// and allocated once per detector: memoSets × 2 entries of 88 bytes, 704
// KiB. A window longer than memoSlots, a PC outside the key's field or a
// head with more bans than the field holds runs the plain step.
const (
	memoSlots   = 8 // the paper's 8-instruction scope
	memoSetBits = 12
	memoSets    = 1 << memoSetBits
)

// Key word layout, low bit first: pc (28 bits), op (6), dest (6), two
// deduplicated sources (6 each, NoReg as 63), taken, head, tail, the PC's
// ban count (8), and a present bit so no slot's word is zero.
const (
	keyPCBits    = 28
	keyOpShift   = keyPCBits
	keyDestShift = keyOpShift + 6
	keySrcShift  = keyDestShift + 6
	keyTaken     = uint64(1) << (keySrcShift + 12)
	keyHead      = keyTaken << 1
	keyTail      = keyTaken << 2
	keyBanShift  = keySrcShift + 15
	keyMaxBans   = 1<<(63-keyBanShift) - 1
	keyPresent   = uint64(1) << 63
)

// Every opcode fits the key's 6-bit op field.
const _ = uint(1<<6 - isa.NumOps)

// keyWord packs the fields of a slot that stay fixed while it is in the
// window. Registers are below isa.NumRegs or NoReg, so 6 bits keep them
// distinct: a step indexes its writer table by register and panics on any
// other before its window could be recorded.
func keyWord(pc int, op isa.Op, dest isa.Reg, src [2]isa.Reg, taken bool) uint64 {
	w := keyPresent | uint64(pc)&(1<<keyPCBits-1) | uint64(op)<<keyOpShift |
		uint64(dest&63)<<keyDestShift | uint64(src[0]&63)<<keySrcShift | uint64(src[1]&63)<<(keySrcShift+6)
	if taken {
		w |= keyTaken
	}
	return w
}

// memoEntry is one recorded step. Its key is all zero until first filled,
// which no window matches.
type memoEntry struct {
	key        [memoSlots]uint64 // one word per slot; 0 past the window's end
	head, tail uint8             // the masks after the step
	ninst      uint8
	mru        uint8                 // way 0 only: the set's most recently used way
	inst       [memoSlots - 1]uint16 // installs, packed as in Detector.inst
	stats      [6]uint8              // DetectStats deltas, in field order
}

type memoSet [2]memoEntry

// windowKey fills key for the current window and returns its set, or
// false if the window does not pack.
func (d *Detector) windowKey(key *[memoSlots]uint64) (set int, ok bool) {
	if d.n > memoSlots {
		return 0, false
	}
	var h uint64
	for p := 0; p < d.n; p++ {
		s := d.at(p)
		if uint(s.pc) >= 1<<keyPCBits {
			return 0, false
		}
		bans := d.table.bans(s.pc)
		if bans > keyMaxBans {
			return 0, false
		}
		w := s.key | uint64(bans)<<keyBanShift | d.head>>p&1*keyHead | d.tail>>p&1*keyTail
		key[p] = w
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	return int(h >> (64 - memoSetBits)), true
}

// matches reports whether e recorded the n-slot window keyed key. Key
// words are never zero, so the entry's word after the first n ends it.
func (e *memoEntry) matches(key *[memoSlots]uint64, n int) bool {
	for p := 0; p < n; p++ {
		if e.key[p] != key[p] {
			return false
		}
	}
	return n == memoSlots || e.key[n] == 0
}

// record stores the step the detector just ran on the window keyed key;
// before is the statistics from before it. A window of at most memoSlots
// slots installs at most memoSlots-1 pointers (each from a distinct head
// with a younger tail) and counts at most memoSlots² events of each kind.
func (e *memoEntry) record(key *[memoSlots]uint64, d *Detector, before *DetectStats) {
	e.key = *key
	e.head, e.tail = uint8(d.head), uint8(d.tail)
	e.ninst = uint8(d.ninst)
	for k, in := range d.inst[:d.ninst] {
		e.inst[k] = in
	}
	s := &d.stats
	e.stats = [6]uint8{
		uint8(s.DependentPairs - before.DependentPairs),
		uint8(s.IndependentPairs - before.IndependentPairs),
		uint8(s.CycleRejects - before.CycleRejects),
		uint8(s.ControlRejects - before.ControlRejects),
		uint8(s.CAMRejects - before.CAMRejects),
		uint8(s.ConflictLosses - before.ConflictLosses),
	}
}

// replay applies a recorded step to the current window at this cycle.
func (d *Detector) replay(e *memoEntry, cycle int64) {
	d.head, d.tail = uint64(e.head), uint64(e.tail)
	at := cycle + int64(d.cfg.DetectionDelay)
	for _, in := range e.inst[:e.ninst] {
		d.install(in, at)
	}
	s := &d.stats
	s.DependentPairs += int64(e.stats[0])
	s.IndependentPairs += int64(e.stats[1])
	s.CycleRejects += int64(e.stats[2])
	s.ControlRejects += int64(e.stats[3])
	s.CAMRejects += int64(e.stats[4])
	s.ConflictLosses += int64(e.stats[5])
}
