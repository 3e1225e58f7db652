package mop

import (
	"fmt"
	"testing"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/isa"
	"macroop/internal/rng"
)

// fuzzOps is the opcode palette the fuzzer draws from: ALU candidates,
// non-candidates, loads/stores, and every control-flow shape the window
// rules care about (direct taken/not-taken, indirect).
var fuzzOps = []isa.Op{
	isa.ADD, isa.ADDI, isa.SUB, isa.MUL, isa.LUI, isa.MOVI,
	isa.LD, isa.STA, isa.STD,
	isa.BEQ, isa.JMP, isa.JAL, isa.JR,
	isa.FADD, isa.DIV, isa.HALT,
}

// diffRecord is one instruction of a looping fuzz stream: its variants
// on even and odd passes through the loop, the size of the rename group
// that starts at it, and the ban it makes before each group holding it
// is observed.
type diffRecord struct {
	inst  [2]functional.DynInst
	group int
	ban   byte
}

// Ban actions, by the record's ban byte.
const (
	banNone    = 200 // below: no ban
	banFilter  = 230 // below: the last-arriving filter deletes the head's pointer
	banPair    = 250 // below: ban the pair (pc, pc+1+ban%8)
	burstCount = 300 // otherwise: ban this many pairs on the head, more than the memo key counts
)

// Below banNone, the ban byte mod 8 instead names the one field that
// differs on odd passes, so a window recurs with only that field
// changed; 0 and 7 change nothing.
const (
	varyPC = 1 + iota
	varyOp
	varyDest
	varySrc1
	varySrc2
	varyTaken
)

const (
	diffRecordBytes = 5
	diffMaxRecords  = 48
	diffPCs         = 48 // PCs of ordinary records: 0..diffPCs-1
	longStreamFlag  = 0xff
	longRecords     = 40_000 // 10,000 distinct 8-slot windows a loop
	longPCs         = 4096
)

func fuzzReg(b byte) isa.Reg {
	if b%8 == 7 {
		return isa.NoReg
	}
	return isa.Reg(b % 8) // R0..R6: includes the zero register
}

// nextReg steps through R0..R6 and NoReg.
func nextReg(r isa.Reg) isa.Reg {
	if r == isa.NoReg {
		return isa.R0
	}
	return fuzzReg(byte(r) + 1)
}

// decodeRecord decodes 5 bytes: op (bit 7: taken), pc, dest|src1<<4,
// src2|group<<4, ban. PCs collide on purpose: one PC can carry different
// instructions, as a trace can deliver. A non-candidate with a pc byte
// of 0xf0 or more gets a PC beyond the memo key's field, and no odd-pass
// variant; non-candidates are never heads or tails, so the table never
// grows to reach it.
func decodeRecord(b []byte) diffRecord {
	opIdx := int(b[0]&0x7f) % len(fuzzOps)
	op := fuzzOps[opIdx]
	in := functional.DynInst{
		PC: int(b[1]) % diffPCs,
		Inst: isa.Instruction{
			Op: op, Dest: fuzzReg(b[2]), Src1: fuzzReg(b[2] >> 4), Src2: fuzzReg(b[3]),
		},
		Taken: op.IsControl() && b[0]&0x80 != 0,
	}
	alt := in
	if b[1] >= 0xf0 && !op.IsMOPCandidate() {
		in.PC = 1<<keyPCBits + int(b[1]&15)
		alt = in
	} else if b[4] < banNone {
		switch b[4] % 8 {
		case varyPC:
			alt.PC = (in.PC + diffPCs/2) % diffPCs
		case varyOp:
			alt.Inst.Op = fuzzOps[(opIdx+3)%len(fuzzOps)]
			alt.Taken = alt.Inst.Op.IsControl() && b[0]&0x80 != 0
		case varyDest:
			alt.Inst.Dest = nextReg(in.Inst.Dest)
		case varySrc1:
			alt.Inst.Src1 = nextReg(in.Inst.Src1)
		case varySrc2:
			alt.Inst.Src2 = nextReg(in.Inst.Src2)
		case varyTaken:
			alt.Taken = op.IsControl() && !in.Taken
		}
	}
	return diffRecord{inst: [2]functional.DynInst{in, alt}, group: 1 + int(b[3]>>4)%8, ban: b[4]}
}

// decodeDiffStream decodes a looping stream: the first byte picks how
// many times the body repeats, the rest are records. A first byte of
// longStreamFlag instead expands the next bytes into a seed for a long
// stream of random 4-wide groups, with more distinct windows than the
// memo holds, run twice under a 2-group wired-OR scope so every window
// packs.
func decodeDiffStream(data []byte) (body []diffRecord, loops int, long bool) {
	if len(data) == 0 {
		return nil, 0, false
	}
	if data[0] == longStreamFlag {
		var seed uint64
		for _, b := range data[1:] {
			seed = seed*131 + uint64(b)
		}
		r := rng.New(seed)
		var b [diffRecordBytes]byte
		for len(body) < longRecords {
			for k := range b {
				b[k] = byte(r.Uint64())
			}
			b[3] = b[3]&0x0f | 3<<4 // groups of 4
			b[4] = 0                // no bans
			rec := decodeRecord(b[:])
			rec.inst[0].PC = r.Intn(longPCs)
			rec.inst[1] = rec.inst[0]
			body = append(body, rec)
		}
		return body, 2, true
	}
	for i := 1; i+diffRecordBytes <= len(data) && len(body) < diffMaxRecords; i += diffRecordBytes {
		body = append(body, decodeRecord(data[i:i+diffRecordBytes]))
	}
	return body, 2 + int(data[0]%7), false
}

// diffConfigs are the detector configurations FuzzDetector compares
// under: both wakeups, heuristic and precise cycles, independent pairing
// on and off, 2x and 4x MOPs, and scopes of 1 to 3 groups.
func diffConfigs() []config.MOPConfig {
	var cfgs []config.MOPConfig
	for _, wk := range []config.WakeupStyle{config.WakeupWiredOR, config.WakeupCAM2Src} {
		for _, precise := range []bool{false, true} {
			for _, indep := range []bool{false, true} {
				for _, size := range []int{2, 4} {
					for scope := 1; scope <= 3; scope++ {
						c := config.DefaultMOP()
						c.Wakeup, c.PreciseCycleDetection, c.GroupIndependent = wk, precise, indep
						c.MaxMOPSize, c.ScopeGroups = size, scope
						cfgs = append(cfgs, c)
					}
				}
			}
		}
	}
	return cfgs
}

// ban applies a record's ban action for the variant at pc to both
// tables.
func ban(action byte, pc int, ref, got *PointerTable) {
	if action < banNone || uint(pc) >= 1<<keyPCBits {
		return
	}
	switch {
	case action < banFilter:
		if _, tail, ok := ref.Lookup(pc, 1<<40); ok {
			ref.Delete(pc, tail)
			got.Delete(pc, tail)
		}
	case action < banPair:
		ref.Delete(pc, pc+1+int(action%8))
		got.Delete(pc, pc+1+int(action%8))
	default:
		for k := 0; k < burstCount; k++ {
			ref.Delete(pc, 1<<20+k)
			got.Delete(pc, 1<<20+k)
		}
	}
}

// sameTables compares the detectors' statistics and tables, with Lookup
// at the current cycle and after every pointer is visible for each PC.
func sameTables(ref *refDetector, got *Detector, pcs int, now int64) error {
	if ref.stats != got.stats {
		return fmt.Errorf("stats: ref %+v, got %+v", ref.stats, got.stats)
	}
	rt, gt := ref.table, got.table
	if rt.Installs() != gt.Installs() || rt.Deletes() != gt.Deletes() || rt.Len() != gt.Len() {
		return fmt.Errorf("table: ref installs/deletes/len %d/%d/%d, got %d/%d/%d",
			rt.Installs(), rt.Deletes(), rt.Len(), gt.Installs(), gt.Deletes(), gt.Len())
	}
	for pc := 0; pc < pcs; pc++ {
		for _, at := range []int64{now, 1 << 40} {
			rp, rtail, rok := rt.Lookup(pc, at)
			gp, gtail, gok := gt.Lookup(pc, at)
			if rp != gp || rtail != gtail || rok != gok {
				return fmt.Errorf("Lookup(%d, %d): ref %+v→%d %v, got %+v→%d %v", pc, at, rp, rtail, rok, gp, gtail, gok)
			}
		}
	}
	return nil
}

// FuzzDetector drives the flat, memoized Detector and the reference
// pointer-window detector over the same looping stream, with the same
// bans interleaved, and requires identical DetectStats, pointer tables
// and install/delete counts after every Observe, under every
// configuration of diffConfigs. The loops make windows repeat, so the
// memo hits; the seeds also cover a window that does not pack (a PC
// beyond the key's field), more distinct windows than the memo holds,
// and a head with more bans than the key can count.
func FuzzDetector(f *testing.F) {
	f.Add([]byte{4,
		5, 1, 0x21, 0x12, 0, // MOVI
		0, 2, 0x13, 0x22, 0, // ADD
		1, 3, 0x34, 0x03, 210, // ADDI, filter delete
		9, 4, 0x41, 0x14, 0, // BEQ
		0x89, 5, 0x51, 0x24, 0, // BEQ taken
		2, 6, 0x65, 0x16, 240, // SUB, pair ban
		0x0a, 7, 0x06, 0x01, 0, // JMP
		5, 8, 0x46, 0x36, 0, // MOVI
	})
	f.Add([]byte{2, // a wide PC on a load, and JR/HALT in the window
		6, 0xf3, 0x12, 0x13, 0,
		0, 1, 0x21, 0x32, 0,
		12, 2, 0x03, 0x21, 0,
		0, 3, 0x31, 0x16, 0,
		15, 4, 0x07, 0x07, 0,
		1, 5, 0x45, 0x14, 0,
	})
	f.Add([]byte{6, // a ban burst on a head in a tight loop
		0, 1, 0x21, 0x12, 255,
		0, 2, 0x12, 0x11, 0,
		0, 3, 0x23, 0x12, 0,
		0, 4, 0x34, 0x13, 220,
	})
	f.Add([]byte{4, // one window with the same tail flags and different head flags
		5, 1, 0x75, 0x17, 0, // MOVI r5
		5, 2, 0x76, 0x17, 0, // MOVI r6
		5, 3, 0x72, 0x17, 0, // X: MOVI r2, heads T
		0, 4, 0x13, 0x12, 0, // T: ADD r3 <- r1, r2
		1, 5, 0x24, 0x17, 0, // U: ADDI r4 <- r2, tail for X only if X is free
		5, 6, 0x76, 0x17, 0, // MOVI r6
		5, 7, 0x71, 0x17, 0, // MOVI r1: heads T instead, X loses the conflict
		5, 2, 0x76, 0x17, 0,
		5, 3, 0x72, 0x17, 0,
		0, 4, 0x13, 0x12, 0,
		1, 5, 0x24, 0x17, 0,
		5, 6, 0x76, 0x17, 0,
	})
	f.Add([]byte{3, // windows that recur with one field changed on odd passes
		5, 1, 0x71, 0x17, 240, // MOVI r1, banning (1, 2)
		1, 2, 0x12, 0x17, varyPC, // ADDI r2 <- r1: at PC 2, then at unbanned 26
		5, 3, 0x71, 0x17, 0, // MOVI r1
		0, 4, 0x12, 0x17, varyOp, // ADD r2 <- r1, then MUL
		5, 5, 0x71, 0x17, varyDest, // MOVI r1, then r2
		1, 6, 0x13, 0x17, 0, // ADDI r3 <- r1
		5, 7, 0x71, 0x17, 0, // MOVI r1
		1, 8, 0x13, 0x17, varySrc1, // ADDI r3 <- r1, then r2
		5, 9, 0x71, 0x17, 0, // MOVI r1
		0, 10, 0x53, 0x11, varySrc2, // ADD r3 <- r5, r1, then r5, r2
		5, 11, 0x71, 0x37, 0, // MOVI r1, a group of 4
		9, 12, 0x57, 0x36, varyTaken, // BEQ, then taken: two controls and a taken one forbid the pair
		9, 13, 0x57, 0x36, 0, // BEQ
		1, 14, 0x12, 0x37, 0, // ADDI r2 <- r1
	})
	f.Add([]byte{1, // a two-hop path I → X → Y → J makes pairing I with J a cycle
		5, 1, 0x71, 0x37, 0, // I: MOVI r1
		3, 2, 0x12, 0x37, 0, // X: MUL r2 <- r1, not a tail
		1, 3, 0x23, 0x37, 0, // Y: ADDI r3 <- r2
		0, 4, 0x14, 0x33, 0, // J: ADD r4 <- r1, r3
	})
	f.Add([]byte{longStreamFlag, 1, 2, 3})

	cfgs := diffConfigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		body, loops, long := decodeDiffStream(data)
		if len(body) == 0 {
			return
		}
		pcs, every := diffPCs, int64(1)
		if long {
			pcs, every = longPCs, 512
		}
		grp := make([]*functional.DynInst, 0, 8)
		for _, cfg := range cfgs {
			if long && (cfg.ScopeGroups != 2 || cfg.MaxMOPSize != 2 || cfg.PreciseCycleDetection || cfg.Wakeup != config.WakeupWiredOR) {
				continue // the memo's capacity does not depend on the rules
			}
			ref := newRefDetector(cfg, NewPointerTable())
			got := NewDetector(cfg, NewPointerTable())
			total, cycle := loops*len(body), int64(0)
			for k := 0; k < total; cycle++ {
				grp = grp[:0]
				for size := body[k%len(body)].group; size > 0 && k < total; size-- {
					rec := &body[k%len(body)]
					in := &rec.inst[k/len(body)%2]
					ban(rec.ban, in.PC, ref.table, got.table)
					grp = append(grp, in)
					k++
				}
				ref.Observe(cycle, grp)
				got.Observe(cycle, grp)
				n := 0
				if cycle%every == 0 || k == total {
					n = pcs
				}
				if err := sameTables(ref, got, n, cycle); err != nil {
					t.Fatalf("cfg %+v, group %d: %v", cfg, cycle, err)
				}
			}
			if misses := got.packed - got.hits; long && misses <= 2*memoSets {
				t.Fatalf("cfg %+v: %d memo misses do not overflow its %d entries", cfg, misses, 2*memoSets)
			}
		}
	})
}
