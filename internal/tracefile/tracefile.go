// Package tracefile records and replays dynamic instruction streams in a
// line-oriented text format, so the timing core can run trace-driven (the
// classic alternative to execution-driven simulation) and users can bring
// externally generated workloads.
//
// Format: one instruction per line, whitespace-separated fields
//
//	pc op dest src1 src2 imm memaddr taken nextpc
//
// with "-" for absent registers, 0/1 for taken, and '#' comments. The
// recorder emits exactly this; the reader validates as it goes.
package tracefile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"macroop/internal/functional"
	"macroop/internal/isa"
)

// Writer records a dynamic stream.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter wraps an io.Writer for trace recording.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintln(bw, "# macroop trace v1: pc op dest src1 src2 imm memaddr taken nextpc")
	return &Writer{w: bw}
}

func regStr(r isa.Reg) string {
	if r == isa.NoReg {
		return "-"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Record appends one dynamic instruction.
func (w *Writer) Record(d *functional.DynInst) {
	if w.err != nil {
		return
	}
	taken := 0
	if d.Taken {
		taken = 1
	}
	_, w.err = fmt.Fprintf(w.w, "%d %s %s %s %s %d %d %d %d\n",
		d.PC, d.Inst.Op, regStr(d.Inst.Dest), regStr(d.Inst.Src1), regStr(d.Inst.Src2),
		d.Inst.Imm, d.MemAddr, taken, d.NextPC)
	w.n++
}

// Flush finishes the trace; it returns the first write error, if any.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Count returns how many records were written.
func (w *Writer) Count() int64 { return w.n }

// Reader replays a recorded stream as a functional.Source.
type Reader struct {
	sc   *bufio.Scanner
	seq  int64
	line int
	done bool
}

// NewReader wraps an io.Reader producing trace records.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &Reader{sc: sc}
}

var opByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op)
	for op := isa.Op(0); op < isa.Op(isa.NumOps); op++ {
		m[op.String()] = op
	}
	return m
}()

func parseReg(s string) (isa.Reg, error) {
	if s == "-" {
		return isa.NoReg, nil
	}
	if !strings.HasPrefix(s, "r") {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return isa.NoReg, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

// Step implements functional.Source.
func (r *Reader) Step(d *functional.DynInst) error {
	if r.done {
		return functional.ErrHalted
	}
	for {
		if !r.sc.Scan() {
			r.done = true
			if err := r.sc.Err(); err != nil {
				return fmt.Errorf("tracefile: %w", err)
			}
			return functional.ErrHalted
		}
		r.line++
		text := strings.TrimSpace(r.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 9 {
			return fmt.Errorf("tracefile line %d: want 9 fields, got %d", r.line, len(f))
		}
		pc, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("tracefile line %d: pc: %w", r.line, err)
		}
		if pc < 0 {
			return fmt.Errorf("tracefile line %d: pc: negative %d", r.line, pc)
		}
		op, ok := opByName[f[1]]
		if !ok {
			return fmt.Errorf("tracefile line %d: unknown op %q", r.line, f[1])
		}
		dest, err := parseReg(f[2])
		if err != nil {
			return fmt.Errorf("tracefile line %d: dest: %w", r.line, err)
		}
		src1, err := parseReg(f[3])
		if err != nil {
			return fmt.Errorf("tracefile line %d: src1: %w", r.line, err)
		}
		src2, err := parseReg(f[4])
		if err != nil {
			return fmt.Errorf("tracefile line %d: src2: %w", r.line, err)
		}
		imm, err := strconv.ParseInt(f[5], 10, 64)
		if err != nil {
			return fmt.Errorf("tracefile line %d: imm: %w", r.line, err)
		}
		addr, err := strconv.ParseUint(f[6], 10, 64)
		if err != nil {
			return fmt.Errorf("tracefile line %d: memaddr: %w", r.line, err)
		}
		taken := f[7] == "1"
		next, err := strconv.Atoi(f[8])
		if err != nil {
			return fmt.Errorf("tracefile line %d: nextpc: %w", r.line, err)
		}
		*d = functional.DynInst{
			Seq:     r.seq,
			PC:      pc,
			Inst:    isa.Instruction{Op: op, Dest: dest, Src1: src1, Src2: src2, Imm: imm},
			MemAddr: addr,
			Taken:   taken,
			NextPC:  next,
		}
		r.seq++
		return nil
	}
}
