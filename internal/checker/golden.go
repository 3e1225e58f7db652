package checker

import (
	"bufio"
	"context"
	"fmt"
	"sort"
	"strings"

	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/program"
)

// Record is one benchmark's golden reference under one machine
// configuration: the architectural checksum plus the key timing stats
// whose drift would silently invalidate the EXPERIMENTS.md tables.
type Record struct {
	Bench       string
	Checksum    uint64 // architectural-effect checksum (config-invariant)
	Committed   int64  // committed instructions
	Cycles      int64  // total cycles
	IPC         float64
	ReplayRate  float64 // replays per committed instruction
	MOPCoverage float64 // fraction of committed instructions grouped into MOPs
}

// Line renders the record as one golden-file line. Comparisons are done
// on this exact text, so the format is the compatibility contract; bump
// the golden files (go test ./internal/checker -update) when changing it.
func (r Record) Line() string {
	return fmt.Sprintf("%-10s checksum=%016x committed=%d cycles=%d ipc=%.4f replay=%.6f mop=%.6f",
		r.Bench, r.Checksum, r.Committed, r.Cycles, r.IPC, r.ReplayRate, r.MOPCoverage)
}

// RecordOf distills a checked run into its golden record.
func RecordOf(sum Summary, res *core.Result) Record {
	return Record{
		Bench:       res.Benchmark,
		Checksum:    sum.Checksum,
		Committed:   res.Committed,
		Cycles:      res.Cycles,
		IPC:         res.IPC,
		ReplayRate:  res.ReplayRate(),
		MOPCoverage: res.GroupedFrac(),
	}
}

// CheckedRun simulates prog on m with a lockstep checker attached and
// returns the timing result plus the check summary. sumLimit caps the
// commits folded into the checksum (normally the maxInsts budget, so
// checksums compare equal across machine configurations).
func CheckedRun(m config.Machine, prog *program.Program, maxInsts, sumLimit int64) (*core.Result, Summary, error) {
	return CheckedRunContext(context.Background(), m, prog, maxInsts, sumLimit)
}

// CheckedRunContext is CheckedRun honouring ctx cancellation: the
// simulation stops with a typed cancellation error within one poll window
// of ctx expiring.
func CheckedRunContext(ctx context.Context, m config.Machine, prog *program.Program, maxInsts, sumLimit int64) (*core.Result, Summary, error) {
	c, err := core.New(m, prog)
	if err != nil {
		return nil, Summary{}, err
	}
	k := New(prog, m.IQEntries, sumLimit)
	c.SetHooks(k)
	res, err := c.RunContext(ctx, maxInsts)
	if err != nil {
		return nil, Summary{}, err
	}
	return res, k.Summary(), nil
}

// FormatGolden renders records as golden-file content, sorted by
// benchmark name for byte-stable output.
func FormatGolden(title string, recs []Record) []byte {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Bench < sorted[j].Bench })
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	for _, r := range sorted {
		b.WriteString(r.Line())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// ParseGolden reads golden-file content into benchmark -> exact line.
// Blank lines and '#' comments are skipped.
func ParseGolden(data []byte) (map[string]string, error) {
	out := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimRight(sc.Text(), " \t")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		fields := strings.Fields(trimmed)
		if len(fields) < 2 {
			return nil, fmt.Errorf("golden line %d: malformed: %q", n, line)
		}
		if _, dup := out[fields[0]]; dup {
			return nil, fmt.Errorf("golden line %d: duplicate benchmark %q", n, fields[0])
		}
		out[fields[0]] = line
	}
	return out, sc.Err()
}
