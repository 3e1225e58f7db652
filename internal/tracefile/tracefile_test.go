package tracefile

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"macroop/internal/config"
	"macroop/internal/core"
	"macroop/internal/functional"
	"macroop/internal/workload"
	"macroop/internal/workload/workloadtest"
)

// record captures the first n committed instructions of a benchmark.
func record(t *testing.T, bench string, n int64) *bytes.Buffer {
	t.Helper()
	prof, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog := workloadtest.Generate(t, prof)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e := functional.NewExecutor(prog)
	var d functional.DynInst
	for i := int64(0); i < n; i++ {
		if err := e.Step(&d); err != nil {
			break
		}
		w.Record(&d)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestRoundTrip(t *testing.T) {
	buf := record(t, "gzip", 5000)
	text := buf.String()

	// Re-execute and compare against the replay record by record.
	prof, _ := workload.ByName("gzip")
	prog := workloadtest.Generate(t, prof)
	e := functional.NewExecutor(prog)
	r := NewReader(strings.NewReader(text))
	var want, got functional.DynInst
	for i := 0; i < 5000; i++ {
		if err := e.Step(&want); err != nil {
			break
		}
		if err := r.Step(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.PC != want.PC || got.Inst != want.Inst || got.MemAddr != want.MemAddr ||
			got.Taken != want.Taken || got.NextPC != want.NextPC {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if err := r.Step(&got); !errors.Is(err, functional.ErrHalted) {
		t.Fatalf("want ErrHalted at end, got %v", err)
	}
}

// TestTraceDrivenMatchesExecutionDriven is the headline property: replaying
// a recorded trace through the timing core gives the exact same cycle
// count as execution-driven simulation.
func TestTraceDrivenMatchesExecutionDriven(t *testing.T) {
	const n = 20000
	buf := record(t, "gap", n+n/2) // slack: STD records fuse into their STA at decode

	prof, _ := workload.ByName("gap")
	prog := workloadtest.Generate(t, prof)
	for _, m := range []config.Machine{
		config.Default(),
		config.Default().WithMOP(config.DefaultMOP()),
	} {
		cExec, err := core.New(m, prog)
		if err != nil {
			t.Fatal(err)
		}
		resExec, err := cExec.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		cTrace, err := core.NewFromSource(m, "trace", NewReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		resTrace, err := cTrace.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if resExec.Cycles != resTrace.Cycles || resExec.Committed != resTrace.Committed {
			t.Fatalf("%v: exec %d cycles / %d insts, trace %d cycles / %d insts",
				m.Sched, resExec.Cycles, resExec.Committed, resTrace.Cycles, resTrace.Committed)
		}
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"1 add r3 r1", "9 fields"},
		{"x add r3 r1 r2 0 0 0 2", "pc"},
		{"-5 add r3 r1 r2 0 0 0 2", "line 1: pc: negative -5"},
		{"1 frob r3 r1 r2 0 0 0 2", "unknown op"},
		{"1 add r99 r1 r2 0 0 0 2", "bad register"},
		{"1 add r3 r1 r2 zz 0 0 2", "imm"},
		{"1 add r3 r1 r2 0 zz 0 2", "memaddr"},
		{"1 add r3 r1 r2 0 0 0 zz", "nextpc"},
	}
	for _, c := range cases {
		r := NewReader(strings.NewReader(c.src))
		var d functional.DynInst
		err := r.Step(&d)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n  \n0 movi r1 - - 5 0 0 1\n"
	r := NewReader(strings.NewReader(src))
	var d functional.DynInst
	if err := r.Step(&d); err != nil {
		t.Fatal(err)
	}
	if d.Inst.Imm != 5 || d.Seq != 0 {
		t.Fatalf("parsed %+v", d)
	}
	if err := r.Step(&d); !errors.Is(err, functional.ErrHalted) {
		t.Fatal("expected end of stream")
	}
}
