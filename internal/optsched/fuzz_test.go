package optsched

import (
	"testing"

	"macroop/internal/config"
	"macroop/internal/program"
)

// FuzzWindowExtract hardens the window extractor and the kernel replay:
// any assemblable program prefix, under any extraction geometry, must
// produce windows without panicking, every window must be
// dependence-closed (Validate), and every model's replay on the
// production kernel must settle without error on a schedule the
// base-model validator accepts. Programs that fault mid-run (wild
// indirect jumps) must degrade to a shorter stream, not an error.
func FuzzWindowExtract(f *testing.F) {
	seeds := []struct {
		text                   string
		window, stride, maxWin uint8
	}{
		{"movi r1, 100\nhalt\n", 4, 4, 2},
		{"loop: addi r1, r1, -1\nbne r1, r0, loop\nhalt", 16, 8, 4},
		{"movi r2, 64\nld r4, 8(r2)\nst r4, 16(r2)\nld r5, 16(r2)\nhalt", 8, 4, 3},
		{"jal fn\nhalt\nfn: jr (r31)", 3, 1, 2},
		{"movi r1, 3\nmul r2, r1, r1\ndiv r3, r2, r1\nfadd f: add r4, r3, r1\nhalt", 5, 5, 1},
		{"jr (r9)\nhalt", 64, 64, 1}, // wild jump: faults immediately
		{"movi r1, 1\nadd r1, r1, r1\nadd r1, r1, r1\nhalt", 0, 0, 0},
		{"st r1, 0(r30)\nst r2, 8(r30)\nld r3, 0(r30)\nhalt", 255, 255, 255},
	}
	for _, s := range seeds {
		f.Add(s.text, s.window, s.stride, s.maxWin)
	}
	m := config.Default()
	res := ResourcesFrom(m)
	f.Fuzz(func(t *testing.T, text string, window, stride, maxWin uint8) {
		p, err := program.Assemble("fuzz", text)
		if err != nil {
			return // rejecting malformed programs is the assembler's job
		}
		spec := ExtractSpec{Window: int(window), Stride: int(stride), MaxWindows: int(maxWin) % 8}
		wins := Extract(p, m, spec)
		if len(wins) > spec.withDefaults().MaxWindows {
			t.Fatalf("extracted %d windows, cap was %d", len(wins), spec.withDefaults().MaxWindows)
		}
		for wi := range wins {
			w := &wins[wi]
			if err := w.Validate(); err != nil {
				t.Fatalf("window %d not dependence-closed: %v\nprogram:\n%s", wi, err, text)
			}
			for _, model := range Models {
				s, err := Replay(w, res, model)
				if err != nil {
					t.Fatalf("%v replay failed on fuzzed window: %v\nprogram:\n%s", model, err, text)
				}
				if err := ValidateSchedule(w, res, s.Issue); err != nil {
					t.Fatalf("%v schedule infeasible on fuzzed window: %v\nprogram:\n%s", model, err, text)
				}
			}
		}
	})
}
