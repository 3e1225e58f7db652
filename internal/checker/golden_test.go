package checker_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"macroop/internal/checker"
	"macroop/internal/config"
	"macroop/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/golden files")

// goldenInsts is the committed-instruction budget per golden simulation.
// It matches the checksum limit, so the recorded checksums are identical
// across all scheduler configurations.
const goldenInsts = 50_000

// goldenConfig is one named machine configuration of the golden matrix.
type goldenConfig struct {
	name string
	m    config.Machine
}

// goldenConfigs returns the five scheduler configurations the paper's
// evaluation rests on (Section 6.2), all with the 32-entry issue queue.
func goldenConfigs() []goldenConfig {
	mopCfg := func(w config.WakeupStyle) config.Machine {
		mc := config.DefaultMOP()
		mc.Wakeup = w
		return config.Default().WithMOP(mc)
	}
	return []goldenConfig{
		{"base", config.Default().WithSched(config.SchedBase)},
		{"2cycle", config.Default().WithSched(config.SchedTwoCycle)},
		{"mop-2src", mopCfg(config.WakeupCAM2Src)},
		{"mop-wiredor", mopCfg(config.WakeupWiredOR)},
		{"sf-squash", config.Default().WithSched(config.SchedSelectFreeSquashDep)},
	}
}

// TestGolden simulates every benchmark under every scheduler config with
// the lockstep oracle attached and compares checksums and key stats
// against testdata/golden/<config>.golden. Regenerate with:
//
//	go test ./internal/checker -run Golden -update
func TestGolden(t *testing.T) {
	benches := workload.Names()
	if testing.Short() {
		if *update {
			t.Fatal("-update needs the full benchmark suite; drop -short")
		}
		benches = benches[:3]
	}
	cfgs := goldenConfigs()

	type key struct{ cfg, bench string }
	recs := make(map[key]checker.Record)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for _, gc := range cfgs {
		for _, b := range benches {
			wg.Add(1)
			go func(gc goldenConfig, b string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				prof, err := workload.ByName(b)
				if err != nil {
					t.Errorf("%s/%s: %v", gc.name, b, err)
					return
				}
				prog, err := workload.Generate(prof)
				if err != nil {
					t.Errorf("%s/%s: generate: %v", gc.name, b, err)
					return
				}
				res, sum, err := checker.CheckedRun(gc.m, prog, goldenInsts, goldenInsts)
				if err != nil {
					t.Errorf("%s/%s: %v", gc.name, b, err)
					return
				}
				mu.Lock()
				recs[key{gc.name, b}] = checker.RecordOf(sum, res)
				mu.Unlock()
			}(gc, b)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The architectural checksum is config-invariant: every scheduler
	// must have committed exactly the same work.
	for _, b := range benches {
		want := recs[key{cfgs[0].name, b}].Checksum
		for _, gc := range cfgs[1:] {
			if got := recs[key{gc.name, b}].Checksum; got != want {
				t.Errorf("%s: checksum under %s (%016x) differs from %s (%016x)",
					b, gc.name, got, cfgs[0].name, want)
			}
		}
	}

	if *update {
		for _, gc := range cfgs {
			var rs []checker.Record
			for _, b := range benches {
				rs = append(rs, recs[key{gc.name, b}])
			}
			title := fmt.Sprintf("golden results: %s scheduler, %d insts per benchmark", gc.name, goldenInsts)
			if err := os.WriteFile(goldenPath(gc.name), checker.FormatGolden(title, rs), 0o644); err != nil {
				t.Fatalf("write golden: %v", err)
			}
		}
		return
	}

	for _, gc := range cfgs {
		data, err := os.ReadFile(goldenPath(gc.name))
		if err != nil {
			t.Fatalf("missing golden file for %s (run: go test ./internal/checker -run Golden -update): %v", gc.name, err)
		}
		want, err := checker.ParseGolden(data)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, b := range benches {
			got := recs[key{gc.name, b}].Line()
			switch w, ok := want[b]; {
			case !ok:
				t.Errorf("%s/%s: no golden record (rerun with -update?)", gc.name, b)
			case w != got:
				t.Errorf("%s/%s: result drifted from golden:\n  golden:  %s\n  current: %s",
					gc.name, b, w, got)
			}
		}
	}
}

func goldenPath(cfg string) string {
	return filepath.Join("testdata", "golden", cfg+".golden")
}
