package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// tiny runs every workload at a budget small enough for a unit test.
func tiny() ([]workloadDef, params) {
	defs := slices.Clone(workloads)
	for i := range defs {
		defs[i].insts = 3000
	}
	sp := defaultServe
	sp.warmInsts, sp.probe = 500, 4
	return defs, params{seed: 7, seconds: 300 * time.Millisecond, workers: 2, setups: 2, serve: sp}
}

// TestEveryMetricPrinted runs each workload untraced and traced at a tiny
// budget. Every metric of the workload must be printed with its unit, the
// result line must carry exactly BENCHMARK.json's metrics, and nothing
// may fail.
func TestEveryMetricPrinted(t *testing.T) {
	defs, p := tiny()
	for _, w := range defs {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			res, err := bench([]workloadDef{w}, p, traced, tracePath, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d\n%s", w.name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if traced {
				defs = append(slices.Clone(endToEnd), perLayer...)
			}
			for _, d := range defs {
				if d.on != allWorkloads && d.on != w.name {
					continue
				}
				line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + ` +\S+ ` + regexp.QuoteMeta(d.unit) + `\b`)
				if !line.MatchString(out.String()) {
					t.Errorf("%s traced=%v: %s not printed with unit %s\n%s", w.name, traced, d.name, d.unit, out.String())
				}
			}
			want := jsonDefs(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result has %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: result metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if traced {
				checkTrace(t, tracePath)
			}
		}
	}
}

// checkTrace reads a written trace: Chrome trace-event JSON whose cell
// spans carry benchmark, config, simulated cycles and committed count.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("trace %s: %v", path, err)
	}
	cells := 0
	for _, e := range tf.TraceEvents {
		if e.Name != "cell" {
			continue
		}
		cells++
		for _, k := range []string{"benchmark", "config", "cycles", "committed"} {
			if _, ok := e.Args[k]; !ok {
				t.Fatalf("cell span without %s: %+v", k, e)
			}
		}
	}
	if cells == 0 {
		t.Errorf("trace %s has no cell spans among %d events", path, len(tf.TraceEvents))
	}
}

// TestGateCountsPerturbedStat shows the correctness gate works: a
// reference statistic changed by one, on either path, is a failed
// operation.
func TestGateCountsPerturbedStat(t *testing.T) {
	_, p := tiny()
	p.insts = 3000
	progs, _, err := generateSuite(splitmix(p.seed), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells := sweepCells(progs, fig15Configs(), p.insts)[:16]
	ps := runPass(cells, p.workers, nil, 0)
	ref := make([]checked, len(cells))
	for i, c := range cells {
		if ref[i], err = runChecked(c); err != nil {
			t.Fatal(err)
		}
	}
	r := newReport()
	sweepGate(r, cells, []*pass{ps}, ref)
	if r.failed != 0 {
		t.Fatalf("clean sweep gate failed %d: %v", r.failed, r.problems)
	}
	ref[3].stats.Cycles++
	ref[5].checksum ^= 1
	r = newReport()
	sweepGate(r, cells, []*pass{ps}, ref)
	if r.failed != 2 {
		t.Errorf("perturbed sweep gate failed %d, want 2: %v", r.failed, r.problems)
	}

	p.workload = "serve-mixed"
	srv, _, err := serveSetup(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := traffic(srv, p, p.seconds, 0, nil, 0)
	if err := srv.close(); err != nil {
		t.Fatal(err)
	}
	defaults, _, err := generateSuite(0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r = newReport()
	referenceGate(r, w, defaults, p.insts)
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("clean serve reference gate: %d of %d failed: %v", r.failed, r.attempted, r.problems)
	}
	for i := range w.cells {
		if w.cells[i].executed() {
			w.cells[i].cr.Result.SchedStats.Replays++
			break
		}
	}
	r = newReport()
	referenceGate(r, w, defaults, p.insts)
	if r.failed != 1 {
		t.Errorf("perturbed serve reference gate failed %d, want 1: %v", r.failed, r.problems)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metric
// and workload tables here in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, perfbench %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		got  []metricJSON
		want []metricDef
	}{{bj.EndToEnd, jsonDefs(false)}, {bj.PerLayer, jsonDefs(true)}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, perfbench %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			g := c.got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, perfbench %s %s %s", i, g, d.name, d.unit, d.better)
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%g %g, want p90 90", p, v)
	}
	if p, v := tail(xs[:15]); p != 50 || v != 8 {
		t.Errorf("tail of 1..15 = p%g %g, want the median p50 8", p, v)
	}
}
