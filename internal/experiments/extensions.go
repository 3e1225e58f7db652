package experiments

import (
	"fmt"

	"macroop/internal/config"
	"macroop/internal/functional"
	"macroop/internal/mop"
	"macroop/internal/stats"
)

// MOPSize evaluates the paper's future-work extension (Section 4.3):
// chained MOPs of up to 3 and 4 instructions against the evaluated pairs,
// under queue contention where the extra entry compression pays.
func (r *Runner) MOPSize() (*stats.Table, error) {
	cfgs := map[string]config.Machine{
		"base": config.Default().WithSched(config.SchedBase),
	}
	for _, size := range []int{2, 3, 4} {
		mc := config.DefaultMOP()
		mc.MaxMOPSize = size
		cfgs[fmt.Sprintf("mop%d", size)] = config.Default().WithMOP(mc)
	}
	res, err := r.RunMatrix(cfgs)
	if res == nil {
		return nil, err
	}
	t := stats.NewTable("Extension: chained MOP size (wired-OR, 32-entry IQ), IPC normalized to base",
		"benchmark", "base-IPC", "2x", "3x", "4x",
		"insert-red% 2x", "insert-red% 3x", "insert-red% 4x")
	for _, b := range r.benchmarks() {
		base := res[b]["base"].IPC
		t.AddRow(b, base,
			norm(res[b]["mop2"].IPC, base),
			norm(res[b]["mop3"].IPC, base),
			norm(res[b]["mop4"].IPC, base),
			100*res[b]["mop2"].InsertReduction(),
			100*res[b]["mop3"].InsertReduction(),
			100*res[b]["mop4"].InsertReduction())
	}
	return t, err
}

// HeuristicCoverage quantifies Section 5.1.1's claim that the
// conservative cycle-detection heuristic retains over 90% of the MOP
// formation opportunities found by precise cycle detection. Both
// detectors observe the same committed stream in rename-width groups.
func (r *Runner) HeuristicCoverage() (*stats.Table, error) {
	t := stats.NewTable("Ablation: conservative cycle heuristic vs precise detection (dependent pairs found)",
		"benchmark", "heuristic", "precise", "coverage%")
	for _, b := range r.benchmarks() {
		heur := config.DefaultMOP()
		heur.DetectionDelay = 0
		prec := heur
		prec.PreciseCycleDetection = true

		tblH := mop.NewPointerTable()
		detH := mop.NewDetector(heur, tblH)
		tblP := mop.NewPointerTable()
		detP := mop.NewDetector(prec, tblP)

		var group []*functional.DynInst
		cycle := int64(0)
		feed := func(d *functional.DynInst) {
			dd := *d
			group = append(group, &dd)
			if len(group) == 4 {
				detH.Observe(cycle, group)
				detP.Observe(cycle, group)
				group = nil
				cycle++
			}
		}
		if err := r.characterize(b, feed); err != nil {
			return nil, err
		}
		h := detH.Stats().DependentPairs
		p := detP.Stats().DependentPairs
		t.AddRow(b, h, p, 100*stats.Ratio(h, p))
	}
	return t, nil
}

// QueueSweep sweeps the issue queue size for the three main schedulers,
// reporting IPC; the macro-op column degrades most gracefully (two
// instructions per entry double the effective window).
func (r *Runner) QueueSweep(bench string) (*stats.Table, error) {
	sizes := []int{8, 12, 16, 24, 32, 48, 64}
	cfgs := map[string]config.Machine{}
	for _, iq := range sizes {
		cfgs[fmt.Sprintf("base%d", iq)] = config.Default().WithIQ(iq).WithSched(config.SchedBase)
		cfgs[fmt.Sprintf("2cyc%d", iq)] = config.Default().WithIQ(iq).WithSched(config.SchedTwoCycle)
		cfgs[fmt.Sprintf("mop%d", iq)] = config.Default().WithIQ(iq).WithMOP(config.DefaultMOP())
	}
	saved := r.Benchmarks
	r.Benchmarks = []string{bench}
	res, err := r.RunMatrix(cfgs)
	r.Benchmarks = saved
	if res == nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Extension: issue queue sweep on %s (IPC)", bench),
		"queue", "base", "2-cycle", "macro-op", "MOP vs base")
	for _, iq := range sizes {
		b := res[bench][fmt.Sprintf("base%d", iq)].IPC
		m := res[bench][fmt.Sprintf("mop%d", iq)].IPC
		t.AddRow(iq, b, res[bench][fmt.Sprintf("2cyc%d", iq)].IPC, m, norm(m, b))
	}
	return t, err
}

// WidthSweep varies the machine width (with proportionally scaled
// functional units and fetch buffering). Width also scales the MOP
// detection scope (2 rename groups), so wider machines both need
// back-to-back scheduling more and find pairs more easily — the sweep
// shows how the 2-cycle penalty and the MOP recovery grow with width.
func (r *Runner) WidthSweep(bench string) (*stats.Table, error) {
	widths := []int{2, 4, 8}
	cfgs := map[string]config.Machine{}
	mkWidth := func(w int) config.Machine {
		m := config.Default()
		m.Width = w
		m.IntALUs = w
		m.IntMuls = max(1, w/2)
		m.FPALUs = max(1, w/2)
		m.FPMuls = max(1, w/2)
		m.MemPorts = max(1, w/2)
		m.FetchBufEntries = 8 * w
		return m
	}
	for _, w := range widths {
		cfgs[fmt.Sprintf("base%d", w)] = mkWidth(w).WithSched(config.SchedBase)
		cfgs[fmt.Sprintf("2cyc%d", w)] = mkWidth(w).WithSched(config.SchedTwoCycle)
		cfgs[fmt.Sprintf("mop%d", w)] = mkWidth(w).WithMOP(config.DefaultMOP())
	}
	saved := r.Benchmarks
	r.Benchmarks = []string{bench}
	res, err := r.RunMatrix(cfgs)
	r.Benchmarks = saved
	if res == nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Extension: machine width sweep on %s (IPC, normalized in parentheses-free columns)", bench),
		"width", "base", "2-cycle", "macro-op", "2cyc/base", "MOP/base")
	for _, w := range widths {
		b := res[bench][fmt.Sprintf("base%d", w)].IPC
		c2 := res[bench][fmt.Sprintf("2cyc%d", w)].IPC
		m := res[bench][fmt.Sprintf("mop%d", w)].IPC
		t.AddRow(w, b, c2, m, norm(c2, b), norm(m, b))
	}
	return t, err
}
