package experiments

import (
	"strconv"
	"testing"
)

func TestMOPSizeExtension(t *testing.T) {
	r := NewRunner(4000)
	r.Benchmarks = []string{"gap"}
	r.Check = true
	tab, err := r.MOPSize()
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("rows: %d", tab.NumRows())
	}
}

func TestHeuristicCoverage(t *testing.T) {
	r := NewRunner(30000)
	r.Benchmarks = []string{"gap", "vortex"}
	tab, err := r.HeuristicCoverage()
	if err != nil {
		t.Fatal(err)
	}
	// The paper claims the conservative heuristic retains > 90% of the
	// precise detector's opportunities.
	for i := 0; i < tab.NumRows(); i++ {
		row := tab.Row(i)
		cov, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("coverage cell %q: %v", row[3], err)
		}
		if cov < 90 {
			t.Fatalf("%s: heuristic coverage %.1f%% below the paper's 90%% claim", row[0], cov)
		}
	}
}

func TestQueueSweep(t *testing.T) {
	r := NewRunner(4000)
	tab, err := r.QueueSweep("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 7 {
		t.Fatalf("rows: %d", tab.NumRows())
	}
}

func TestWidthSweep(t *testing.T) {
	r := NewRunner(20000)
	tab, err := r.WidthSweep("gap")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Fatalf("rows: %d", tab.NumRows())
	}
}
