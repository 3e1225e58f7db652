// Package mutation holds the scheduler mutation campaign. TestMutants
// applies each mutant in mutants.json (one exact text edit) to a private
// copy of the module, runs the test suites against it, prints a Markdown
// table of which suites kill which mutant, and fails if a mutant does not
// compile or its kills differ from the killed_by list recorded beside it.
// The working tree is never modified.
//
// The directory sits under testdata, so `go test ./...` skips it. Run it
// explicitly; one pass over every mutant takes several minutes:
//
//	go test ./internal/sched/testdata/mutation -v -timeout 60m
//	go test ./internal/sched/testdata/mutation -v -only M01,M04
//
// TestMutantsApply checks in milliseconds, without running a suite, that
// every mutant's old text still occurs exactly once in its file, so an
// edit that orphans a mutant fails at once instead of at the next
// campaign:
//
//	go test ./internal/sched/testdata/mutation -run '^TestMutantsApply$'
//
// -src mutates another copy of the module instead (an older commit, say),
// and each -suite 'name=go test arguments' adds a suite or replaces the
// one of that name. Only the default suites are compared with killed_by.
//
// A suite kills a mutant when `go test` exits non-zero (a failing test, a
// panic or the per-suite timeout). The unmutated copy must pass every
// suite, and each suite must run at least one test, otherwise the table
// would mean nothing.
package mutation

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

//go:embed mutants.json
var mutantsJSON []byte

// mutant is one edit: Old must occur exactly once in File (a path
// relative to the module root) and is replaced by New. KilledBy lists the
// default suites expected to kill it.
type mutant struct {
	ID       string   `json:"id"`
	File     string   `json:"file"`
	Old      string   `json:"old"`
	New      string   `json:"new"`
	Note     string   `json:"note"`
	KilledBy []string `json:"killed_by"`
}

type suite struct {
	name string
	args []string
}

var defaultSuites = []suite{
	{"sched", []string{"./internal/sched"}},
	{"goldens", []string{"./internal/checker"}},
	{"optsched+exp", []string{"./internal/optsched", "./internal/experiments"}},
	{"core+fault+shrink", []string{"./internal/core", "./internal/fault", "./internal/shrink"}},
}

// suiteTimeout bounds one suite's run on one mutant; the slowest suite
// takes about 10 s unmutated, and a mutant that hangs a test dies by it.
const suiteTimeout = 3 * time.Minute

var (
	only        = flag.String("only", "", "comma-separated mutant IDs to run (default: all)")
	src         = flag.String("src", "", "module tree to mutate (default: the module holding this package)")
	extraSuites suiteFlags
)

func init() {
	flag.Var(&extraSuites, "suite", "add or replace a suite: name=go test arguments (repeatable)")
}

// suiteFlags collects -suite name=args values.
type suiteFlags []string

func (f *suiteFlags) String() string     { return strings.Join(*f, "; ") }
func (f *suiteFlags) Set(v string) error { *f = append(*f, v); return nil }

// buildSuites returns the default suites with the -suite overrides applied.
func buildSuites() ([]suite, error) {
	suites := slices.Clone(defaultSuites)
	for _, spec := range extraSuites {
		name, args, ok := strings.Cut(spec, "=")
		if !ok || name == "" || strings.TrimSpace(args) == "" {
			return nil, fmt.Errorf("-suite %q: want name=go test arguments", spec)
		}
		s := suite{name, strings.Fields(args)}
		if i := slices.IndexFunc(suites, func(x suite) bool { return x.name == name }); i >= 0 {
			suites[i] = s
		} else {
			suites = append(suites, s)
		}
	}
	return suites, nil
}

// loadMutants returns the mutants -only selects, and the module tree they
// apply to.
func loadMutants(t *testing.T) ([]mutant, string) {
	t.Helper()
	var ms []mutant
	if err := json.Unmarshal(mutantsJSON, &ms); err != nil {
		t.Fatalf("mutants.json: %v", err)
	}
	if *only != "" {
		ids := strings.Split(*only, ",")
		ms = slices.DeleteFunc(ms, func(m mutant) bool { return !slices.Contains(ids, m.ID) })
	}
	root := *src
	if root == "" {
		// The test runs in its package directory, four levels below the
		// module root.
		var err error
		if root, err = filepath.Abs("../../../.."); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("no module at %s: %v", root, err)
	}
	return ms, root
}

// occurrences counts m's old text in its file under root.
func occurrences(root string, m mutant) (string, int, error) {
	src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
	return string(src), strings.Count(string(src), m.Old), err
}

func TestMutantsApply(t *testing.T) {
	ms, root := loadMutants(t)
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.ID] {
			t.Errorf("%s: duplicate mutant id", m.ID)
		}
		seen[m.ID] = true
		if _, n, err := occurrences(root, m); err != nil {
			t.Errorf("%s: %v", m.ID, err)
		} else if n != 1 {
			t.Errorf("%s: old text occurs %d times in %s, want exactly 1", m.ID, n, m.File)
		}
	}
}

func TestMutants(t *testing.T) {
	suites, err := buildSuites()
	if err != nil {
		t.Fatal(err)
	}
	ms, root := loadMutants(t)
	work := t.TempDir()
	if err := copyTree(root, work); err != nil {
		t.Fatalf("copy module: %v", err)
	}

	t.Logf("baseline: unmutated copy of %s", root)
	for _, s := range suites {
		out, err := goCmd(work, testArgs(s)...)
		switch {
		case err != nil:
			t.Fatalf("suite %s fails on the unmutated tree; fix it before running mutants:\n%s", s.name, out)
		case strings.Contains(out, "[no tests to run]"):
			t.Fatalf("suite %s runs no test on the unmutated tree", s.name)
		}
	}

	rows := make([][]bool, len(ms))
	for i, m := range ms {
		path := filepath.Join(work, filepath.FromSlash(m.File))
		orig, n, err := occurrences(work, m)
		if err != nil {
			t.Fatalf("%s: %v", m.ID, err)
		}
		if n != 1 {
			t.Fatalf("%s: old text occurs %d times in %s, want exactly 1", m.ID, n, m.File)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(orig, m.Old, m.New, 1)), 0o644); err != nil {
			t.Fatalf("%s: %v", m.ID, err)
		}
		start := time.Now()
		if out, err := goCmd(work, "build", "./internal/sched"); err != nil {
			t.Errorf("%s does not compile:\n%s", m.ID, out)
		} else {
			rows[i] = runSuites(work, suites)
			t.Logf("%s: %s (%s)", m.ID, summary(suites, rows[i]), time.Since(start).Round(time.Second))
			checkExpected(t, m, suites, rows[i])
		}
		if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
			t.Fatalf("%s: restore: %v", m.ID, err)
		}
	}
	fmt.Print(table(ms, suites, rows))
}

// checkExpected compares the default suites' kills with m.KilledBy.
func checkExpected(t *testing.T, m mutant, suites []suite, row []bool) {
	t.Helper()
	var got []string
	for j, s := range suites {
		if slices.ContainsFunc(defaultSuites, func(d suite) bool { return d.name == s.name }) && row[j] {
			got = append(got, s.name)
		}
	}
	want := slices.Clone(m.KilledBy)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s: killed by %v, mutants.json records %v", m.ID, got, want)
	}
}

// runSuites runs every suite in dir and reports which of them fail.
func runSuites(dir string, suites []suite) []bool {
	out := make([]bool, len(suites))
	for i, s := range suites {
		_, err := goCmd(dir, testArgs(s)...)
		out[i] = err != nil
	}
	return out
}

func testArgs(s suite) []string {
	return append([]string{"test", "-count=1", "-vet=off", "-failfast", "-timeout", suiteTimeout.String()}, s.args...)
}

func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func summary(suites []suite, row []bool) string {
	var parts []string
	for i, k := range row {
		parts = append(parts, suites[i].name+"="+cell(k))
	}
	return strings.Join(parts, " ")
}

func cell(killed bool) string {
	if killed {
		return "killed"
	}
	return "·"
}

// table renders the campaign as Markdown, with a closing line counting
// survivors and, per suite, its kills and the mutants it alone kills.
func table(ms []mutant, suites []suite, rows [][]bool) string {
	var b strings.Builder
	b.WriteString("| Mutant | Edit |")
	for _, s := range suites {
		fmt.Fprintf(&b, " %s |", s.name)
	}
	b.WriteString("\n|---|---|")
	for range suites {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	kills := make([]int, len(suites))
	alone := make([]int, len(suites))
	nRun, nSurvived := 0, 0
	for i, m := range ms {
		if rows[i] == nil {
			continue // did not compile
		}
		nRun++
		fmt.Fprintf(&b, "| %s | `%s`: %s |", m.ID, filepath.Base(m.File), m.Note)
		var by []int
		for j, k := range rows[i] {
			fmt.Fprintf(&b, " %s |", cell(k))
			if k {
				kills[j]++
				by = append(by, j)
			}
		}
		b.WriteString("\n")
		switch len(by) {
		case 0:
			nSurvived++
		case 1:
			alone[by[0]]++
		}
	}
	fmt.Fprintf(&b, "\n%d mutants ran, %d survived every suite.", nRun, nSurvived)
	for j, s := range suites {
		fmt.Fprintf(&b, " %s killed %d (%d alone).", s.name, kills[j], alone[j])
	}
	b.WriteString("\n")
	return b.String()
}

// copyTree copies the module at src into dst, skipping version-control
// metadata.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
