package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"macroop/internal/experiments"
	"macroop/internal/journal"
	"macroop/internal/optsched"
	"macroop/internal/simerr"
)

// gapTestReq keeps gap runs tiny: one benchmark, two 8-uop windows, a
// small but ample node budget.
func gapTestReq() GapRequest {
	return GapRequest{
		Benchmarks: []string{"gzip"},
		Window:     8,
		MaxWindows: 2,
		NodeBudget: 20_000,
	}
}

// TestGapCacheHitOnRepeat: the first gap request runs the oracle, an
// identical repeat is served from the cache with the same fingerprint
// and report, and no second analysis executes.
func TestGapCacheHitOnRepeat(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	ctx := context.Background()

	cold, err := s.Gap(ctx, gapTestReq())
	if err != nil {
		t.Fatalf("cold gap: %v", err)
	}
	if cold.Cached || cold.Shared {
		t.Errorf("cold gap reported cached=%v shared=%v", cold.Cached, cold.Shared)
	}
	if cold.Report == nil || len(cold.Report.Benches) != 1 {
		t.Fatalf("cold gap report = %+v", cold.Report)
	}
	if v := cold.Report.Violations(); v != 0 {
		t.Fatalf("%d admissibility violations", v)
	}
	if cold.Report.Benches[0].Windows != 2 {
		t.Errorf("windows = %d, want 2", cold.Report.Benches[0].Windows)
	}

	warm, err := s.Gap(ctx, gapTestReq())
	if err != nil {
		t.Fatalf("warm gap: %v", err)
	}
	if !warm.Cached {
		t.Error("repeat gap request not served from cache")
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprint drifted: %s vs %s", warm.Fingerprint, cold.Fingerprint)
	}
	if warm.Report.Benches[0].OptCycles != cold.Report.Benches[0].OptCycles {
		t.Errorf("cached report diverges: %+v vs %+v", warm.Report.Benches[0], cold.Report.Benches[0])
	}
	if _, hits, runs, _ := s.GapStats(); runs != 1 || hits != 1 {
		t.Errorf("gap stats runs=%d hits=%d, want 1/1", runs, hits)
	}
	// A different spec is a different fingerprint, not a stale hit.
	other := gapTestReq()
	other.Window = 12
	o, err := s.Gap(ctx, other)
	if err != nil {
		t.Fatalf("other gap: %v", err)
	}
	if o.Cached || o.Fingerprint == cold.Fingerprint {
		t.Errorf("distinct spec served stale (cached=%v, fp %s vs %s)", o.Cached, o.Fingerprint, cold.Fingerprint)
	}
}

// TestGapSingleflight: concurrent identical gap requests coalesce into
// exactly one oracle run.
func TestGapSingleflight(t *testing.T) {
	s := newTestService(t, Options{Workers: 4})
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	fps := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Gap(context.Background(), gapTestReq())
			if err != nil {
				errs[i] = err
				return
			}
			fps[i] = resp.Fingerprint
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if fps[i] != fps[0] {
			t.Fatalf("caller %d fingerprint %s != %s", i, fps[i], fps[0])
		}
	}
	if _, hits, runs, shared := s.GapStats(); runs != 1 || hits+shared != n-1 {
		t.Errorf("gap stats runs=%d hits=%d shared=%d, want 1 run and %d coalesced-or-hit", runs, hits, shared, n-1)
	}
}

// TestGapValidation: malformed gap requests fail fast with plain errors
// (the 400 family) before admission.
func TestGapValidation(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	ctx := context.Background()
	cases := []struct {
		name string
		req  GapRequest
	}{
		{"unknown benchmark", GapRequest{Benchmarks: []string{"nope"}}},
		{"unknown scheduler", GapRequest{Benchmarks: []string{"gzip"}, Config: ConfigSpec{Sched: "warp"}}},
		{"budget over cap", func() GapRequest { r := gapTestReq(); r.NodeBudget = maxGapNodeBudget + 1; return r }()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Gap(ctx, tc.req); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
	if _, _, runs, _ := s.GapStats(); runs != 0 {
		t.Errorf("gap runs = %d after pure validation failures, want 0", runs)
	}
}

// TestGapDraining503 drives the HTTP surface: a draining server answers
// POST /v1/gap with 503 and a Retry-After hint — the signal mopctl's
// backoff loop keys on.
func TestGapDraining503(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	body, _ := json.Marshal(gapTestReq())
	resp, err := http.Post(srv.URL+"/v1/gap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/gap: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without a Retry-After hint")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "draining") {
		t.Errorf("error body = %+v (%v), want a draining message", e, err)
	}
	if _, err := s.Gap(context.Background(), gapTestReq()); !errors.Is(err, ErrDraining) {
		t.Errorf("Gap during drain = %v, want ErrDraining", err)
	}
}

// TestGapHTTPRoundTrip: the full wire path — POST, JSON decode, report
// shape — matches the Service-level result.
func TestGapHTTPRoundTrip(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, _ := json.Marshal(gapTestReq())
	resp, err := http.Post(srv.URL+"/v1/gap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/gap: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var gr GapResponse
	if err := json.NewDecoder(resp.Body).Decode(&gr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gr.Fingerprint == "" || gr.Report == nil || len(gr.Report.Benches) != 1 {
		t.Fatalf("wire response = %+v", gr)
	}
	b := gr.Report.Benches[0]
	if b.Bench != "gzip" || b.Violations != 0 || b.OptCycles <= 0 {
		t.Errorf("bench gap = %+v", b)
	}
	for h, cyc := range b.Heur {
		if cyc < b.OptCycles {
			t.Errorf("%s cycles %d below optimum %d", h, cyc, b.OptCycles)
		}
	}
}

// TestGapJournalWarmRestart: a journaled gap report survives a restart
// as a warm cache entry — the repeat on the new process is a hit with an
// identical report and zero fresh runs.
func TestGapJournalWarmRestart(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "gap.journal")

	s1, err := New(Options{Workers: 2, DefaultInsts: testInsts, JournalPath: jpath, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New(1): %v", err)
	}
	s1.Start()
	cold, err := s1.Gap(context.Background(), gapTestReq())
	if err != nil {
		t.Fatalf("cold gap: %v", err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close(1): %v", err)
	}

	s2, err := New(Options{Workers: 2, DefaultInsts: testInsts, JournalPath: jpath, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New(2): %v", err)
	}
	s2.Start()
	defer s2.Close()
	warm, err := s2.Gap(context.Background(), gapTestReq())
	if err != nil {
		t.Fatalf("warm gap: %v", err)
	}
	if !warm.Cached {
		t.Error("journal-warmed gap report not served from cache")
	}
	if warm.Fingerprint != cold.Fingerprint {
		t.Errorf("fingerprint drifted across restart: %s vs %s", warm.Fingerprint, cold.Fingerprint)
	}
	cb, wb := cold.Report.Benches[0], warm.Report.Benches[0]
	if cb.OptCycles != wb.OptCycles || cb.Heur["base"] != wb.Heur["base"] || cb.Windows != wb.Windows {
		t.Errorf("warmed report diverges: %+v vs %+v", wb, cb)
	}
	if _, _, runs, _ := s2.GapStats(); runs != 0 {
		t.Errorf("restarted service ran %d gap analyses on a warmed cache, want 0", runs)
	}
}

// TestGapJournalStaleModelRerun: a gapres| record journaled under the
// fingerprint formula that predates the model version (benchmarks,
// machine and spec only) holds a report from a different scheduling
// model. A service restarted on that journal must not serve it: the
// request runs the analysis afresh.
func TestGapJournalStaleModelRerun(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "gap.journal")
	req := gapTestReq()
	m, err := req.Config.Machine()
	if err != nil {
		t.Fatal(err)
	}
	spec := optsched.GapSpec{Window: req.Window, Stride: req.Stride, MaxWindows: req.MaxWindows, NodeBudget: req.NodeBudget}.WithDefaults()
	cfgJSON, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	oldFP := simerr.Fingerprint("gap", fmt.Sprint(req.Benchmarks), string(cfgJSON),
		fmt.Sprint(spec.Window), fmt.Sprint(spec.Stride), fmt.Sprint(spec.MaxWindows), fmt.Sprint(spec.NodeBudget))
	stale := &experiments.GapReport{Spec: spec, Machine: "table1", Benches: []optsched.BenchGap{{
		Bench: "gzip", Windows: 2, OptimalWindows: 2, OptCycles: 9, BoundCycles: 9,
		Heur: map[string]int64{"base": 11, "2-cycle": 11, "macro-op": 11, "select-free": 15},
	}}}
	data, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(KeyGap+oldFP, data); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{Workers: 2, DefaultInsts: testInsts, JournalPath: jpath, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	defer s.Close()
	resp, err := s.Gap(context.Background(), req)
	if err != nil {
		t.Fatalf("gap: %v", err)
	}
	if resp.Cached {
		t.Errorf("served the stale journaled report (fingerprint %s)", resp.Fingerprint)
	}
	if _, _, runs, _ := s.GapStats(); runs != 1 {
		t.Errorf("gap runs = %d, want 1 fresh analysis", runs)
	}
	for _, model := range optsched.Models {
		if resp.Report.Benches[0].Heur[model.String()] == 0 {
			t.Errorf("%v row missing from the report", model)
		}
	}
}
