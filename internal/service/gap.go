package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"macroop/internal/config"
	"macroop/internal/experiments"
	"macroop/internal/optsched"
	"macroop/internal/workload"
)

// maxGapNodeBudget caps a request's per-window branch-and-bound node
// budget, the gap analogue of Options.MaxInsts: a client cannot pin a
// worker on one window indefinitely.
const maxGapNodeBudget = 10_000_000

// maxGapReports bounds the in-memory gap-report cache. Gap reports are
// few and small (one per distinct spec, kilobytes each), so a small LRU
// is plenty.
const maxGapReports = 64

// GapRequest is a scheduler-vs-optimum gap analysis (POST /v1/gap):
// extract instruction windows from the named benchmarks under the given
// machine configuration, replay every scheduling model over them on the
// production scheduler kernel, and solve each window exactly with the
// branch-and-bound oracle.
type GapRequest struct {
	// Benchmarks to analyze; empty means the full 12-benchmark suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Config is the machine configuration supplying the window model's
	// latencies and issue resources (the scheduler choice is irrelevant —
	// the gap pipeline replays every model — but the spec must still
	// validate).
	Config ConfigSpec `json:"config"`
	// Window is the uop window size (default 32, clamped to [4,64]).
	Window int `json:"window,omitempty"`
	// Stride is the start-to-start distance between windows (default:
	// Window, i.e. non-overlapping).
	Stride int `json:"stride,omitempty"`
	// MaxWindows caps extracted windows per benchmark (default 8).
	MaxWindows int `json:"max_windows,omitempty"`
	// NodeBudget bounds the exact solver's search per window; past it the
	// result degrades to a certified bound (default 200k nodes).
	NodeBudget int64 `json:"node_budget,omitempty"`
}

// GapResponse wraps the report with its cache provenance, mirroring
// CellResult's Cached/Shared flags.
type GapResponse struct {
	// Fingerprint is the report's content identity: the cache and journal
	// key covering benchmarks, machine, and spec.
	Fingerprint string `json:"fingerprint"`
	// Cached reports a cache (or journal-warmed) hit; Shared, a request
	// coalesced into an identical in-flight analysis.
	Cached bool                   `json:"cached"`
	Shared bool                   `json:"shared,omitempty"`
	WallMS float64                `json:"wall_ms"`
	Report *experiments.GapReport `json:"report"`
}

// resolvedGap is a validated gap request plus its content fingerprint.
type resolvedGap struct {
	benches []string
	m       config.Machine
	spec    optsched.GapSpec
	fp      string
}

// resolveGap validates the request and computes its fingerprint.
func (s *Service) resolveGap(req GapRequest) (resolvedGap, error) {
	benches := req.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	for _, b := range benches {
		if _, err := workload.ByName(b); err != nil {
			return resolvedGap{}, err
		}
	}
	m, err := req.Config.Machine()
	if err != nil {
		return resolvedGap{}, err
	}
	if req.NodeBudget > maxGapNodeBudget {
		return resolvedGap{}, fmt.Errorf("node_budget %d exceeds the server limit %d", req.NodeBudget, maxGapNodeBudget)
	}
	spec := optsched.GapSpec{
		Window:     req.Window,
		Stride:     req.Stride,
		MaxWindows: req.MaxWindows,
		NodeBudget: req.NodeBudget,
	}.WithDefaults()
	return resolvedGap{
		benches: benches,
		m:       m,
		spec:    spec,
		fp:      experiments.GapFingerprint(benches, m, spec),
	}, nil
}

// Gap runs (or serves from cache) one gap analysis. It shares the
// service's admission control — a gap run occupies one queue slot, so a
// saturated or draining server rejects with the usual 503 family — and
// the same cache/singleflight/journal discipline as cells: identical
// concurrent requests coalesce into one run, and a journaled report
// survives restarts as a warm cache entry.
func (s *Service) Gap(ctx context.Context, req GapRequest) (*GapResponse, error) {
	rg, err := s.resolveGap(req)
	if err != nil {
		return nil, err
	}
	s.met.gapRequests.Add(1)
	start := time.Now()
	resp := &GapResponse{Fingerprint: rg.fp}
	if rep, ok := s.gaps.Get(rg.fp); ok {
		s.met.gapHits.Add(1)
		resp.Cached = true
		resp.Report = rep
		resp.WallMS = float64(time.Since(start).Microseconds()) / 1e3
		return resp, nil
	}
	if err := s.admit(1); err != nil {
		return nil, err
	}
	defer s.pending.Add(-1)
	var ran bool
	rep, shared, err := s.gapCalls.Do(rg.fp, func() (*experiments.GapReport, error) {
		if rep, ok := s.gaps.Get(rg.fp); ok {
			return rep, nil // lost the lookup/insert race: still a hit
		}
		// The run is bounded by the cell timeout and aborted by Close's
		// hard cancel, but deliberately not by the caller's disconnect:
		// like a cell, an abandoned gap run completes and warms the cache.
		gctx, cancel := context.WithTimeout(s.hardCtx, s.opts.CellTimeout)
		defer cancel()
		ran = true
		s.met.gapRuns.Add(1)
		rep, err := s.runner.Gap(gctx, rg.benches, rg.m, rg.spec)
		if err != nil {
			return nil, err
		}
		s.gaps.Put(rg.fp, rep)
		s.journalGap(rg.fp, rep)
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	switch {
	case shared:
		s.met.gapShared.Add(1)
		resp.Shared = true
	case !ran:
		s.met.gapHits.Add(1)
		resp.Cached = true
	}
	resp.Report = rep
	resp.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	return resp, nil
}

// GapStats reports gap-endpoint cache behaviour (requests, cache hits,
// fresh runs, coalesced requests) — the observable the cache-hit and
// singleflight tests assert on.
func (s *Service) GapStats() (requests, hits, runs, shared int64) {
	return s.met.gapRequests.Load(), s.met.gapHits.Load(), s.met.gapRuns.Load(), s.met.gapShared.Load()
}

func (s *Service) handleGap(w http.ResponseWriter, r *http.Request) {
	var req GapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	resp, err := s.Gap(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// journalGap durably records a finished gap report under its
// fingerprint; a restarted service warms its gap cache from these.
func (s *Service) journalGap(fp string, rep *experiments.GapReport) {
	if s.jnl == nil {
		return
	}
	data, err := json.Marshal(rep)
	if err == nil {
		err = s.jnl.Append(KeyGap+fp, data)
	}
	if err != nil {
		s.opts.Logf("service: journal gap %s: %v", fp, err)
	}
}
