// Command mopctl is the client for cmd/mopserve: it submits simulation
// jobs over the HTTP/JSON API and pretty-prints the results.
//
// Usage:
//
//	mopctl -addr http://127.0.0.1:8344 simulate -bench gzip -sched mop -insts 100000
//	mopctl matrix -benchmarks gzip,mcf -scheds base,mop -insts 50000
//	mopctl matrix -scheds base,2cycle,mop -stream        # NDJSON live progress
//	mopctl gap -benchmarks gzip,mcf -window 32           # scheduler-vs-optimum report
//	mopctl job job-n1-3                                  # job status
//	mopctl jobs                                          # list jobs
//	mopctl health
//	mopctl metrics
//	mopctl -seeds http://h1:8344,http://h2:8344 ring     # cluster membership
//
// mopctl is cluster-aware: -seeds lists several nodes and the client
// rotates to the next seed when one stops answering; 307 redirects
// carrying X-Mop-Owner (a cell routed to its owning shard) are followed
// transparently. Busy rejections (503) are retried up to -max-retries
// times with capped exponential backoff and jitter, honouring the
// server's Retry-After hint; when the budget runs out the server's final
// typed error (kind and repro fingerprint included) is what you see.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"macroop/internal/cluster"
	"macroop/internal/experiments"
	"macroop/internal/service"
	"macroop/internal/stats"
)

func main() {
	addr := flag.String("addr", envOr("MOPSERVE_ADDR", "http://127.0.0.1:8344"), "mopserve base URL (or $MOPSERVE_ADDR)")
	seeds := flag.String("seeds", envOr("MOPSERVE_SEEDS", ""), "comma-separated cluster seed URLs; the client rotates to the next seed when one stops answering (overrides -addr)")
	var maxRetries int
	flag.IntVar(&maxRetries, "retries", 5, "alias for -max-retries")
	flag.IntVar(&maxRetries, "max-retries", 5, "attempt budget for busy (503) rejections and unreachable seeds, with capped exponential backoff honouring Retry-After")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	list := splitList(*seeds)
	if len(list) == 0 {
		list = []string{*addr}
	}
	for i := range list {
		list[i] = strings.TrimRight(list[i], "/")
	}
	c := &client{seeds: list, maxRetries: maxRetries}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "simulate":
		c.simulate(args)
	case "matrix":
		c.matrix(args)
	case "gap":
		c.gap(args)
	case "job":
		c.job(args)
	case "jobs":
		c.jobs()
	case "health":
		c.health()
	case "metrics":
		c.metrics()
	case "ring":
		c.ring()
	default:
		fatalf("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mopctl [-addr URL | -seeds URL,URL,...] [-max-retries N] <command> [flags]

commands:
  simulate  run one cell synchronously   (-bench, -sched, -wakeup, -iq, -stages, -insts)
  matrix    submit a batched sweep       (-benchmarks, -scheds, -insts, -wait, -stream, -async)
  gap       scheduler-vs-optimum report  (-benchmarks, -window, -stride, -max-windows, -budget)
  job <id>  print one job's status and results
  jobs      list jobs, newest first
  health    check /healthz
  metrics   dump /metrics
  ring      print cluster membership and liveness
`)
}

type client struct {
	seeds      []string
	cur        int
	maxRetries int
}

func (c *client) base() string { return c.seeds[c.cur] }

func (c *client) rotate() { c.cur = (c.cur + 1) % len(c.seeds) }

// noFollow keeps 307s visible so do can log the owning shard and re-POST
// the body itself (http.Client only auto-follows GET-safe redirects).
var noFollow = &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
	return http.ErrUseLastResponse
}}

// backoff computes the wait before the next attempt: the server's
// Retry-After hint verbatim when present, otherwise capped exponential
// (500ms doubling to 8s) with ±25% jitter so synchronized clients do not
// retry in lockstep.
func backoff(attempt int, retryAfter string) time.Duration {
	if ra, err := strconv.Atoi(retryAfter); err == nil && ra > 0 {
		return time.Duration(ra) * time.Second
	}
	d := 500 * time.Millisecond
	for i := 1; i < attempt && d < 8*time.Second; i++ {
		d *= 2
	}
	if d > 8*time.Second {
		d = 8 * time.Second
	}
	return d + time.Duration(rand.Int63n(int64(d)/2)) - d/4
}

// do performs one logical request with the client's resilience policy:
// unreachable seeds rotate to the next one, 503s back off and retry, and
// 307s (a clustered node pointing at the cell's owning shard) are
// followed. When the retry budget runs out, the final response — with
// the server's typed error envelope — is returned for decode to surface.
func (c *client) do(method, path string, body []byte) *http.Response {
	url := c.base() + path
	redirects := 0
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, url, rd)
		if err != nil {
			fatalf("%v", err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := noFollow.Do(req)
		switch {
		case err != nil:
			if attempt >= c.maxRetries {
				fatalf("%v (after %d attempts across %d seed(s))", err, attempt, len(c.seeds))
			}
			c.rotate()
			url = c.base() + path
			d := backoff(attempt, "")
			fmt.Fprintf(os.Stderr, "mopctl: %v; retrying against %s in %v (%d/%d)\n",
				err, c.base(), d.Round(time.Millisecond), attempt, c.maxRetries)
			time.Sleep(d)
		case resp.StatusCode == http.StatusTemporaryRedirect:
			loc := resp.Header.Get("Location")
			owner := resp.Header.Get("X-Mop-Owner")
			resp.Body.Close()
			if loc == "" || redirects >= 4 {
				fatalf("redirect loop or missing Location (owner %q)", owner)
			}
			redirects++
			url = loc
			if owner != "" {
				fmt.Fprintf(os.Stderr, "mopctl: cell owned by shard %s; following redirect\n", owner)
			}
		case resp.StatusCode == http.StatusServiceUnavailable && attempt < c.maxRetries:
			d := backoff(attempt, resp.Header.Get("Retry-After"))
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "mopctl: server busy (503), retrying in %v (%d/%d)\n",
				d.Round(time.Millisecond), attempt, c.maxRetries)
			time.Sleep(d)
		default:
			return resp
		}
	}
}

func (c *client) post(path string, body any) *http.Response {
	data, err := json.Marshal(body)
	if err != nil {
		fatalf("%v", err)
	}
	return c.do(http.MethodPost, path, data)
}

func (c *client) get(path string) *http.Response {
	return c.do(http.MethodGet, path, nil)
}

// decode reads a JSON response, converting error envelopes into fatal
// diagnostics that preserve the typed kind and repro fingerprint.
func decode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error            string `json:"error"`
			Kind             string `json:"kind"`
			ReproFingerprint string `json:"repro_fingerprint"`
		}
		data, _ := io.ReadAll(resp.Body)
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg := fmt.Sprintf("server: %s (HTTP %d", e.Error, resp.StatusCode)
			if e.Kind != "" {
				msg += ", kind " + e.Kind
			}
			if e.ReproFingerprint != "" {
				msg += ", repro fingerprint " + e.ReproFingerprint
			}
			fatalf("%s)", msg)
		}
		fatalf("server: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fatalf("decode response: %v", err)
	}
}

func (c *client) simulate(args []string) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	var (
		bench  = fs.String("bench", "gzip", "benchmark name")
		sched  = fs.String("sched", "base", "scheduler: base, 2cycle, mop, sf-squash, sf-scoreboard")
		wakeup = fs.String("wakeup", "", "MOP wakeup style: 2src, wired-or (mop only)")
		iq     = fs.Int("iq", -1, "issue queue entries (-1 = server default, 0 = unrestricted)")
		stages = fs.Int("stages", -1, "extra MOP formation stages (-1 = default)")
		insts  = fs.Int64("insts", 0, "committed-instruction budget (0 = server default)")
	)
	fs.Parse(args)
	req := service.SimRequest{
		Benchmark: *bench,
		Config:    configSpec(*sched, *wakeup, *iq, *stages),
		MaxInsts:  *insts,
	}
	var cr service.CellResult
	decode(c.post("/v1/simulate", &req), &cr)
	printCell(&cr)
}

func (c *client) matrix(args []string) {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	var (
		benches = fs.String("benchmarks", "", "comma-separated benchmarks (empty = full suite)")
		scheds  = fs.String("scheds", "base,mop", "comma-separated scheduler configs (base, 2cycle, mop, mop-2src, sf-squash, sf-scoreboard)")
		insts   = fs.Int64("insts", 0, "per-cell committed-instruction budget (0 = server default)")
		stream  = fs.Bool("stream", false, "stream per-cell results as they complete (NDJSON)")
		async   = fs.Bool("async", false, "submit and print the job ID without waiting")
	)
	fs.Parse(args)
	req := map[string]any{
		"configs": schedConfigs(*scheds),
		"wait":    !*stream && !*async,
		"stream":  *stream,
	}
	if *benches != "" {
		req["benchmarks"] = splitList(*benches)
	}
	if *insts > 0 {
		req["max_insts"] = *insts
	}
	resp := c.post("/v1/matrix", req)
	if *stream {
		c.streamCells(resp)
		return
	}
	var st service.JobStatus
	decode(resp, &st)
	if *async {
		fmt.Printf("accepted %s (%d cells): poll with `mopctl job %s`\n", st.ID, st.Cells, st.ID)
		return
	}
	printStatus(&st, true)
	if st.Failed > 0 {
		os.Exit(1)
	}
}

// gap requests a scheduler-vs-optimum gap report (POST /v1/gap) and
// renders it as the paper-style table. The shared do() policy applies:
// busy servers (503) are retried with Retry-After-honouring backoff, and
// a clustered node's 307 owner redirect is followed. A report carrying
// admissibility violations exits non-zero: it means the oracle found a
// kernel schedule that issued a uop early, or an "optimal" schedule
// worse than a kernel schedule, and neither may ever happen.
func (c *client) gap(args []string) {
	fs := flag.NewFlagSet("gap", flag.ExitOnError)
	var (
		benches    = fs.String("benchmarks", "", "comma-separated benchmarks (empty = full suite)")
		sched      = fs.String("sched", "base", "machine config supplying the window model (scheduler choice does not matter; every scheduling model is replayed)")
		window     = fs.Int("window", 0, "uop window size, 4..64 (0 = server default, 32)")
		stride     = fs.Int("stride", 0, "start-to-start window distance (0 = window size)")
		maxWindows = fs.Int("max-windows", 0, "windows per benchmark (0 = server default, 8)")
		budget     = fs.Int64("budget", 0, "branch-and-bound node budget per window (0 = server default)")
	)
	fs.Parse(args)
	req := service.GapRequest{
		Benchmarks: splitList(*benches),
		Config:     service.ConfigSpec{Sched: *sched},
		Window:     *window,
		Stride:     *stride,
		MaxWindows: *maxWindows,
		NodeBudget: *budget,
	}
	var gr service.GapResponse
	decode(c.post("/v1/gap", &req), &gr)
	if gr.Report == nil {
		fatalf("server returned no gap report (fingerprint %s)", gr.Fingerprint)
	}
	fmt.Print(experiments.GapTable(gr.Report))
	opt, total := gr.Report.OptimalWindows()
	src := "ran"
	switch {
	case gr.Cached:
		src = "cache"
	case gr.Shared:
		src = "shared"
	}
	fmt.Printf("%d/%d windows proven optimal, %d violations, fingerprint %s, %.1fms (%s)\n",
		opt, total, gr.Report.Violations(), gr.Fingerprint, gr.WallMS, src)
	if gr.Report.Violations() > 0 {
		os.Exit(1)
	}
}

func (c *client) streamCells(resp *http.Response) {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		decode(resp, &struct{}{}) // renders the error envelope and exits
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	failed := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// The stream is cell lines with a terminal job-status line.
		var cr service.CellResult
		if err := json.Unmarshal(line, &cr); err == nil && cr.Bench != "" {
			printCell(&cr)
			failed = failed || cr.Error != ""
			continue
		}
		var st service.JobStatus
		if err := json.Unmarshal(line, &st); err == nil && st.ID != "" {
			fmt.Printf("%s: %s (%d/%d cells, %d failed, %d cache hits)\n",
				st.ID, st.State, st.Completed, st.Cells, st.Failed, st.CacheHits)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("stream: %v", err)
	}
	if failed {
		os.Exit(1)
	}
}

func (c *client) job(args []string) {
	if len(args) != 1 {
		fatalf("usage: mopctl job <id>")
	}
	var st service.JobStatus
	decode(c.get("/v1/jobs/"+args[0]), &st)
	printStatus(&st, true)
}

func (c *client) jobs() {
	var sts []service.JobStatus
	decode(c.get("/v1/jobs"), &sts)
	t := stats.NewTable("jobs", "id", "state", "cells", "completed", "failed", "cache-hits", "created")
	for i := range sts {
		st := &sts[i]
		t.AddRow(st.ID, string(st.State), st.Cells, st.Completed, st.Failed, st.CacheHits,
			st.Created.Format(time.RFC3339))
	}
	fmt.Print(t)
}

func (c *client) health() {
	resp := c.get("/healthz")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Printf("%d %s", resp.StatusCode, body)
	if resp.StatusCode != http.StatusOK {
		os.Exit(1)
	}
}

func (c *client) metrics() {
	resp := c.get("/metrics")
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
}

// ring prints the cluster's membership as the contacted node sees it:
// liveness state, advertised load, and how stale each peer's last ack is.
func (c *client) ring() {
	var info cluster.RingInfo
	decode(c.get("/cluster/v1/ring"), &info)
	fmt.Printf("cluster as seen by %s (epoch %d, membership v%d, replication %d)\n",
		info.Self, info.Epoch, info.Version, info.Replication)
	t := stats.NewTable("members", "node", "addr", "state", "queue", "draining", "last-ack")
	for _, m := range info.Members {
		age := time.Since(m.LastAck).Round(time.Millisecond)
		self := ""
		if m.ID == info.Self {
			self = " (self)"
		}
		t.AddRow(m.ID+self, m.Addr, m.State, m.QueueDepth, m.Draining, age.String())
	}
	fmt.Print(t)
	if len(info.Samples) == 0 {
		return
	}
	fmt.Println()
	rt := stats.NewTable("replica sets (sampled keys)", "key", "primary", "replicas", "health")
	degraded := 0
	for _, s := range info.Samples {
		primary, rest := "-", "-"
		if len(s.Replicas) > 0 {
			primary = s.Replicas[0]
		}
		if len(s.Replicas) > 1 {
			rest = strings.Join(s.Replicas[1:], ",")
		}
		health := "ok"
		if s.Degraded {
			health = fmt.Sprintf("DEGRADED (%d/%d alive)", len(s.Replicas), info.Replication)
			degraded++
		}
		rt.AddRow(s.Key, primary, rest, health)
	}
	fmt.Print(rt)
	if degraded > 0 {
		fmt.Printf("\n%d of %d sampled replica sets are below R=%d — records there have fewer live copies than configured\n",
			degraded, len(info.Samples), info.Replication)
	}
}

// configSpec builds the wire config from CLI knobs; unset knobs stay
// absent so the server applies its defaults.
func configSpec(sched, wakeup string, iq, stages int) service.ConfigSpec {
	spec := service.ConfigSpec{Sched: sched, Wakeup: wakeup}
	if iq >= 0 {
		spec.IQ = &iq
	}
	if stages >= 0 {
		spec.Stages = &stages
	}
	return spec
}

// schedConfigs expands -scheds shorthand names into the config map.
// "mop" is wired-OR macro-op scheduling; "mop-2src" selects the CAM
// wakeup array.
func schedConfigs(list string) map[string]service.ConfigSpec {
	out := make(map[string]service.ConfigSpec)
	for _, name := range splitList(list) {
		switch name {
		case "mop-2src":
			out[name] = service.ConfigSpec{Sched: "mop", Wakeup: "2src"}
		default:
			out[name] = service.ConfigSpec{Sched: name}
		}
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func printCell(cr *service.CellResult) {
	if cr.Error != "" {
		fmt.Printf("%-10s %-14s FAILED (%s): %s [repro %s]\n",
			cr.Bench, cr.Config, cr.ErrorKind, cr.Error, cr.ReproFingerprint)
		return
	}
	fmt.Printf("%-10s %-14s IPC %6.3f  %9d insts %9d cycles  checksum %s  %7.1fms (%s)\n",
		cr.Bench, cr.Config, cr.IPC, cr.Committed, cr.Cycles, cr.Checksum, cr.WallMS, cellSource(cr))
}

// cellSource labels where a result came from: executed here, the local
// cache, a coalesced in-flight execution, or the cell's owning shard.
func cellSource(cr *service.CellResult) string {
	switch {
	case cr.Cached:
		return "cache"
	case cr.Shared:
		return "shared"
	case cr.PeerFilled:
		return "peer"
	}
	return "ran"
}

func printStatus(st *service.JobStatus, withResults bool) {
	fmt.Printf("%s: %s (%d/%d cells, %d failed, %d cache hits)\n",
		st.ID, st.State, st.Completed, st.Cells, st.Failed, st.CacheHits)
	if !withResults || len(st.Results) == 0 {
		return
	}
	t := stats.NewTable("results", "benchmark", "config", "IPC", "insts", "cycles", "checksum", "ms", "source")
	for _, cr := range st.Results {
		if cr.Error != "" {
			t.AddRow(cr.Bench, cr.Config, "FAILED", cr.ErrorKind, "-", cr.ReproFingerprint, fmt.Sprintf("%.1f", cr.WallMS), "-")
			continue
		}
		t.AddRow(cr.Bench, cr.Config, cr.IPC, cr.Committed, cr.Cycles, cr.Checksum,
			fmt.Sprintf("%.1f", cr.WallMS), cellSource(cr))
	}
	fmt.Print(t)
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mopctl: "+format+"\n", args...)
	os.Exit(1)
}
