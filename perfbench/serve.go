package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"macroop/internal/program"
	"macroop/internal/service"
	"macroop/internal/workload"
)

// serve-mixed's traffic. Every matrix request runs matrixConfigs fresh
// configs over matrixBenches benchmarks, so each costs the same number of
// cold cells. Every second request also repeats both configs of the one
// before it, on the same benchmarks: a third of all cells repeat a
// finished cell, close to the 6 of 20 cells per benchmark that repeat
// when the paper's five scheduler matrices (Table 2, Figures 13 to 16)
// run through one service. Hit reads are due on average every 20 ms, the
// spacing at which reads were seen to queue behind cold cells.
const (
	matrixBenches = 2
	matrixConfigs = 2
	hitsPerSec    = 50
)

// serveParams are serve-mixed's settings that the self-test shrinks.
type serveParams struct {
	warmInsts int64 // budget of setup's one warm-up request per benchmark
	probe     int   // executed cells the traced run probes layer by layer
}

var defaultServe = serveParams{warmInsts: 1000, probe: 24}

// server is one in-process mopserve node: service.New with a journal in
// its own temporary directory, Start, and Handler on a loopback listener,
// which is what cmd/mopserve serves without -node.
type server struct {
	svc  *service.Service
	http *http.Server
	url  string
	dir  string
	done chan struct{}
	warm map[string]bool // fingerprints of the warm-up cells
}

func startServer(p params) (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{Workers: p.workers, JournalPath: filepath.Join(dir, "serve.journal")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, url: "http://" + ln.Addr().String(),
		dir: dir, done: make(chan struct{}), warm: map[string]bool{}}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	// Programs are generated lazily on a benchmark's first cell; one tiny
	// request per benchmark keeps that inside setup.
	c := newClient()
	defer c.CloseIdleConnections()
	for _, b := range workload.Names() {
		cr, err := simulate(c, s.url, service.SimRequest{Benchmark: b, Config: service.ConfigSpec{Sched: "base"}, MaxInsts: p.serve.warmInsts})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", b, err)
		}
		s.warm[cr.Cell] = true
	}
	return s, nil
}

func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// newClient is one client connection: serve-mixed runs two of them.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

var errRejected = errors.New("rejected with 503")

func post(c *http.Client, url string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: only for the error text
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil, errRejected
		}
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func simulate(c *http.Client, base string, req service.SimRequest) (*service.CellResult, error) {
	resp, err := post(c, base+"/v1/simulate", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var cr service.CellResult
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return nil, err
	}
	return &cr, nil
}

// matrixReq is one generated POST /v1/matrix body.
type matrixReq struct {
	benches []string
	names   []string
	specs   map[string]service.ConfigSpec
}

// mix draws serve-mixed's matrix requests from the seed. A revisit takes
// the benchmarks and configs of the request before it (cache hits) and
// adds fresh configs; the other requests sweep fresh configs over the
// next benchmarks. Benchmarks and scheduler models are dealt from seeded
// shuffles, so a run covers each of them equally often and its share of
// repeats is fixed; seeds differ in pairings, queue sizes and models. The
// client is a closed loop, so every earlier matrix has finished when the
// next is drawn and the stream depends on the seed alone.
type mix struct {
	rng     *rand.Rand
	benches deck
	scheds  deck
	used    map[string]bool
	last    matrixReq
	drawn   int // requests drawn
	seq     int // configs named
}

// deck deals 0..n-1 in a fresh seeded shuffle each round.
type deck struct {
	n     int
	order []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.order) == 0 {
		d.order = rng.Perm(d.n)
	}
	v := d.order[0]
	d.order = d.order[1:]
	return v
}

func newMix(seed uint64) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, 0x6d6978)), used: map[string]bool{},
		benches: deck{n: len(workload.Names())}, scheds: deck{n: len(serveScheds)}}
}

// serveScheds are the scheduler models a fresh config draws from; the
// issue queue size is drawn separately.
var serveScheds = []service.ConfigSpec{
	{Sched: "base"}, {Sched: "2cycle"}, {Sched: "sf-squash"}, {Sched: "sf-scoreboard"},
	{Sched: "mop", Wakeup: "2src", Stages: intp(0)}, {Sched: "mop", Wakeup: "2src", Stages: intp(1)}, {Sched: "mop", Wakeup: "2src", Stages: intp(2)},
	{Sched: "mop", Wakeup: "wired-or", Stages: intp(0)}, {Sched: "mop", Wakeup: "wired-or", Stages: intp(1)}, {Sched: "mop", Wakeup: "wired-or", Stages: intp(2)},
}

func intp(v int) *int { return &v }

// fresh adds a config no earlier request used, so its cells are new.
func (m *mix) fresh(req *matrixReq) {
	s := m.scheds.deal(m.rng)
	for {
		iq := 8 + m.rng.IntN(249)
		key := fmt.Sprintf("%d/%d", s, iq)
		if m.used[key] {
			continue
		}
		m.used[key] = true
		spec := serveScheds[s]
		spec.IQ = intp(iq)
		m.add(req, spec)
		return
	}
}

func (m *mix) add(req *matrixReq, spec service.ConfigSpec) {
	m.seq++
	name := fmt.Sprintf("c%d", m.seq)
	req.names = append(req.names, name)
	req.specs[name] = spec
}

// roundDone reports whether every benchmark has been dealt equally often
// and the last fresh request has had its revisit.
func (m *mix) roundDone() bool { return len(m.benches.order) == 0 && m.drawn%2 == 0 }

func (m *mix) next() matrixReq {
	req := matrixReq{specs: map[string]service.ConfigSpec{}}
	if m.drawn%2 == 1 {
		req.benches = m.last.benches
		for _, name := range m.last.names {
			m.add(&req, m.last.specs[name])
		}
	} else {
		names := workload.Names()
		for len(req.benches) < matrixBenches {
			b := names[m.benches.deal(m.rng)]
			if !slices.Contains(req.benches, b) {
				req.benches = append(req.benches, b)
			}
		}
	}
	for i := 0; i < matrixConfigs; i++ {
		m.fresh(&req)
	}
	m.last = req
	m.drawn++
	return req
}

// cellObs is one stream line of a matrix request.
type cellObs struct {
	cr       service.CellResult
	spec     service.ConfigSpec
	sent, at time.Time // the matrix POST, and this line's arrival
}

func (o cellObs) executed() bool { return !o.cr.Cached && !o.cr.Shared }

// finishedCell is a cell whose result a matrix stream has delivered: the
// request that names it again, and the result a read must return.
type finishedCell struct {
	req service.SimRequest
	cr  service.CellResult
}

// readObs is one open-loop hit read.
type readObs struct {
	due, sent, done time.Time
	cr              service.CellResult
	want            service.CellResult
}

// serveWindow is what one measured stretch of serve-mixed traffic saw.
type serveWindow struct {
	start, end time.Time
	sent       int // matrix requests sent
	matrixS    []float64
	admitMS    []float64
	cells      []cellObs
	rejected   int // cells of matrix requests rejected with 503
	errs       []error

	// Written by the reader goroutine; read once traffic has waited for it.
	reads    []readObs
	skipped  int // reads due before any cell had finished
	readErrs []error
	tried    atomic.Int64 // reads sent so far, readable while traffic runs
}

// traffic drives a server with serve-mixed's two clients until the
// matrix client has sent maxMatrices requests (when positive), or until
// dur has passed, the mix has dealt every benchmark equally often and the
// reader has sent a read; then it waits for both clients to finish. Whole
// rounds give every run the same share of mcf, which simulates several
// times the cycles of the other benchmarks.
func traffic(s *server, p params, dur time.Duration, maxMatrices int, tr *tracer, parent int64) *serveWindow {
	w := &serveWindow{start: time.Now()}
	var mu sync.Mutex
	var finished []finishedCell
	pick := func(x uint64) (finishedCell, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(finished) == 0 {
			return finishedCell{}, false
		}
		return finished[x%uint64(len(finished))], true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.readLoop(s.url, p, stop, pick, tr, parent)
	}()

	mx := newMix(p.seed)
	mc := newClient()
	defer mc.CloseIdleConnections()
	for n := 0; ; n++ {
		if maxMatrices > 0 && n >= maxMatrices {
			break
		}
		if maxMatrices <= 0 && n > 0 && mx.roundDone() && time.Since(w.start) >= dur && w.tried.Load() > 0 {
			break
		}
		req := mx.next()
		w.sent++
		cells, err := w.matrix(mc, s.url, req, p.insts, tr, parent)
		if err != nil {
			if errors.Is(err, errRejected) {
				w.rejected += len(req.benches) * len(req.names)
			}
			w.errs = append(w.errs, err)
			continue
		}
		mu.Lock()
		for _, c := range cells {
			if c.cr.Error == "" {
				sim := service.SimRequest{Benchmark: c.cr.Bench, Config: req.specs[c.cr.Config], MaxInsts: p.insts}
				finished = append(finished, finishedCell{req: sim, cr: c.cr})
			}
		}
		mu.Unlock()
	}
	w.end = time.Now()
	close(stop)
	wg.Wait()
	return w
}

// matrix sends one streaming matrix request and reads it to its terminal
// status line.
func (w *serveWindow) matrix(c *http.Client, base string, req matrixReq, insts int64, tr *tracer, parent int64) ([]cellObs, error) {
	sp := tr.begin("matrix.request", parent, trackMatrix)
	body := map[string]any{"benchmarks": req.benches, "configs": req.specs, "max_insts": insts, "stream": true}
	sent := time.Now()
	resp, err := post(c, base+"/v1/matrix", body)
	if err != nil {
		sp.end(map[string]any{"error": err.Error()})
		return nil, err
	}
	defer resp.Body.Close()
	head := time.Now()
	var cells []cellObs
	var final service.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var probe struct {
			State service.JobState `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return nil, fmt.Errorf("matrix stream: %w", err)
		}
		if probe.State != "" {
			if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
				return nil, fmt.Errorf("matrix status: %w", err)
			}
			break
		}
		var o cellObs
		if err := json.Unmarshal(sc.Bytes(), &o.cr); err != nil {
			return nil, fmt.Errorf("matrix cell: %w", err)
		}
		o.spec, o.sent, o.at = req.specs[o.cr.Config], sent, time.Now()
		cells = append(cells, o)
		tr.record("cell", sp.id, trackMatrix, sent, o.at, map[string]any{
			"benchmark": o.cr.Bench, "config": o.cr.Config, "cycles": o.cr.Cycles, "committed": o.cr.Committed,
			"cached": o.cr.Cached, "wall_ms": o.cr.WallMS})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrix stream: %w", err)
	}
	end := time.Now()
	sp.end(map[string]any{"job": final.ID, "state": final.State, "cells": len(cells)})
	if final.State != service.JobDone || final.Failed != 0 || len(cells) != final.Cells {
		err = fmt.Errorf("matrix %s ended %q with %d of %d cells failed, %d lines", final.ID, final.State, final.Failed, final.Cells, len(cells))
	}
	w.matrixS = append(w.matrixS, end.Sub(sent).Seconds())
	w.admitMS = append(w.admitMS, float64(head.Sub(sent))/1e6)
	w.cells = append(w.cells, cells...)
	return cells, err
}

// readLoop is the open-loop hit reader: reads of already-finished cells
// due on a seeded Poisson schedule, each timed from when it was due.
func (w *serveWindow) readLoop(base string, p params, stop <-chan struct{}, pick func(uint64) (finishedCell, bool), tr *tracer, parent int64) {
	rng := rand.New(rand.NewPCG(p.seed, 0x68697473))
	c := newClient()
	defer c.CloseIdleConnections()
	due := w.start
	for {
		due = due.Add(time.Duration(rng.ExpFloat64() / hitsPerSec * float64(time.Second)))
		t := time.NewTimer(time.Until(due))
		select {
		case <-stop:
			t.Stop()
			return
		case <-t.C:
		}
		fc, ok := pick(rng.Uint64())
		if !ok {
			w.skipped++
			continue
		}
		o := readObs{due: due, sent: time.Now(), want: fc.cr}
		cr, err := simulate(c, base, fc.req)
		o.done = time.Now()
		w.tried.Add(1)
		tr.record("hit.read", parent, trackReader, o.sent, o.done, map[string]any{
			"benchmark": fc.cr.Bench, "config": fc.cr.Config, "late_ms": float64(o.sent.Sub(due)) / 1e6})
		if err != nil {
			w.readErrs = append(w.readErrs, fmt.Errorf("hit read %s/%s: %w", fc.cr.Bench, fc.cr.Config, err))
			continue
		}
		o.cr = *cr
		w.reads = append(w.reads, o)
	}
}

// serveSetup starts p.setups servers one after another and keeps the
// last; setup_s is the median time of one.
func serveSetup(p params, tr *tracer, parent int64) (*server, []float64, error) {
	var srv *server
	var times []float64
	for i := 0; i < p.setups; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, nil, err
			}
		}
		sp := tr.begin("setup", parent, trackMain)
		t0 := time.Now()
		var err error
		srv, err = startServer(p)
		times = append(times, time.Since(t0).Seconds())
		sp.end(nil)
		if err != nil {
			return nil, nil, err
		}
	}
	return srv, times, nil
}

// runServe measures serve-mixed. Untraced, the two clients run for
// p.seconds. Traced, they run untraced for half the time; then a fresh
// server replays the same number of matrix requests with spans on, and
// a sample of its executed cells is probed layer by layer.
func runServe(p params, tr *tracer) (*report, error) {
	r := newReport()
	root := tr.begin("workload:"+p.workload, 0, trackMain)
	defer root.end(map[string]any{"seed": p.seed, "insts": p.insts})

	srv, setupS, err := serveSetup(p, tr, root.id)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", median(setupS), fmt.Sprintf("median of %d", len(setupS)))
	window := p.seconds
	if tr != nil {
		window /= 2
	}
	g0 := readGo()
	w := traffic(srv, p, window, 0, nil, 0)
	g1 := readGo()
	serveGate(r, srv, w)
	if err := srv.close(); err != nil {
		return nil, err
	}
	uops := serveEndToEnd(r, w)
	progs, genS, err := defaultSuite(p, tr, root.id)
	if err != nil {
		return nil, err
	}
	referenceGate(r, w, progs, p.insts)
	if tr == nil {
		return r, nil
	}

	g0.reportUntil(r, g1, uops)
	var busyMS float64
	for _, c := range w.cells {
		if c.executed() {
			busyMS += c.cr.WallMS
		}
	}
	r.set("experiments.parallel_eff", busyMS/1e3/(w.end.Sub(w.start).Seconds()*float64(p.workers)), fmt.Sprintf("%d service workers", p.workers))

	one := p
	one.setups = 1
	srv, _, err = serveSetup(one, tr, root.id)
	if err != nil {
		return nil, err
	}
	tw := traffic(srv, p, 0, w.sent, tr, root.id)
	serveGate(r, srv, tw)
	if err := srv.close(); err != nil {
		return nil, err
	}
	r.set("trace.overhead_share", tw.end.Sub(tw.start).Seconds()/w.end.Sub(w.start).Seconds()-1, fmt.Sprintf("%d matrix requests each", w.sent))
	serviceLayers(r, tw)

	// Layer probes on a sample of the traced window's executed cells.
	var sample []simCell
	var want []cellStats
	var tot simTotals
	var executed []cellObs
	for _, c := range tw.cells {
		if c.executed() && c.cr.Result != nil {
			executed = append(executed, c)
			tot.add(statsOf(c.cr.Result))
		}
	}
	tot.report(r)
	for i := 0; i < p.serve.probe && len(executed) > 0; i++ {
		c := executed[i*len(executed)/p.serve.probe]
		m, err := c.spec.Machine()
		if err != nil {
			return nil, err
		}
		sample = append(sample, simCell{bench: c.cr.Bench, cfg: c.cr.Config, m: m, prog: progs[c.cr.Bench], insts: p.insts})
		want = append(want, statsOf(c.cr.Result))
	}
	ps := runPass(sample, p.workers, tr, root.id)
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	probe, err := probeCells(sample, p.workers, dir, tr, root.id)
	if err != nil {
		return nil, err
	}
	for _, err := range append(ps.errs, probe.errs...) {
		if err != nil {
			r.fail("probe: %v", err)
		}
	}
	for i, c := range sample {
		r.attempted += 2
		mismatch(r, c, "local", ps.stats[i], "service", want[i])
		mismatch(r, c, "local checked", probe.checked[i].stats, "service", want[i])
	}

	r.set("workload.generate_s", median(genS), fmt.Sprintf("median of %d", len(genS)))
	r.set("core.ns_per_uop", sum(ps.runNS)/float64(ps.committed), fmt.Sprintf("%d cells", len(sample)))
	var cycles float64
	for _, s := range ps.stats {
		cycles += float64(s.Cycles)
	}
	r.set("core.ns_per_cycle", sum(ps.runNS)/cycles, "")
	probe.report(r, sum(ps.cellNS), median(genS)*1e9)
	return r, nil
}

// defaultSuite generates the programs the service runs (the profiles'
// own seeds) for the local reference runs. Traced, it generates them
// p.setups times and also reports the median time.
func defaultSuite(p params, tr *tracer, parent int64) (map[string]*program.Program, []float64, error) {
	n := 1
	if tr != nil {
		n = p.setups
	}
	var progs map[string]*program.Program
	var times []float64
	for i := 0; i < n; i++ {
		var d time.Duration
		var err error
		progs, d, err = generateSuite(0, tr, parent)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
	}
	return progs, times, nil
}

// serveEndToEnd sets serve-mixed's end-to-end metrics and returns the
// instructions its executed cells committed.
func serveEndToEnd(r *report, w *serveWindow) float64 {
	var uops float64
	repeats := 0
	for _, c := range w.cells {
		if c.executed() {
			uops += float64(c.cr.Committed)
		} else {
			repeats++
		}
	}
	r.set("uops_per_s", uops/w.end.Sub(w.start).Seconds(), fmt.Sprintf("%d matrices", len(w.matrixS)))
	r.setDist("matrix_s", w.matrixS)
	r.info = append(r.info, fmt.Sprintf("matrix client: %d cells, %d of them repeats served from the cache or a shared run", len(w.cells), repeats))
	var hitMS, late []float64
	for _, o := range w.reads {
		hitMS = append(hitMS, float64(o.done.Sub(o.due))/1e6)
		late = append(late, float64(o.sent.Sub(o.due))/1e6)
	}
	if len(hitMS) > 0 {
		r.setDist("hit_ms", hitMS)
		slices.Sort(late)
		r.info = append(r.info, fmt.Sprintf("hit reader: %d reads at %d/s due, %d due before any cell finished; sent late by p50 %.3f ms, max %.3f ms",
			len(w.reads), hitsPerSec, w.skipped, quantile(late, 50), late[len(late)-1]))
	}
	return uops
}

// serviceLayers sets the service's per-layer metrics from what the two
// clients observed. A matrix stream flushes its headers with its first
// line, so admit_ms includes the wait for the first cell.
func serviceLayers(r *report, w *serveWindow) {
	var queue, cell, hitQueue []float64
	shared := 0
	for _, c := range w.cells {
		if c.executed() {
			queue = append(queue, float64(c.at.Sub(c.sent))/1e6-c.cr.WallMS)
			cell = append(cell, c.cr.WallMS)
		} else {
			shared++
		}
	}
	for _, o := range w.reads {
		hitQueue = append(hitQueue, float64(o.done.Sub(o.sent))/1e6-o.cr.WallMS)
		if o.cr.Cached || o.cr.Shared {
			shared++
		}
	}
	r.set("service.admit_ms.p50", quantile(w.admitMS, 50), fmt.Sprintf("n=%d", len(w.admitMS)))
	r.setDist("service.queue_ms", queue)
	r.setDist("service.cell_ms", cell)
	tp, tv := tail(hitQueue)
	r.set("service.hit_queue_ms.tail", tv, fmt.Sprintf("p%g of n=%d", tp, len(hitQueue)))
	r.set("service.hit_ratio", ratio(float64(shared), float64(len(w.cells)+len(w.reads))), "")
}

// serveGate checks everything the service returned in a window: no
// failed or rejected cell, a repeated cell equal to its first result, a
// read of a finished cell served from the cache with the same result,
// one checksum per benchmark, executions equal to the distinct cells
// asked for, and cache counters that match the per-cell flags.
func serveGate(r *report, srv *server, w *serveWindow) {
	r.attempted += len(w.cells) + len(w.reads) + w.rejected + 1
	r.failed += w.rejected
	for _, err := range append(w.errs, w.readErrs...) {
		if !errors.Is(err, errRejected) {
			r.attempted++
			r.fail("%v", err)
		}
	}
	first := map[string]service.CellResult{}
	sums := map[string]string{}
	var cached, shared int64
	check := func(cr service.CellResult, what string) {
		if cr.Error != "" || cr.Result == nil {
			r.fail("%s %s/%s: %s", what, cr.Bench, cr.Config, cr.Error)
			return
		}
		if f, ok := first[cr.Cell]; ok && (statsOf(f.Result) != statsOf(cr.Result) || f.Checksum != cr.Checksum) {
			r.fail("%s %s/%s: %+v %s, first %+v %s", what, cr.Bench, cr.Config, statsOf(cr.Result), cr.Checksum, statsOf(f.Result), f.Checksum)
		} else if !ok {
			first[cr.Cell] = cr
		}
		if s, ok := sums[cr.Bench]; ok && s != cr.Checksum {
			r.fail("%s %s/%s: checksum %s, other configs %s", what, cr.Bench, cr.Config, cr.Checksum, s)
		} else if !ok {
			sums[cr.Bench] = cr.Checksum
		}
		if cr.Cached {
			cached++
		}
		if cr.Shared {
			shared++
		}
	}
	for _, c := range w.cells {
		check(c.cr, "cell")
	}
	for _, o := range w.reads {
		if !o.cr.Cached {
			r.fail("read of finished cell %s/%s was not a cache hit", o.want.Bench, o.want.Config)
		}
		check(o.cr, "read")
	}
	execs := srv.svc.Executions()
	if want := int64(len(first) + len(srv.warm)); execs != want {
		r.fail("service executed %d cells, the mix asked for %d distinct", execs, want)
	}
	hits, _, sf := srv.svc.CacheStats()
	if hits != cached || sf != shared {
		r.fail("CacheStats hits %d shared %d, cell flags %d and %d", hits, sf, cached, shared)
	}
	r.set("service.executions", float64(execs), "")
}

// referenceGate re-runs each benchmark's first executed cell locally
// under the checker: the service's statistics and wire checksum must
// equal the local run's.
func referenceGate(r *report, w *serveWindow, progs map[string]*program.Program, insts int64) {
	seen := map[string]bool{}
	for _, c := range w.cells {
		if !c.executed() || c.cr.Result == nil || seen[c.cr.Bench] {
			continue
		}
		seen[c.cr.Bench] = true
		r.attempted++
		m, err := c.spec.Machine()
		if err != nil {
			r.fail("reference %s/%s: %v", c.cr.Bench, c.cr.Config, err)
			continue
		}
		ref, err := runChecked(simCell{bench: c.cr.Bench, cfg: c.cr.Config, m: m, prog: progs[c.cr.Bench], insts: insts})
		if err != nil {
			r.fail("reference: %v", err)
			continue
		}
		if got := statsOf(c.cr.Result); got != ref.stats || c.cr.Checksum != fmt.Sprintf("%016x", ref.checksum) {
			r.fail("%s/%s: service %+v %s, local checked %+v %016x", c.cr.Bench, c.cr.Config, got, c.cr.Checksum, ref.stats, ref.checksum)
		}
	}
}
