package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"macroop/internal/checker"
	"macroop/internal/experiments"
	"macroop/internal/journal"
	"macroop/internal/simerr"
)

// Admission and lifecycle errors (the 503 family of the HTTP surface).
var (
	// ErrQueueFull: admitting the request would exceed the bounded queue.
	// Clients should honour the Retry-After hint and resubmit.
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining: the server is finishing in-flight work before exit.
	ErrDraining = errors.New("service: draining")
	// ErrInterrupted: a drain cut the job short before its cells all
	// finished; a restarted server with the same journal resumes it.
	ErrInterrupted = errors.New("service: job interrupted by drain")
)

// Options configures a Service. The zero value is usable: every field
// has a production default.
type Options struct {
	// Workers is the worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds admitted-but-unfinished cells; admission beyond
	// it is rejected with ErrQueueFull (default 256).
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (default 4096).
	CacheEntries int
	// CacheBytes additionally bounds the result cache's approximate
	// resident size; 0 means no byte quota (the entry bound still holds).
	CacheBytes int64
	// DefaultInsts is the per-cell instruction budget when a request
	// leaves it unset (default 200_000).
	DefaultInsts int64
	// MaxInsts caps any request's per-cell budget (default 5_000_000).
	MaxInsts int64
	// CellTimeout bounds one cell's wall clock (default 2m).
	CellTimeout time.Duration
	// JournalPath, when set, makes the service crash-consistent: cell
	// results and batch specs are write-ahead journaled, and a restarted
	// service warms its cache from the journal and resumes batches a
	// drain (or crash) left unfinished.
	JournalPath string
	// RetryAfter is the hint attached to queue-full rejections
	// (default 1s).
	RetryAfter time.Duration
	// NodeName, when set, namespaces job IDs as job-<node>-<seq> so jobs
	// stay unique across a cluster and a peer can adopt a dead node's
	// jobs under their original IDs without colliding with its own.
	NodeName string
	// PeerFill, when set, is consulted before a cache-missing cell is
	// executed locally: the cluster layer asks the cell's owning shard
	// for the record. Returning ok=false (peer slow, busy, dead, or this
	// node owns the cell) degrades to local execution. The hook runs
	// inside the cell's singleflight, so concurrent identical requests
	// share one peer fetch.
	PeerFill func(ctx context.Context, cell CellSpec, fp string) (*CachedResult, bool)
	// ClusterHealth, when set, is embedded in the /healthz JSON body as
	// the "cluster" field (ring, membership, ownership state).
	ClusterHealth func() any
	// Epoch, when set, supplies the cluster epoch stamped on freshly
	// executed records (CachedResult.SourceEpoch); nil means epoch 0.
	Epoch func() uint64
	// OnExecuted, when set, observes every freshly executed (not cached,
	// coalesced, peer-filled, or warmed) cell record after it is cached
	// and journaled. The cluster layer hangs write-through replication
	// off it. It must not block: it runs on the worker goroutine.
	OnExecuted func(fp string, rec *CachedResult)
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.DefaultInsts <= 0 {
		o.DefaultInsts = 200_000
	}
	if o.MaxInsts <= 0 {
		o.MaxInsts = 5_000_000
	}
	if o.CellTimeout <= 0 {
		o.CellTimeout = 2 * time.Minute
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// task is one queued cell execution on behalf of a job.
type task struct {
	job  *Job
	cell resolvedCell
	idx  int
}

// Service is the batched, cached simulation service behind cmd/mopserve.
type Service struct {
	opts     Options
	runner   *experiments.Runner // shared per-benchmark program futures
	cache    *resultCache[*CachedResult]
	flights  *flightGroup[*CachedResult]
	gaps     *resultCache[*experiments.GapReport]
	gapCalls *flightGroup[*experiments.GapReport]
	jnl      *journal.Journal
	met      *metrics

	queue   chan *task
	pending atomic.Int64 // admitted, unfinished cells

	mu      sync.Mutex
	jobs    map[string]*Job
	seq     int
	resumed []*Job // journaled batches awaiting re-dispatch at Start
	started bool

	execMu  sync.Mutex
	execFPs map[string]int // fingerprint -> local execution count

	draining atomic.Bool
	runCtx   context.Context // cancelled by Drain: pick up no new cells
	stopRun  context.CancelFunc
	hardCtx  context.Context // cancelled by Close: abort in-flight cells
	stopHard context.CancelFunc
	wg       sync.WaitGroup // workers + dispatchers
	closeJnl sync.Once

	executions atomic.Int64
}

// Journal key prefixes. cellres records double as the persistent layer
// of the content-addressed cache; jobspec without a matching jobdone is
// exactly an unfinished batch, which is what resume re-dispatches. They
// are exported because the cluster's failover path reads a dead peer's
// journal under the same convention to re-own its unfinished jobs.
const (
	KeyCell    = "cellres|"
	KeyJobSpec = "jobspec|"
	KeyJobDone = "jobdone|"
	// KeyGap records finished gap reports (POST /v1/gap) under their
	// content fingerprint; replay warms the gap cache from them.
	KeyGap = "gapres|"
)

// New builds a Service, opening and replaying the journal when
// configured. Call Start to spawn the worker pool.
func New(opts Options) (*Service, error) {
	opts = opts.withDefaults()
	s := &Service{
		opts:     opts,
		runner:   experiments.NewRunner(0), // program cache only; budgets are per-cell
		cache:    newResultCache(opts.CacheEntries, opts.CacheBytes),
		flights:  newFlightGroup[*CachedResult](),
		gaps:     newCache[*experiments.GapReport](maxGapReports, 0, nil),
		gapCalls: newFlightGroup[*experiments.GapReport](),
		queue:    make(chan *task, opts.QueueDepth),
		jobs:     make(map[string]*Job),
		execFPs:  make(map[string]int),
	}
	s.runCtx, s.stopRun = context.WithCancel(context.Background())
	s.hardCtx, s.stopHard = context.WithCancel(context.Background())
	s.met = newMetrics(func() int { return int(s.pending.Load()) }, opts.Workers)
	if opts.JournalPath != "" {
		j, err := journal.Open(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		s.jnl = j
		if err := s.replayJournal(); err != nil {
			j.Close()
			return nil, err
		}
	}
	return s, nil
}

// jobSeq extracts the numeric sequence from a job ID ("job-7" or
// "job-<node>-7"); -1 if it does not parse.
func jobSeq(id string) int {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return -1
	}
	n, err := strconv.Atoi(id[i+1:])
	if err != nil {
		return -1
	}
	return n
}

// IndexRecords builds the authoritative key → value index from a
// journal's file-order records. For most keys the policy is last-wins
// (a re-appended key supersedes the older frame). Cell-result keys are
// the exception: replication and repair can land the same cell from two
// different cluster epochs in one journal, and there newest SourceEpoch
// wins regardless of file order (epoch ties fall back to file order, so
// the result is deterministic for any interleaving). A cellres whose
// payload does not decode never displaces one that does. Exported
// because the cluster failover path indexes a dead peer's journal under
// the same policy.
func IndexRecords(recs []journal.Record) map[string][]byte {
	idx := make(map[string][]byte, len(recs))
	epochs := make(map[string]uint64)
	for _, r := range recs {
		if !strings.HasPrefix(r.Key, KeyCell) {
			idx[r.Key] = r.Data
			continue
		}
		var cw CellWire
		if err := json.Unmarshal(r.Data, &cw); err != nil || cw.Record() == nil {
			continue // damaged cellres: keep whatever intact record we have
		}
		if prev, ok := idx[r.Key]; ok && prev != nil && cw.Epoch < epochs[r.Key] {
			continue // older-epoch duplicate: the newer record stands
		}
		idx[r.Key] = r.Data
		epochs[r.Key] = cw.Epoch
	}
	return idx
}

// replayJournal warms the cache from journaled cell results and
// reconstructs jobs: finished batches reload frozen, unfinished ones
// queue for re-dispatch at Start. The file is re-read via journal.Load
// so duplicate cellres keys (replicated records from different source
// epochs) resolve newest-epoch-wins via IndexRecords. Damaged or stale
// records never fail the replay — a cellres that does not decode simply
// re-runs, a jobdone whose jobspec is missing is ignored, and a jobspec
// whose cells no longer resolve is surfaced and abandoned at Start.
func (s *Service) replayJournal() error {
	recs, err := journal.Load(s.jnl.Path())
	if err != nil {
		return err
	}
	idx := IndexRecords(recs)
	keys := make([]string, 0, len(idx))
	for k := range idx {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var pendingSpecs []JobSpecRecord
	for _, key := range keys {
		data := idx[key]
		switch {
		case strings.HasPrefix(key, KeyCell):
			var cw CellWire
			if err := json.Unmarshal(data, &cw); err != nil {
				continue // damaged record: the cell simply re-runs
			}
			if rec := cw.Record(); rec != nil {
				s.cache.Put(key[len(KeyCell):], rec)
			}
		case strings.HasPrefix(key, KeyGap):
			var rep experiments.GapReport
			if err := json.Unmarshal(data, &rep); err != nil {
				continue // damaged record: the analysis simply re-runs
			}
			s.gaps.Put(key[len(KeyGap):], &rep)
		case strings.HasPrefix(key, KeyJobSpec):
			var spec JobSpecRecord
			if err := json.Unmarshal(data, &spec); err != nil {
				continue
			}
			if n := jobSeq(spec.ID); n > s.seq {
				s.seq = n
			}
			if done, ok := s.jnl.Get(KeyJobDone + spec.ID); ok {
				var st JobStatus
				if err := json.Unmarshal(done, &st); err == nil {
					j := newJob(spec.ID, spec.Cells, true, st.Created)
					j.state = st.State
					j.frozen = &st
					close(j.done)
					s.jobs[spec.ID] = j
					continue
				}
			}
			pendingSpecs = append(pendingSpecs, spec)
		}
	}
	sort.Slice(pendingSpecs, func(i, k int) bool { return pendingSpecs[i].ID < pendingSpecs[k].ID })
	for _, spec := range pendingSpecs {
		j := newJob(spec.ID, spec.Cells, true, time.Now())
		s.jobs[spec.ID] = j
		s.resumed = append(s.resumed, j)
	}
	return nil
}

// Start spawns the worker pool and re-dispatches journaled batches that
// never finished.
func (s *Service) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	resumed := s.resumed
	s.resumed = nil
	s.mu.Unlock()

	for i := 0; i < s.opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	for _, j := range resumed {
		cells, err := resolveAll(j.cells)
		if err != nil {
			// A journaled spec that no longer resolves (e.g. the workload
			// set changed) cannot be resumed; surface and abandon it.
			s.opts.Logf("service: resume %s: %v", j.id, err)
			j.interrupt()
			continue
		}
		s.met.jobsResumed.Add(1)
		s.pending.Add(int64(len(cells)))
		s.wg.Add(1)
		go s.dispatch(j, cells)
		s.opts.Logf("service: resuming %s (%d cells)", j.id, len(cells))
	}
}

func resolveAll(specs []CellSpec) ([]resolvedCell, error) {
	out := make([]resolvedCell, len(specs))
	for i, c := range specs {
		rc, err := c.resolve()
		if err != nil {
			return nil, err
		}
		out[i] = rc
	}
	return out, nil
}

// worker executes queued cells until drain.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		// Prefer the drain signal over racing it against a ready task.
		select {
		case <-s.runCtx.Done():
			return
		default:
		}
		select {
		case <-s.runCtx.Done():
			return
		case t := <-s.queue:
			s.met.workersBusy.Add(1)
			cr := s.runTask(t)
			s.finishCell(t, cr)
			s.met.workersBusy.Add(-1)
		}
	}
}

// dispatch feeds one job's cells into the queue, stopping at drain
// (undelivered cells stay journaled in the job's spec for resume).
func (s *Service) dispatch(j *Job, cells []resolvedCell) {
	defer s.wg.Done()
	for i := range cells {
		select {
		case s.queue <- &task{job: j, cell: cells[i], idx: i}:
		case <-s.runCtx.Done():
			return
		}
	}
}

// runTask executes one cell (through cache and singleflight) and shapes
// the wire result.
func (s *Service) runTask(t *task) *CellResult {
	start := time.Now()
	cr := &CellResult{
		Index:  t.idx,
		Bench:  t.cell.Bench,
		Config: t.cell.Name,
		Cell:   t.cell.fp,
	}
	rec, how, err := s.executeCell(s.hardCtx, t.cell)
	cr.WallMS = float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		kind, _ := simerr.KindOf(err)
		cr.Error = err.Error()
		cr.ErrorKind = kind.String()
		cr.ReproFingerprint = simerr.FingerprintOf(err)
		return cr
	}
	cr.Cached = how == srcCached
	cr.Shared = how == srcShared
	cr.PeerFilled = how == srcPeer
	cr.Checksum = fmt.Sprintf("%016x", rec.Checksum)
	cr.CheckedCommits = rec.Commits
	cr.IPC = rec.Result.IPC
	cr.Cycles = rec.Result.Cycles
	cr.Committed = rec.Result.Committed
	cr.Result = rec.Result
	return cr
}

// cellSource says where a finished cell's record came from.
type cellSource int

const (
	srcRan cellSource = iota
	srcCached
	srcShared
	srcPeer
)

// executeCell resolves one cell to its outcome: cache hit, coalesced
// into an identical in-flight execution, a peer cache-fill from the
// owning shard, or a fresh simulation under the differential oracle.
// Fresh and peer-filled successes are cached and journaled before any
// waiter observes them. noFill cells (peer-fill requests served for
// another node) never chain a further fill.
func (s *Service) executeCell(ctx context.Context, c resolvedCell) (rec *CachedResult, how cellSource, err error) {
	if rec, ok := s.cache.Get(c.fp); ok {
		s.met.cacheHits.Add(1)
		return rec, srcCached, nil
	}
	how = srcCached // refined below by the flight outcome
	var ran, filled bool
	rec, shared, err := s.flights.Do(c.fp, func() (*CachedResult, error) {
		if rec, ok := s.cache.Get(c.fp); ok {
			return rec, nil // lost the lookup/insert race: still a hit
		}
		cellCtx, cancel := context.WithTimeout(ctx, s.opts.CellTimeout)
		defer cancel()
		if s.opts.PeerFill != nil && !c.noFill {
			if rec, ok := s.opts.PeerFill(cellCtx, c.CellSpec, c.fp); ok && rec != nil {
				filled = true
				s.cache.Put(c.fp, rec)
				s.journalCellResult(c.fp, rec)
				return rec, nil
			}
		}
		ran = true
		s.met.cacheMisses.Add(1)
		s.executions.Add(1)
		s.execMu.Lock()
		s.execFPs[c.fp]++
		s.execMu.Unlock()
		p, err := s.runner.Program(c.Bench)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, sum, err := checker.CheckedRunContext(cellCtx, c.m, p, c.Insts, c.Insts)
		if err != nil {
			return nil, err
		}
		s.met.observeCell(c.m.Sched.String(), time.Since(t0).Seconds(), res.Committed)
		rec := &CachedResult{Bench: c.Bench, Result: res, Checksum: sum.Checksum, Commits: sum.Commits}
		if s.opts.Epoch != nil {
			rec.SourceEpoch = s.opts.Epoch()
		}
		s.cache.Put(c.fp, rec)
		s.journalCellResult(c.fp, rec)
		if s.opts.OnExecuted != nil {
			s.opts.OnExecuted(c.fp, rec)
		}
		return rec, nil
	})
	switch {
	case shared:
		how = srcShared
		s.met.sfShared.Add(1)
	case ran:
		how = srcRan
	case filled:
		how = srcPeer
	case err == nil:
		how = srcCached
		s.met.cacheHits.Add(1)
	}
	return rec, how, err
}

// finishCell records a completed cell on its job and handles job
// completion: terminal metrics and the jobdone journal record.
func (s *Service) finishCell(t *task, cr *CellResult) {
	// Leave the queue before record publishes the result: record can
	// wake a synchronous Simulate caller, who must not then see its own
	// cell still counted in the queue depth.
	s.pending.Add(-1)
	if cr.Error == "" {
		s.met.cellsOK.Add(1)
	} else {
		s.met.cellsFailed.Add(1)
	}
	if !t.job.record(cr) {
		return
	}
	st := t.job.Status(true)
	if st.State == JobFailed {
		s.met.jobsFailed.Add(1)
		s.opts.Logf("service: %s finished with %d/%d failed cells%s",
			t.job.id, st.Failed, st.Cells, t.job.failedCells())
	} else {
		s.met.jobsCompleted.Add(1)
	}
	if t.job.journaled {
		s.journalJobDone(st)
	}
}

// admit performs admission control for n new cells: the bounded queue
// rejects rather than buffers unboundedly or blocks the caller.
func (s *Service) admit(n int) error {
	if s.draining.Load() {
		s.met.jobsRejected.Add(1)
		return ErrDraining
	}
	for {
		cur := s.pending.Load()
		if int(cur)+n > s.opts.QueueDepth {
			s.met.jobsRejected.Add(1)
			return ErrQueueFull
		}
		if s.pending.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// maxRetainedJobs bounds the in-memory job registry: once past it,
// terminal ad-hoc (non-journaled) jobs are evicted oldest-first so a
// long-lived server's registry cannot grow without bound.
const maxRetainedJobs = 4096

// newJob allocates the next job ID and registers the job.
func (s *Service) newJob(cells []CellSpec, journaled bool) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	if s.opts.NodeName != "" {
		id = fmt.Sprintf("job-%s-%d", s.opts.NodeName, s.seq)
	}
	j := newJob(id, cells, journaled, time.Now())
	s.jobs[j.id] = j
	if len(s.jobs) > maxRetainedJobs {
		s.pruneJobsLocked()
	}
	return j
}

// pruneJobsLocked evicts the oldest terminal non-journaled jobs down to
// the retention bound. Journaled and still-running jobs always survive.
func (s *Service) pruneJobsLocked() {
	victims := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.journaled {
			continue
		}
		select {
		case <-j.Done():
			victims = append(victims, j)
		default:
		}
	}
	sort.Slice(victims, func(i, k int) bool { return victims[i].created.Before(victims[k].created) })
	for _, j := range victims {
		if len(s.jobs) <= maxRetainedJobs {
			return
		}
		delete(s.jobs, j.id)
	}
}

// Simulate runs one cell synchronously: admitted through the same
// bounded queue and worker pool as batches, so a saturated server
// rejects rather than piling up callers. The returned CellResult is
// non-nil whenever the cell finished, even if the simulation itself
// failed (err then carries the typed failure).
func (s *Service) Simulate(ctx context.Context, req SimRequest) (*CellResult, error) {
	rc, err := s.resolveSim(req)
	if err != nil {
		return nil, err
	}
	if err := s.admit(1); err != nil {
		return nil, err
	}
	s.met.jobsAccepted.Add(1)
	j := s.newJob([]CellSpec{rc.CellSpec}, false)
	t := &task{job: j, cell: rc, idx: 0}
	select {
	case s.queue <- t:
	case <-s.runCtx.Done():
		s.pending.Add(-1)
		j.interrupt()
		return nil, ErrDraining
	case <-ctx.Done():
		s.pending.Add(-1)
		j.interrupt()
		return nil, simerr.Cancelled(simerr.Context{Benchmark: req.Benchmark}, ctx.Err())
	}
	select {
	case <-j.Done():
	case <-ctx.Done():
		// The cell still runs and warms the cache; this caller is gone.
		return nil, simerr.Cancelled(simerr.Context{Benchmark: req.Benchmark}, ctx.Err())
	}
	st := j.Status(true)
	if st.State == JobInterrupted || len(st.Results) == 0 {
		return nil, ErrInterrupted
	}
	cr := st.Results[0]
	if cr.Error != "" {
		kind, _ := simerr.ParseKind(cr.ErrorKind)
		return cr, simerr.Journaled(kind, cr.Error, cr.ReproFingerprint)
	}
	return cr, nil
}

// resolveSim applies the server's instruction-budget defaults and caps
// to a single-cell request and resolves it.
func (s *Service) resolveSim(req SimRequest) (resolvedCell, error) {
	insts := req.MaxInsts
	if insts <= 0 {
		insts = s.opts.DefaultInsts
	}
	if insts > s.opts.MaxInsts {
		return resolvedCell{}, fmt.Errorf("max_insts %d exceeds the server limit %d", insts, s.opts.MaxInsts)
	}
	return CellSpec{Bench: req.Benchmark, Name: req.Config.Sched, Spec: req.Config, Insts: insts}.resolve()
}

// FingerprintCell resolves a cell spec to its content fingerprint — the
// cluster layer's handle for probe fills and replica-set computation.
func (s *Service) FingerprintCell(spec CellSpec) (string, error) {
	rc, err := spec.resolve()
	if err != nil {
		return "", err
	}
	return rc.fp, nil
}

// ResolveSim applies the server's budget defaults to a single-cell
// request and returns the resolved spec plus its content fingerprint.
// The cluster router uses it to compute a request's owning shard without
// executing anything.
func (s *Service) ResolveSim(req SimRequest) (CellSpec, string, error) {
	rc, err := s.resolveSim(req)
	if err != nil {
		return CellSpec{}, "", err
	}
	return rc.CellSpec, rc.fp, nil
}

// SubmitMatrix admits a batched sweep and returns immediately; the job
// runs on the worker pool. With a journal attached the batch is durable:
// its spec is journaled before acceptance is reported, so a drain or
// crash mid-sweep resumes it.
func (s *Service) SubmitMatrix(req MatrixRequest) (*Job, error) {
	cells, err := req.cells(s.opts.DefaultInsts, s.opts.MaxInsts)
	if err != nil {
		return nil, err
	}
	if err := s.admit(len(cells)); err != nil {
		return nil, err
	}
	s.met.jobsAccepted.Add(1)
	specs := make([]CellSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.CellSpec
	}
	j := s.newJob(specs, s.jnl != nil)
	if j.journaled {
		s.journalJobSpec(j)
	}
	s.wg.Add(1)
	go s.dispatch(j, cells)
	return j, nil
}

// AdoptJob re-owns a job under its original (foreign) ID — the failover
// path: a peer died with this jobspec journaled but unfinished, and this
// node resumes it. Adoption is recovery work, so it bypasses queue
// admission (the cells were admitted once already, on the dead node);
// cells whose records were warmed into the cache replay instantly, and
// only the rest re-execute. resumed/rerun report that split. Adopting an
// ID this node already knows is a no-op returning the existing job.
func (s *Service) AdoptJob(id string, cells []CellSpec) (j *Job, resumed, rerun int, err error) {
	if s.draining.Load() {
		return nil, 0, 0, ErrDraining
	}
	rcs, err := resolveAll(cells)
	if err != nil {
		return nil, 0, 0, err
	}
	s.mu.Lock()
	if existing, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		return existing, 0, 0, nil
	}
	j = newJob(id, cells, s.jnl != nil, time.Now())
	s.jobs[id] = j
	s.mu.Unlock()
	for _, rc := range rcs {
		if _, ok := s.cache.Get(rc.fp); ok {
			resumed++
		} else {
			rerun++
		}
	}
	if j.journaled {
		s.journalJobSpec(j)
	}
	s.met.jobsResumed.Add(1)
	s.pending.Add(int64(len(rcs)))
	s.wg.Add(1)
	go s.dispatch(j, rcs)
	return j, resumed, rerun, nil
}

// WarmCache inserts a record under its fingerprint (journaling it for
// durability) unless one is already cached. It reports whether the
// record was new. Failover uses it to reconstitute a dead peer's
// completed cells; the peer-fill path uses the same insertion implicitly
// via executeCell.
func (s *Service) WarmCache(fp string, rec *CachedResult) bool {
	if _, ok := s.cache.Get(fp); ok {
		return false
	}
	s.cache.Put(fp, rec)
	s.journalCellResult(fp, rec)
	return true
}

// CacheFingerprints snapshots every cached cell fingerprint (unordered).
// The cluster's anti-entropy pass digests these to offer records to
// replica peers.
func (s *Service) CacheFingerprints() []string { return s.cache.Keys() }

// CachedByFingerprint looks a record up by content fingerprint — the
// fast path when serving a peer's cache-fill request.
func (s *Service) CachedByFingerprint(fp string) (*CachedResult, bool) {
	return s.cache.Get(fp)
}

// ExecuteSpec resolves one cell and produces its record on behalf of a
// peer's cache-fill request: cache hit, coalesced into an in-flight
// execution, or executed locally under normal admission control (so a
// saturated node answers busy and the requester degrades to local
// execution — that is the work-stealing backpressure signal). Fill
// service never chains a further peer fill: the cell is resolved here
// or not at all.
func (s *Service) ExecuteSpec(ctx context.Context, spec CellSpec) (rec *CachedResult, cached bool, err error) {
	rc, err := spec.resolve()
	if err != nil {
		return nil, false, err
	}
	rc.noFill = true
	if rec, ok := s.cache.Get(rc.fp); ok {
		s.met.cacheHits.Add(1)
		return rec, true, nil
	}
	if err := s.admit(1); err != nil {
		return nil, false, err
	}
	defer s.pending.Add(-1)
	rec, how, err := s.executeCell(ctx, rc)
	return rec, how == srcCached || how == srcShared, err
}

// Job looks up a job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobStatuses snapshots every known job, newest first.
func (s *Service) JobStatuses() []*JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]*JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID > out[k].ID })
	return out
}

// Draining reports whether the service has begun (or finished) draining.
func (s *Service) Draining() bool { return s.draining.Load() }

// HealthStatus is the /healthz JSON body: enough live state for an
// operator (or the cluster-aware client) to see drain progress and, when
// clustered, ring and ownership state.
type HealthStatus struct {
	Status          string  `json:"status"` // ok | draining
	Draining        bool    `json:"draining"`
	QueueDepth      int     `json:"queue_depth"`
	Workers         int     `json:"workers"`
	CacheCells      int     `json:"cache_cells"`
	CacheBytes      int64   `json:"cache_bytes"`
	Jobs            int     `json:"jobs"`
	DrainETASeconds float64 `json:"drain_eta_seconds,omitempty"`
	Cluster         any     `json:"cluster,omitempty"`
}

// Health snapshots the service for /healthz.
func (s *Service) Health() HealthStatus {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	h := HealthStatus{
		Status:     "ok",
		Draining:   s.draining.Load(),
		QueueDepth: int(s.pending.Load()),
		Workers:    s.opts.Workers,
		CacheCells: s.cache.Len(),
		CacheBytes: s.cache.Bytes(),
		Jobs:       jobs,
	}
	if h.Draining {
		h.Status = "draining"
		h.DrainETASeconds = s.DrainETA().Seconds()
	}
	if s.opts.ClusterHealth != nil {
		h.Cluster = s.opts.ClusterHealth()
	}
	return h
}

// DrainETA estimates how long until in-flight work finishes: pending
// cells times the observed mean cell latency, divided across the worker
// pool. With no latency samples yet it assumes one second per cell. The
// estimate backs the Retry-After hint during a drain, replacing the
// static queue hint: a client told to come back learns when the restart
// is actually expected to have happened.
func (s *Service) DrainETA() time.Duration {
	pending := s.pending.Load()
	if pending <= 0 {
		return 0
	}
	avg := s.met.avgCellSeconds()
	if avg <= 0 {
		avg = 1
	}
	eta := time.Duration(float64(pending) * avg / float64(s.opts.Workers) * float64(time.Second))
	if eta < time.Second {
		eta = time.Second
	}
	return eta
}

// retryAfter is the Retry-After hint for a rejected request: during a
// drain it reflects the expected drain time; for queue-full it is the
// configured static hint.
func (s *Service) retryAfter(err error) time.Duration {
	if errors.Is(err, ErrDraining) || errors.Is(err, ErrInterrupted) {
		if eta := s.DrainETA(); eta > 0 {
			return eta
		}
		return s.opts.RetryAfter
	}
	return s.opts.RetryAfter
}

// Drain gracefully stops the service: no new admissions, queued cells
// are left for resume, in-flight cells run to completion. It returns
// when the pool is idle; if ctx expires first, in-flight cells are
// hard-cancelled (they fail typed-cancelled and their jobs resume on
// restart). Unfinished jobs are marked interrupted so waiters return.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.stopRun()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		s.stopHard()
		<-idle
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.interrupt()
	}
	return err
}

// Close drains (bounded by a short grace) and releases the journal.
func (s *Service) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	s.stopHard()
	s.closeJnl.Do(func() {
		if s.jnl != nil {
			if cerr := s.jnl.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Abort hard-stops the service without draining — the in-process stand-in
// for kill -9 in cluster chaos tests. The journal is closed first, so
// nothing that happens after Abort is durable: exactly the visibility a
// crashed process leaves behind. In-flight cells fail typed-cancelled;
// worker goroutines exit; no cleanup runs.
func (s *Service) Abort() {
	s.draining.Store(true)
	s.closeJnl.Do(func() {
		if s.jnl != nil {
			s.jnl.Close()
		}
	})
	s.stopRun()
	s.stopHard()
}

// Executions reports how many cells were actually simulated (cache hits
// and coalesced requests excluded) — the observable the singleflight and
// sustained-load tests assert on.
func (s *Service) Executions() int64 { return s.executions.Load() }

// ExecutedFingerprints snapshots the per-fingerprint local execution
// counts — the chaos tests' precise observable for "failover re-ran only
// cells the dead node had not journaled as complete".
func (s *Service) ExecutedFingerprints() map[string]int {
	s.execMu.Lock()
	defer s.execMu.Unlock()
	out := make(map[string]int, len(s.execFPs))
	for k, v := range s.execFPs {
		out[k] = v
	}
	return out
}

// CacheStats reports content-addressed cache hits, misses, and requests
// coalesced by singleflight.
func (s *Service) CacheStats() (hits, misses, shared int64) {
	return s.met.cacheHits.Load(), s.met.cacheMisses.Load(), s.met.sfShared.Load()
}

// QueueDepth reports admitted-but-unfinished cells.
func (s *Service) QueueDepth() int { return int(s.pending.Load()) }

// QueueBound reports the admission limit (Options.QueueDepth) — the
// cluster's steal heuristic compares depth against it.
func (s *Service) QueueBound() int { return s.opts.QueueDepth }

// MetricsText renders the Prometheus exposition.
func (s *Service) MetricsText() string {
	var b strings.Builder
	s.met.Render(&b)
	return b.String()
}

// ---------------------------------------------------------------------
// Journal encoding.

// JobSpecRecord is the journaled form of an accepted batch. Exported so
// the cluster failover path can decode a dead peer's jobspec records and
// adopt its unfinished jobs.
type JobSpecRecord struct {
	ID    string     `json:"id"`
	Cells []CellSpec `json:"cells"`
}

// CellWire is the serialized form of one successful cell result — both
// the journaled cellres record and the peer-fill response payload. The
// checksum is hex text: it is a uint64 and JSON numbers cannot carry 64
// bits faithfully.
type CellWire struct {
	Bench    string           `json:"bench"`
	Result   *json.RawMessage `json:"result"`
	Checksum string           `json:"checksum"`
	Commits  int64            `json:"commits"`
	// Epoch is the cluster epoch the record was executed under; replay
	// keeps the newest-epoch record when duplicates interleave.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Record decodes the wire form back into a cache record; nil if the
// payload is damaged or incomplete.
func (cw *CellWire) Record() *CachedResult {
	if cw.Result == nil {
		return nil
	}
	rec := &CachedResult{Bench: cw.Bench, Commits: cw.Commits, SourceEpoch: cw.Epoch}
	if err := json.Unmarshal(*cw.Result, &rec.Result); err != nil {
		return nil
	}
	sum, err := strconv.ParseUint(cw.Checksum, 16, 64)
	if err != nil {
		return nil
	}
	rec.Checksum = sum
	return rec
}

// WireFromRecord encodes a cache record for the journal or the peer
// protocol.
func WireFromRecord(rec *CachedResult) (*CellWire, error) {
	res, err := json.Marshal(rec.Result)
	if err != nil {
		return nil, err
	}
	raw := json.RawMessage(res)
	return &CellWire{
		Bench:    rec.Bench,
		Result:   &raw,
		Checksum: fmt.Sprintf("%016x", rec.Checksum),
		Commits:  rec.Commits,
		Epoch:    rec.SourceEpoch,
	}, nil
}

func (s *Service) journalCellResult(fp string, rec *CachedResult) {
	if s.jnl == nil {
		return
	}
	cw, err := WireFromRecord(rec)
	var data []byte
	if err == nil {
		data, err = json.Marshal(cw)
	}
	if err == nil {
		err = s.jnl.Append(KeyCell+fp, data)
	}
	if err != nil {
		s.opts.Logf("service: journal cell %s: %v", fp, err)
	}
}

func (s *Service) journalJobSpec(j *Job) {
	if s.jnl == nil {
		return
	}
	data, err := json.Marshal(&JobSpecRecord{ID: j.id, Cells: j.cells})
	if err == nil {
		err = s.jnl.Append(KeyJobSpec+j.id, data)
	}
	if err != nil {
		s.opts.Logf("service: journal %s spec: %v", j.id, err)
	}
}

func (s *Service) journalJobDone(st *JobStatus) {
	if s.jnl == nil {
		return
	}
	data, err := json.Marshal(st)
	if err == nil {
		err = s.jnl.Append(KeyJobDone+st.ID, data)
	}
	if err != nil {
		s.opts.Logf("service: journal %s done: %v", st.ID, err)
	}
}

// AppendJournal durably records an arbitrary cluster-level key/value
// entry (ownership and epoch records) in the node's journal. With no
// journal attached it is a no-op.
func (s *Service) AppendJournal(key string, v any) error {
	if s.jnl == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.jnl.Append(key, data)
}
