package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Backpressure sentinels — both map to 429 with a Retry-After hint.
var (
	// ErrQuota rejects a submission because the tenant is already at its
	// queued-plus-running concurrency quota.
	ErrQuota = errors.New("serve: tenant is at its concurrent-job quota")
	// ErrBacklog rejects a submission because the global queue is full.
	ErrBacklog = errors.New("serve: job queue is full")
	// ErrShutdown rejects a submission because the service is stopping.
	ErrShutdown = errors.New("serve: server is shutting down")
)

// Config tunes the service. The zero value is usable: every field has a
// working default applied by withDefaults.
type Config struct {
	// Workers is the pool size (default 2 — the smallest size that can
	// overlap two tenants).
	Workers int
	// Start launches pool workers; default InprocWorkers.
	// cmd/stencilserve re-execs itself with -worker instead.
	Start StartWorker
	// QuotaPerTenant bounds each tenant's queued+running jobs (default 4).
	// Cache hits bypass the quota: they cost no worker time.
	QuotaPerTenant int
	// QueueDepth bounds the global backlog (default 64).
	QueueDepth int
	// JobTimeout kills a job's workers when exceeded (default 2m).
	JobTimeout time.Duration
	// CacheEntries bounds the result cache (default 128).
	CacheEntries int
	// MaxBodyBytes bounds a job submission body (default 64 MiB).
	MaxBodyBytes int64
	// MaxUploadBytes bounds one grid upload (default 64 MiB).
	MaxUploadBytes int64
	// MaxIters bounds a job's run length (default 1e6).
	MaxIters int
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// DisableFanOut pins every job to a single worker. By default a 2-D
	// cluster job whose rank count fits the pool is fanned out one rank
	// per worker over the TCP transport — bit-identical to the in-worker
	// channel transport, just actually parallel across processes.
	DisableFanOut bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.Start == nil {
		c.Start = InprocWorkers()
	}
	if c.QuotaPerTenant < 1 {
		c.QuotaPerTenant = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes < 1 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxUploadBytes < 1 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxIters < 1 {
		c.MaxIters = 1_000_000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// retainedJobs bounds the terminal-job records kept for status queries.
const retainedJobs = 1024

// Scheduler owns the job queue: admission (quota, backlog), dispatch over
// the worker pool (with gang fan-out for cluster jobs), result caching and
// job bookkeeping. One dispatcher goroutine pulls jobs FIFO; each job then
// runs on its own goroutine holding one or more pool slots.
type Scheduler struct {
	cfg   Config
	pool  *Pool
	cache *Cache
	met   *Metrics

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	active map[string]int
	seq    int
}

// NewScheduler starts the worker pool and the dispatcher.
func NewScheduler(cfg Config, met *Metrics) (*Scheduler, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(cfg.Workers, cfg.Start)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg: cfg, pool: pool, cache: NewCache(cfg.CacheEntries), met: met,
		ctx: ctx, cancel: cancel,
		queue:  make(chan *Job, cfg.QueueDepth),
		jobs:   make(map[string]*Job),
		active: make(map[string]int),
	}
	met.SetWorkers(len(pool.slots))
	met.SetQueueProbe(func() int { return len(s.queue) })
	s.wg.Add(1)
	go s.dispatch()
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Close stops the dispatcher, kills the pool (failing in-flight jobs fast)
// and waits for every job goroutine to finish.
func (s *Scheduler) Close() {
	s.cancel()
	s.pool.Close()
	s.wg.Wait()
}

// Submit admits a job given only its canonical document, reading the
// layout off it first. The HTTP path, which already holds the parsed
// document, goes through submit directly.
func (s *Scheduler) Submit(tenant, elem string, canonical []byte, iters int) (*Job, error) {
	lay, err := parseLayout(canonical)
	if err != nil {
		return nil, err
	}
	return s.submit(tenant, elem, canonical, iters, lay)
}

// submit admits a job: cache hits return an already-done job immediately
// (bypassing the quota — they cost no worker time); otherwise the job is
// queued FIFO, bounded by the tenant quota and the global backlog.
func (s *Scheduler) submit(tenant, elem string, canonical []byte, iters int, lay Layout) (*Job, error) {
	key := Key(canonical, iters)
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("j%04d-%s", s.seq, key[:12])
	s.mu.Unlock()

	if res, ok := s.cache.Get(key); ok {
		j := newJob(id, tenant, key, elem, iters, nil, lay)
		s.register(j)
		s.met.CacheHit()
		j.SetRunning()
		j.Finish(res.Grid, res.Stats, true)
		return j, nil
	}

	s.mu.Lock()
	if s.active[tenant] >= s.cfg.QuotaPerTenant {
		n := s.active[tenant]
		s.mu.Unlock()
		s.met.QuotaRejected()
		return nil, fmt.Errorf("%w: tenant %q has %d job(s) queued or running (quota %d)",
			ErrQuota, tenant, n, s.cfg.QuotaPerTenant)
	}
	j := newJob(id, tenant, key, elem, iters, canonical, lay)
	s.active[tenant]++
	s.mu.Unlock()

	select {
	case <-s.ctx.Done():
		s.releaseTenant(tenant)
		return nil, ErrShutdown
	case s.queue <- j:
	default:
		s.releaseTenant(tenant)
		s.met.BacklogRejected()
		return nil, fmt.Errorf("%w (%d queued)", ErrBacklog, len(s.queue))
	}
	s.register(j)
	s.met.Submitted()
	return j, nil
}

// Job looks up a submitted job by id.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Scheduler) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > retainedJobs {
		old, ok := s.jobs[s.order[0]]
		if ok && old.State() != StateDone && old.State() != StateFailed {
			break // never evict a live job; the backlog bound keeps this finite
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

func (s *Scheduler) releaseTenant(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active[tenant]--; s.active[tenant] <= 0 {
		delete(s.active, tenant)
	}
}

// finish settles a terminal job's accounting.
func (s *Scheduler) finish(j *Job) {
	s.releaseTenant(j.Tenant)
	s.met.JobDone(j)
}

// dispatch is the single scheduling loop: pull the next job, decide its
// worker layout, acquire the slots (blocking until free — FIFO order is the
// fairness contract), and hand off to a runner goroutine.
func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		var j *Job
		select {
		case <-s.ctx.Done():
			s.drainQueue()
			return
		case j = <-s.queue:
		}
		n := s.gangSize(j)
		slots, err := s.pool.acquire(s.ctx, n)
		if err != nil {
			j.Fail("server shutting down", 503)
			s.finish(j)
			s.drainQueue()
			return
		}
		s.wg.Add(1)
		go s.run(j, slots)
	}
}

// drainQueue fails everything still queued at shutdown.
func (s *Scheduler) drainQueue() {
	for {
		select {
		case j := <-s.queue:
			j.Fail("server shutting down", 503)
			s.finish(j)
		default:
			return
		}
	}
}

// gangSize decides how many workers a job gets. A 2-D cluster whose rank
// count fits the pool is fanned out one rank per worker over TCP — the
// layout stencilrun -launch produces — unless fan-out is disabled.
// Everything else (local schemes, 3-D layer clusters, oversize rank
// counts) runs whole inside one worker on the channel transport; both
// layouts are bit-identical by the transport contract.
func (s *Scheduler) gangSize(j *Job) int {
	n := j.Layout.GangRanks
	if s.cfg.DisableFanOut || n < 2 || n > len(s.pool.slots) {
		return 1
	}
	return n
}

// maxStatsEvents bounds the stats events a job streams.
const maxStatsEvents = 256

// statsEvery picks the stats-stream cadence: every iteration up to
// maxStatsEvents, then thinned to at most maxStatsEvents events per run.
func statsEvery(iters int) int {
	if iters <= maxStatsEvents {
		return 1
	}
	return (iters + maxStatsEvents - 1) / maxStatsEvents
}

// run executes a job on its held slots through the gang runner and settles
// it. Rank 0 streams the stats events: for a gang, its view is progress
// plus its own tile's counters — indicative; the final stats are the
// merged gang totals.
func (s *Scheduler) run(j *Job, slots []*Slot) {
	defer s.wg.Done()
	j.SetRunning()
	g := Gang{
		Req:    JobRequest{ID: j.ID, Spec: j.spec(), Iters: j.Iters, StatsEvery: statsEvery(j.Iters)},
		Layout: j.Layout, Elem: j.Elem, Timeout: s.cfg.JobTimeout,
	}
	res, err := s.pool.runGang(slots, &g, func(rank int, ev WorkerEvent) {
		if rank == 0 && ev.Event == "stats" && ev.Stats != nil {
			j.PublishStats(ev.Iter, ev.Stats) // decoded afresh for each event
		}
	})
	switch e := err.(type) {
	case nil:
		s.cache.Put(j.Key, res)
		j.Finish(res.Grid, res.Stats, false)
	case *RankError:
		j.Fail(e.Error(), e.Status)
	default:
		j.Fail(err.Error(), 500)
	}
	for _, sl := range slots {
		s.pool.Release(sl, true)
	}
	s.finish(j)
}
