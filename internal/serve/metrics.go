package serve

import (
	"io"
	"sync"

	"stencilabft/internal/stats"
	"stencilabft/internal/telemetry"
)

// phaseRing bounds the per-job phase-time samples the /metrics endpoint
// exposes: the most recent finished jobs, oldest evicted first.
const phaseRing = 32

type phaseSample struct {
	id     string
	tenant string
	timing stats.Timing
	wall   float64
}

// Metrics is the service's counter set, exported in Prometheus text format
// by WritePrometheus through the same telemetry.PromWriter as stencilrun's
// /metrics endpoint.
type Metrics struct {
	mu        sync.Mutex
	jobsTotal map[string]int64 // outcome: "done" | "failed" | "cached"
	submitted int64
	cacheHits int64
	quota     int64
	backlog   int64
	phases    []phaseSample

	workers    int
	queueDepth func() int
}

// NewMetrics builds an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{jobsTotal: make(map[string]int64)}
}

// SetWorkers records the pool size gauge.
func (m *Metrics) SetWorkers(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workers = n
}

// SetQueueProbe installs the live queue-depth gauge source.
func (m *Metrics) SetQueueProbe(f func() int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth = f
}

// Submitted counts a job accepted into the queue.
func (m *Metrics) Submitted() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
}

// CacheHit counts a submission answered from cache.
func (m *Metrics) CacheHit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cacheHits++
	m.jobsTotal["cached"]++
}

// QuotaRejected counts a 429 from the per-tenant concurrency quota.
func (m *Metrics) QuotaRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.quota++
}

// BacklogRejected counts a 429 from the global queue bound.
func (m *Metrics) BacklogRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.backlog++
}

// JobDone records a terminal job: the outcome counter plus its phase-time
// breakdown for the per-job timing series.
func (m *Metrics) JobDone(j *Job) {
	timing, wall := j.terminalTiming()
	outcome := "done"
	if j.State() == StateFailed {
		outcome = "failed"
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsTotal[outcome]++
	m.phases = append(m.phases, phaseSample{id: j.ID, tenant: j.Tenant, timing: timing, wall: wall})
	if len(m.phases) > phaseRing {
		m.phases = m.phases[len(m.phases)-phaseRing:]
	}
}

// WritePrometheus renders the counters in Prometheus text exposition
// format.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := telemetry.NewPromWriter(w)
	p.Family("stencilserve_jobs_total", "Terminal jobs by outcome.", "counter")
	for _, outcome := range []string{"done", "failed", "cached"} {
		p.Sample("stencilserve_jobs_total", m.jobsTotal[outcome], "outcome", outcome)
	}
	depth := 0
	if m.queueDepth != nil {
		depth = m.queueDepth()
	}
	for _, c := range []struct {
		name, typ string
		v         int64
	}{
		{"stencilserve_submitted_total", "counter", m.submitted},
		{"stencilserve_cache_hits_total", "counter", m.cacheHits},
		{"stencilserve_quota_rejections_total", "counter", m.quota},
		{"stencilserve_backlog_rejections_total", "counter", m.backlog},
		{"stencilserve_workers", "gauge", int64(m.workers)},
		{"stencilserve_queue_depth", "gauge", int64(depth)},
	} {
		p.Family(c.name, "", c.typ)
		p.Sample(c.name, c.v)
	}

	p.Family("stencilserve_job_seconds", "Wall-clock seconds of recent jobs.", "gauge")
	for _, ps := range m.phases {
		p.Sample("stencilserve_job_seconds", ps.wall, "job", ps.id, "tenant", ps.tenant)
	}
	p.Family("stencilserve_job_phase_seconds", "Telemetry phase breakdown of recent jobs.", "gauge")
	for _, ps := range m.phases {
		if ps.timing.RanksTimed == 0 {
			continue
		}
		for _, ph := range []struct {
			name string
			ns   int64
		}{
			{"sweep", ps.timing.SweepNs},
			{"verify", ps.timing.VerifyNs},
			{"repair", ps.timing.RepairNs},
			{"pack", ps.timing.PackNs},
			{"send", ps.timing.SendNs},
			{"recv_wait", ps.timing.RecvWaitNs},
			{"unpack", ps.timing.UnpackNs},
			{"barrier", ps.timing.BarrierNs},
		} {
			p.Sample("stencilserve_job_phase_seconds", float64(ph.ns)/1e9, "job", ps.id, "phase", ph.name)
		}
	}
}
