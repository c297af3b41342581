package main

import "fmt"

// metricDef names one reported number. BENCHMARK.json at the repository
// root mirrors these tables; TestManifestMatchesTables keeps them equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them from the untraced run:
//
//	run_s    one operation of the workload's protected variant: iters sweeps
//	         + Finalize() of the long-lived runner, or one job POST → SSE
//	         terminal event → result body read
//	base_s   the same operation on the workload's baseline variant
//	ratio    run over base, paired sweep by sweep or batch by batch (the
//	         paper's numbers are ratios; README.md says what the pair is on
//	         each workload)
//	setup_s  Build (or serve.New + listener) until ready
//	mem_mb   live heap the built runner (or the warmed server) holds
//
// The three times are seconds at the pacer's reference pace (pacer.go), not
// stopwatch seconds; README.md says why.
var endToEnd = []metricDef{
	{"run_s", "s", "lower", 0.25},
	{"base_s", "s", "lower", 0.25},
	{"ratio", "ratio", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"mem_mb", "MB", "lower", 0.03},
}

// perLayer is measured in the traced run only and carries no bound. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = []metricDef{
	// internal/stencil: probes on the workload's own grids, one thread.
	{"stencil.sweep_ns_per_cell", "ns", "lower", 0},
	{"stencil.generic_ns_per_cell", "ns", "lower", 0},
	{"stencil.copy_gbps", "GB/s", "higher", 0},
	{"stencil.bound_frac", "ratio", "higher", 0},
	{"stencil.bytes_per_cell", "B", "lower", 0},
	{"stencil.flops_per_cell", "count", "lower", 0},
	{"stencil.pool2_speedup", "ratio", "higher", 0},
	// internal/checksum: probes of the per-step verify pieces.
	{"checksum.interp_ns_per_step", "ns", "lower", 0},
	{"checksum.direct_ns_per_cell", "ns", "lower", 0},
	{"checksum.detect_ns_per_step", "ns", "lower", 0},
	{"checksum.edge_capture_ns_per_step", "ns", "lower", 0},
	{"checksum.pair_correct_ns_per_fault", "ns", "lower", 0},
	// internal/core: one span per Step() of the local runners.
	{"core.step_none_ns", "ns", "lower", 0},
	{"core.step_online_ns", "ns", "lower", 0},
	{"core.step_offline_ns", "ns", "lower", 0},
	{"core.verify_share", "ratio", "lower", 0},
	{"core.abft_ratio", "ratio", "lower", 0},
	{"core.offline_ratio", "ratio", "lower", 0},
	{"core.fault_ratio", "ratio", "lower", 0},
	{"core.rollback_ratio", "ratio", "lower", 0},
	{"core.detections", "count", "lower", 0},
	{"core.corrected_points", "count", "lower", 0},
	{"core.rollbacks", "count", "lower", 0},
	{"core.recomputed_iters", "count", "lower", 0},
	{"core.false_positives", "count", "lower", 0},
	{"core.build_ns", "ns", "lower", 0},
	{"core.allocs_per_step", "count", "lower", 0},
	{"hotspot.model_ns", "ns", "lower", 0},
	// internal/dist: spans around the cluster calls, its own telemetry
	// shares, its counters, and bare-transport probes.
	{"dist.step_ns", "ns", "lower", 0},
	{"dist.gather_ns", "ns", "lower", 0},
	{"dist.build_ns", "ns", "lower", 0},
	{"dist.allocs_per_step", "count", "lower", 0},
	{"dist.speedup", "ratio", "higher", 0},
	{"dist.telemetry_ratio", "ratio", "lower", 0},
	{"dist.interior_sweep_share", "ratio", "higher", 0},
	{"dist.boundary_wait_share", "ratio", "lower", 0},
	{"dist.boundary_sweep_share", "ratio", "lower", 0},
	{"dist.verify_share", "ratio", "lower", 0},
	{"dist.barrier_share", "ratio", "lower", 0},
	{"dist.pack_unpack_share", "ratio", "lower", 0},
	{"dist.straggler_max_over_mean", "ratio", "lower", 0},
	{"dist.halo_msgs_per_step", "count", "lower", 0},
	{"dist.halo_bytes_per_step", "B", "lower", 0},
	{"dist.tcp_reconnects", "count", "lower", 0},
	{"dist.tcp_resends", "count", "lower", 0},
	{"dist.tcp_crc_errors", "count", "lower", 0},
	{"dist.wire_roundtrip_ns", "ns", "lower", 0},
	{"dist.wire_mbps", "MB/s", "higher", 0},
	{"dist.wire_allocs_per_frame", "count", "lower", 0},
	{"dist.sendrecv_ns", "ns", "lower", 0},
	{"dist.barrier_ns", "ns", "lower", 0},
	// internal/resilience and internal/telemetry, priced on cluster_chan.
	{"resilience.ckpt_ratio", "ratio", "lower", 0},
	{"resilience.ckpt_saves", "count", "lower", 0},
	{"resilience.ckpt_bytes_per_save", "B", "lower", 0},
	{"resilience.ckpt_ns_per_save", "ns", "lower", 0},
	{"telemetry.begin_end_ns", "ns", "lower", 0},
	{"telemetry.spans_per_step", "count", "lower", 0},
	{"telemetry.dropped", "count", "lower", 0},
	// internal/serve: spans around the three HTTP calls of a job, and the
	// same job through fewer layers.
	{"serve.job_p50_ms", "ms", "lower", 0},
	{"serve.job_p95_ms", "ms", "lower", 0},
	{"serve.jobs_per_s", "1/s", "higher", 0},
	{"serve.post_ms", "ms", "lower", 0},
	{"serve.wait_ms", "ms", "lower", 0},
	{"serve.result_ms", "ms", "lower", 0},
	{"serve.result_bytes", "B", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.sched_job_ms", "ms", "lower", 0},
	{"serve.worker_job_ms", "ms", "lower", 0},
	{"serve.compute_ms", "ms", "lower", 0},
	{"serve.overhead_ratio", "ratio", "lower", 0},
	{"serve.parse_canon_us", "us", "lower", 0},
	{"serve.cache_hit_ms", "ms", "lower", 0},
	// the benchmark's own recorder
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
	{"bench.step_cover_frac", "ratio", "higher", 0},
}

// result is what one run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // first few reasons
	Metrics   map[string]sample `json:"metrics"`

	spans []span // the traced run's spans, for -trace-out
}

func newResult(name string, cfg *config) *result {
	return &result{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]sample{}}
}

// op records the outcome of one operation; a failed or refused operation
// counts as missing. Only the first few reasons are kept.
func (r *result) op(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure that is not an operation of its own (a gate on a
// whole run, such as a counter that must be zero).
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric; a name missing from the tables is a bug in the
// benchmark, not a measurement.
func (r *result) set(name string, s sample) {
	if !knownMetric[name] {
		panic("bench: metric " + name + " is not in the tables of metrics.go")
	}
	r.Metrics[name] = s
}

var knownMetric = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.Name] = true
	}
	for _, d := range perLayer {
		m[d.Name] = true
	}
	return m
}()

// finish fills in units and zeroes for every metric the run's mode must
// report, so the last line always carries the full set.
func (r *result) finish() {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := make(map[string]sample, len(defs))
	for _, d := range defs {
		s := r.Metrics[d.Name]
		s.Unit = d.Unit
		out[d.Name] = s
	}
	r.Metrics = out
}
