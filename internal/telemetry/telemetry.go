// Package telemetry is the observability layer of the ABFT stencil system:
// per-rank phase timers, a fixed-capacity span recorder that exports Chrome
// trace-event timelines, and the transport-metrics model the communication
// backends report through.
//
// The paper's claims are cost-model claims (online overhead under 8%, halo
// communication as the distributed bottleneck), so the instrumentation has
// to be cheap enough to leave on during the measurements it exists to
// explain. Two properties deliver that:
//
//   - A disabled recorder is a nil pointer. Every hot-path entry point
//     (Begin, End, SetIter) is nil-safe and returns immediately, so a rank
//     built without telemetry pays two pointer tests per phase and
//     allocates nothing — asserted by tests.
//   - An enabled recorder appends into storage preallocated at
//     construction: phase accumulators are fixed arrays of atomics (safe
//     to read live from a /metrics endpoint while the rank goroutine
//     writes), spans land in a fixed-capacity ring that evicts the oldest
//     span when full. No allocation ever happens on the timing path.
//
// One Recorder belongs to one rank (or one local protector) and is written
// only by that rank's goroutine; the Collector hands out recorders by rank
// id and merges them into timelines and counter breakdowns after — or,
// for the atomic counters, during — a run.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"stencilabft/internal/stats"
)

// Phase names one accounted slice of a rank's iteration — the taxonomy the
// timers, spans, traces and Prometheus pages all share. The order is the
// order of one distributed iteration: exchange (pack, send, recv-wait,
// unpack), sweep, verify, repair, barrier-wait.
type Phase uint8

// The phase taxonomy.
const (
	// PhasePack is packing boundary strips into send buffers (the
	// column-strip copies of the 2-D halo exchange).
	PhasePack Phase = iota
	// PhaseSend is posting halo strips to the transport. With the TCP
	// backend this is encoding, the CRC and the write into the socket
	// buffer, all on the rank's goroutine; it grows past that only when the
	// peer's reader has fallen a socket buffer behind, or while a broken
	// connection is being rebuilt.
	PhaseSend
	// PhaseRecvWait is blocking until a neighbour's halo strip arrives —
	// the direct reading of the paper's communication bottleneck.
	PhaseRecvWait
	// PhaseUnpack is copying received strips into the halo regions,
	// including ghost synthesis at domain edges.
	PhaseUnpack
	// PhaseSweep is the fused stencil sweep over the owned tile.
	PhaseSweep
	// PhaseVerify is checksum bookkeeping, interpolation and comparison —
	// the per-iteration price of the online ABFT scheme.
	PhaseVerify
	// PhaseRepair is the detection slow path: localisation and correction.
	PhaseRepair
	// PhaseBarrierWait is waiting at the iteration barrier. A rank that
	// waits long is early; the rank everyone else waits for — the
	// straggler — shows the minimum barrier-wait time.
	PhaseBarrierWait
	// PhaseCkptSave is packing a rank's tile and verified checksums into a
	// buddy-checkpoint snapshot (the fail-stop resilience layer's periodic
	// memory copy).
	PhaseCkptSave
	// PhaseCkptSend is posting the snapshot to the buddy rank's edge and
	// banking the wards' snapshots. Like PhaseSend it includes the socket
	// write on the TCP backend, and a snapshot outgrows the socket buffer,
	// so the write paces itself to the buddy's reader.
	PhaseCkptSend
	// PhaseRecoverWait is the fail-stop recovery stall: from detecting a
	// dead neighbour until the coordinator's recovery plan arrives.
	PhaseRecoverWait
	// PhaseRestore is executing the recovery plan: rebuilding the
	// transport, restoring checkpointed state and rolling the iteration
	// counter back.
	PhaseRestore

	// PhaseInteriorSweep is the overlap schedule's interior sweep: the
	// halo-independent region swept while halo strips are still in
	// flight. Time here is computation successfully hidden behind
	// communication.
	PhaseInteriorSweep
	// PhaseBoundaryWait is blocking until the next boundary strip's halo
	// lands under the overlap schedule — the residual, un-hidden part of
	// PhaseRecvWait. A rank whose interior sweep outlasts its halo
	// round-trips shows ~zero here.
	PhaseBoundaryWait
	// PhaseBoundarySweep is sweeping a boundary strip after its halo
	// landed (including the checksum post-pass that re-fuses split rows).
	PhaseBoundarySweep

	// NumPhases sizes per-phase tables.
	NumPhases = 15
)

var phaseNames = [NumPhases]string{
	"pack", "send", "recv-wait", "unpack", "sweep", "verify", "repair", "barrier-wait",
	"ckpt-save", "ckpt-send", "recover-wait", "restore",
	"interior-sweep", "boundary-wait", "boundary-sweep",
}

// String returns the phase's display name (also the span name in traces and
// the phase label on the Prometheus page).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// Span is one recorded phase interval: start and duration in nanoseconds
// relative to the owning Collector's base time, plus the iteration it
// belongs to. 24 bytes, so the default ring costs ~100 KiB per rank.
type Span struct {
	Start int64 // ns since the collector's base time
	Dur   int64 // ns
	Iter  int32
	Phase Phase
}

// DefaultSpanCap is the span-ring capacity a Collector uses when none is
// given: with ~18 spans per distributed iteration it retains the most
// recent ~220 iterations per rank.
const DefaultSpanCap = 4096

// Recorder accumulates one rank's phase times and spans. The zero value is
// not used directly — obtain recorders from a Collector — and a nil
// *Recorder is the disabled instrument: every method is nil-safe and free.
type Recorder struct {
	rank int
	base time.Time

	ns    [NumPhases]atomic.Int64 // total time per phase
	count [NumPhases]atomic.Int64 // intervals per phase

	iter    int32  // current iteration, stamped onto spans (rank goroutine only)
	spans   []Span // fixed-capacity ring, rank goroutine writes
	head    int    // next write slot
	n       int    // spans held
	dropped int64  // spans evicted by the ring
}

// Begin starts timing a phase interval. On a nil (disabled) recorder it
// returns the zero time without touching the clock.
func (r *Recorder) Begin() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes the interval opened by Begin, charging it to phase p: the
// duration is added to the phase accumulator and the interval lands in the
// span ring (evicting the oldest span when full). No-op on a nil recorder.
func (r *Recorder) End(p Phase, start time.Time) {
	if r == nil {
		return
	}
	now := time.Now()
	d := now.Sub(start)
	r.ns[p].Add(int64(d))
	r.count[p].Add(1)
	if len(r.spans) == 0 {
		return
	}
	if r.n == len(r.spans) {
		r.dropped++
	} else {
		r.n++
	}
	r.spans[r.head] = Span{
		Start: int64(now.Sub(r.base)) - int64(d),
		Dur:   int64(d),
		Iter:  r.iter,
		Phase: p,
	}
	r.head++
	if r.head == len(r.spans) {
		r.head = 0
	}
}

// SetIter stamps the iteration number onto subsequently recorded spans.
// Call it from the rank's own goroutine (like End). No-op when nil.
func (r *Recorder) SetIter(iter int) {
	if r == nil {
		return
	}
	r.iter = int32(iter)
}

// Rank returns the rank id this recorder belongs to.
func (r *Recorder) Rank() int {
	if r == nil {
		return -1
	}
	return r.rank
}

// PhaseNs returns the accumulated nanoseconds of phase p. Safe to call
// concurrently with the recording goroutine (the accumulators are atomic);
// returns 0 on a nil recorder.
func (r *Recorder) PhaseNs(p Phase) int64 {
	if r == nil {
		return 0
	}
	return r.ns[p].Load()
}

// PhaseCount returns how many intervals were charged to phase p.
func (r *Recorder) PhaseCount(p Phase) int64 {
	if r == nil {
		return 0
	}
	return r.count[p].Load()
}

// Dropped returns how many spans the ring evicted to make room.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Spans appends the retained spans to dst in recording order (oldest
// first) and returns it. Call only when the recording goroutine is
// quiescent (after Run); the phase accumulators, by contrast, may be read
// live.
func (r *Recorder) Spans(dst []Span) []Span {
	if r == nil || r.n == 0 {
		return dst
	}
	first := r.head - r.n
	if first < 0 {
		first += len(r.spans)
	}
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.spans[(first+i)%len(r.spans)])
	}
	return dst
}

// Timing folds the recorder's accumulators into the stats breakdown for
// this one rank: phase totals, RanksTimed 1, and the rank's own
// barrier-wait charged as both the max and min entry so that merging
// per-rank Timings yields the cluster-wide imbalance report. Zero on nil.
func (r *Recorder) Timing() stats.Timing {
	if r == nil {
		return stats.Timing{}
	}
	bar := r.ns[PhaseBarrierWait].Load()
	return stats.Timing{
		PackNs:        r.ns[PhasePack].Load(),
		SendNs:        r.ns[PhaseSend].Load(),
		RecvWaitNs:    r.ns[PhaseRecvWait].Load(),
		UnpackNs:      r.ns[PhaseUnpack].Load(),
		SweepNs:       r.ns[PhaseSweep].Load(),
		VerifyNs:      r.ns[PhaseVerify].Load(),
		RepairNs:      r.ns[PhaseRepair].Load(),
		BarrierNs:     bar,
		CkptSaveNs:    r.ns[PhaseCkptSave].Load(),
		CkptSendNs:    r.ns[PhaseCkptSend].Load(),
		RecoverWaitNs: r.ns[PhaseRecoverWait].Load(),
		RestoreNs:     r.ns[PhaseRestore].Load(),

		InteriorSweepNs: r.ns[PhaseInteriorSweep].Load(),
		BoundaryWaitNs:  r.ns[PhaseBoundaryWait].Load(),
		BoundarySweepNs: r.ns[PhaseBoundarySweep].Load(),

		RanksTimed:    1,
		MaxBarrierNs:  bar,
		MaxBarrierOn:  r.rank,
		MinBarrierNs:  bar,
		StragglerRank: r.rank,
	}
}

// Collector owns the per-rank recorders of one process and renders them —
// as a Chrome trace, a Prometheus page, or a stats.Timing roll-up. A nil
// *Collector is the disabled layer: Recorder returns nil and the render
// methods emit nothing.
type Collector struct {
	mu      sync.Mutex
	spanCap int
	base    time.Time
	recs    map[int]*Recorder
	order   []int // rank ids in first-seen order
}

// New creates a Collector whose recorders hold spanCap spans each. A
// spanCap of 0 picks DefaultSpanCap; a negative spanCap disables span
// recording entirely, keeping only the phase accumulators.
func New(spanCap int) *Collector {
	switch {
	case spanCap == 0:
		spanCap = DefaultSpanCap
	case spanCap < 0:
		spanCap = 0
	}
	return &Collector{
		spanCap: spanCap,
		base:    time.Now(),
		recs:    make(map[int]*Recorder),
	}
}

// Base returns the collector's epoch: the wall-clock instant span offsets
// are relative to. Trace timestamps are Base + Span.Start, which is what
// lets traces from separate processes merge onto one timeline.
func (c *Collector) Base() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.base
}

// Recorder returns the recorder for rank, creating it on first use. On a
// nil collector it returns nil — the disabled instrument — so call sites
// thread c.Recorder(id) unconditionally.
func (c *Collector) Recorder(rank int) *Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.recs[rank]; ok {
		return r
	}
	r := &Recorder{rank: rank, base: c.base}
	if c.spanCap > 0 {
		r.spans = make([]Span, c.spanCap)
	}
	c.recs[rank] = r
	c.order = append(c.order, rank)
	return r
}

// Recorders returns the collector's recorders in first-seen rank order.
func (c *Collector) Recorders() []*Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Recorder, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.recs[id])
	}
	return out
}

// Timing merges every recorder's breakdown — the process-local roll-up a
// protector reports through stats.Stats.
func (c *Collector) Timing() stats.Timing {
	var t stats.Timing
	for _, r := range c.Recorders() {
		t = t.Merge(r.Timing())
	}
	return t
}
