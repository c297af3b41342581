// Package stats defines the one Stats model every protector reports
// through. The local and the dist deployments historically each carried
// their own counter struct; unifying them lets per-rank and per-block
// counters roll up into a single aggregate with Merge instead of living in
// parallel types that cannot be compared or summed. Counters a deployment
// never touches simply stay zero (e.g. a local online run has no
// HaloExchanges; an unprotected baseline only counts Iterations).
package stats

import (
	"fmt"
	"strings"

	"stencilabft/internal/checkpoint"
)

// Stats aggregates what a protector observed over a run. It is the single
// counter model shared by every scheme (none/online/offline/blocked) and
// deployment (local/cluster); Merge rolls per-rank or per-block instances
// into a whole-run aggregate.
type Stats struct {
	Iterations      int // completed sweeps
	Verifications   int // checksum comparisons performed
	Detections      int // verification events that flagged at least one mismatch
	CorrectedPoints int // domain points repaired in place (online schemes)
	ChecksumRepairs int // detections attributed to checksum (not domain) corruption
	Rollbacks       int // checkpoint restores (offline scheme, fail-stop recovery)
	RecomputedIters int // sweeps re-executed after rollback (offline scheme, fail-stop recovery)
	Recoveries      int // completed fail-stop recovery cycles (dead rank absorbed, lockstep resumed)
	ConeRecoveries  int // detections repaired by light-cone recomputation
	ConePointsSwept int // point updates spent inside cone recomputation
	FlaggedBlocks   int // block-level verification failures (blocked scheme)
	HaloExchanges   int // iterations that exchanged or refreshed halo strips (cluster)
	// HaloByDir counts halo messages actually sent per direction, indexed
	// by dist.Dir (up, down, left, right) — a 1-D band cluster only ever
	// populates up/down, a 2-D rank grid all four, making the extra
	// communication of finer topologies directly observable. Synthesised
	// boundary ghosts (no neighbour) are not counted: they cost no
	// communication.
	HaloByDir [4]int
	// Topology names the decomposition shape of a clustered run (e.g.
	// "grid 4x1", "grid 2x3", "layers 4"); empty for local deployments.
	// Merging two different topologies yields "mixed(a; b)".
	Topology   string
	Checkpoint checkpoint.Stats
	// Timing is the phase-time breakdown recorded by the telemetry layer;
	// zero (RanksTimed == 0) when telemetry is disabled.
	Timing Timing
	// Transport is the communication-backend counter roll-up; zero for
	// local deployments or transports without metrics.
	Transport Transport
}

// Repaired books the outcome of one online repair: the domain points
// corrected in place, or — when the domain needed none — a repair of the
// checksum the corruption sat in.
func (s *Stats) Repaired(points int) {
	s.CorrectedPoints += points
	if points == 0 {
		s.ChecksumRepairs++
	}
}

// Timing is the wall-clock phase breakdown of a telemetry-enabled run:
// nanoseconds accumulated per phase, summed across ranks, plus the
// extremes of barrier-wait needed for the imbalance report. The phase
// taxonomy (and the recording) lives in internal/telemetry; stats only
// carries the numbers so they ride Stats through MergeAll — including
// across process boundaries on the worker protocol's "done" event.
type Timing struct {
	PackNs     int64 // packing halo strips into send buffers
	SendNs     int64 // posting strips to the transport
	RecvWaitNs int64 // blocked waiting on neighbour strips
	UnpackNs   int64 // copying received strips into halo regions
	SweepNs    int64 // stencil sweeps over owned tiles
	VerifyNs   int64 // checksum bookkeeping, interpolation, comparison
	RepairNs   int64 // fault localisation and correction
	BarrierNs  int64 // waiting at the iteration barrier

	// Fail-stop resilience phases; all zero unless buddy checkpointing or
	// a recovery ran.
	CkptSaveNs    int64 // packing buddy-checkpoint snapshots
	CkptSendNs    int64 // posting snapshots to the buddy rank
	RecoverWaitNs int64 // stalled between fault detection and the recovery plan
	RestoreNs     int64 // rebuilding transport and restoring checkpointed state

	// Overlap-schedule phases; all zero on deployments that run the
	// sequential exchange-then-sweep schedule.
	InteriorSweepNs int64 // halo-independent interior swept while halos are in flight
	BoundaryWaitNs  int64 // blocked waiting for the next boundary strip's halo
	BoundarySweepNs int64 // sweeping boundary strips after their halos landed

	// RanksTimed counts the ranks that contributed a breakdown; 0 means
	// telemetry was off and the struct is meaningless.
	RanksTimed int
	// MaxBarrierNs / MaxBarrierOn: the largest single-rank barrier wait
	// and the rank that waited it. MinBarrierNs / StragglerRank: the
	// smallest. The rank that waits *least* at the barrier is the one the
	// others wait for — the straggler.
	MaxBarrierNs  int64
	MaxBarrierOn  int
	MinBarrierNs  int64
	StragglerRank int
}

// Merge rolls two breakdowns together: phase times sum, the barrier
// extremes keep the winning rank id. Either side may be zero (untimed).
func (t Timing) Merge(o Timing) Timing {
	if o.RanksTimed == 0 {
		return t
	}
	if t.RanksTimed == 0 {
		return o
	}
	t.PackNs += o.PackNs
	t.SendNs += o.SendNs
	t.RecvWaitNs += o.RecvWaitNs
	t.UnpackNs += o.UnpackNs
	t.SweepNs += o.SweepNs
	t.VerifyNs += o.VerifyNs
	t.RepairNs += o.RepairNs
	t.BarrierNs += o.BarrierNs
	t.CkptSaveNs += o.CkptSaveNs
	t.CkptSendNs += o.CkptSendNs
	t.RecoverWaitNs += o.RecoverWaitNs
	t.RestoreNs += o.RestoreNs
	t.InteriorSweepNs += o.InteriorSweepNs
	t.BoundaryWaitNs += o.BoundaryWaitNs
	t.BoundarySweepNs += o.BoundarySweepNs
	t.RanksTimed += o.RanksTimed
	if o.MaxBarrierNs > t.MaxBarrierNs {
		t.MaxBarrierNs, t.MaxBarrierOn = o.MaxBarrierNs, o.MaxBarrierOn
	}
	if o.MinBarrierNs < t.MinBarrierNs {
		t.MinBarrierNs, t.StragglerRank = o.MinBarrierNs, o.StragglerRank
	}
	return t
}

// Straggler derives the imbalance report: the rank the cluster waits for
// and how skewed the barrier waits are (max over mean). ok is false when
// fewer than two ranks were timed — a single rank cannot be imbalanced.
func (t Timing) Straggler() (rank int, maxOverMean float64, ok bool) {
	if t.RanksTimed < 2 {
		return 0, 0, false
	}
	mean := float64(t.BarrierNs) / float64(t.RanksTimed)
	if mean <= 0 {
		return t.StragglerRank, 0, true
	}
	return t.StragglerRank, float64(t.MaxBarrierNs) / mean, true
}

// Transport is the communication-backend counter roll-up: halo frames and
// payload bytes over all edges, plus the TCP backend's health counters.
type Transport struct {
	FramesSent   int64 // halo frames sent to neighbours
	FramesRecv   int64 // halo frames received from neighbours
	BytesSent    int64 // halo payload bytes sent (headers excluded)
	BytesRecv    int64 // halo payload bytes received
	DialRetries  int64 // bootstrap connection retries (TCP)
	PoisonEvents int64 // edges torn down by I/O errors (TCP; Close excluded)
	Reconnects   int64 // edge connections rebuilt after transient faults (TCP)
	Resends      int64 // data frames replayed from resend windows (TCP)
	CrcErrors    int64 // frames rejected by the wire checksum (TCP)
	DupFrames    int64 // replay duplicates dropped by sequence dedup (TCP)
}

// Merge sums the counters.
func (t Transport) Merge(o Transport) Transport {
	t.FramesSent += o.FramesSent
	t.FramesRecv += o.FramesRecv
	t.BytesSent += o.BytesSent
	t.BytesRecv += o.BytesRecv
	t.DialRetries += o.DialRetries
	t.PoisonEvents += o.PoisonEvents
	t.Reconnects += o.Reconnects
	t.Resends += o.Resends
	t.CrcErrors += o.CrcErrors
	t.DupFrames += o.DupFrames
	return t
}

// Merge returns the element-wise sum of s and o — the roll-up used to
// aggregate per-rank (cluster) or per-repetition (campaign) counters.
func (s Stats) Merge(o Stats) Stats {
	s.Iterations += o.Iterations
	s.Verifications += o.Verifications
	s.Detections += o.Detections
	s.CorrectedPoints += o.CorrectedPoints
	s.ChecksumRepairs += o.ChecksumRepairs
	s.Rollbacks += o.Rollbacks
	s.RecomputedIters += o.RecomputedIters
	s.Recoveries += o.Recoveries
	s.ConeRecoveries += o.ConeRecoveries
	s.ConePointsSwept += o.ConePointsSwept
	s.FlaggedBlocks += o.FlaggedBlocks
	s.HaloExchanges += o.HaloExchanges
	for d := range s.HaloByDir {
		s.HaloByDir[d] += o.HaloByDir[d]
	}
	s.Topology = mergeTopology(s.Topology, o.Topology)
	s.Timing = s.Timing.Merge(o.Timing)
	s.Transport = s.Transport.Merge(o.Transport)
	s.Checkpoint.Saves += o.Checkpoint.Saves
	s.Checkpoint.Restores += o.Checkpoint.Restores
	s.Checkpoint.PointsCopied += o.Checkpoint.PointsCopied
	return s
}

// mergeTopology combines two topology names. Equal or one-sided-empty
// merges keep the name; genuinely different topologies become
// "mixed(a; b)" — the historical first-wins rule silently mislabelled
// multi-topology campaign aggregates as whichever ran first. Merging a
// mixed name flattens: components are deduplicated, never nested.
func mergeTopology(a, b string) string {
	if a == b || b == "" {
		return a
	}
	if a == "" {
		return b
	}
	parts := topologyParts(a)
	for _, p := range topologyParts(b) {
		seen := false
		for _, q := range parts {
			if p == q {
				seen = true
				break
			}
		}
		if !seen {
			parts = append(parts, p)
		}
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return "mixed(" + strings.Join(parts, "; ") + ")"
}

func topologyParts(s string) []string {
	if inner, ok := strings.CutPrefix(s, "mixed("); ok && strings.HasSuffix(inner, ")") {
		return strings.Split(strings.TrimSuffix(inner, ")"), "; ")
	}
	return []string{s}
}

// MergeAll rolls a set of per-rank (or per-repetition) counters into one
// aggregate — what a multi-process launcher does with the Stats each rank
// process reported. An empty slice yields the zero Stats.
func MergeAll(all []Stats) Stats {
	var total Stats
	for _, s := range all {
		total = total.Merge(s)
	}
	return total
}

// String renders the counters compactly for logs. The scheme-agnostic
// counters are always printed; deployment-specific ones (flagged blocks,
// halo exchanges) appear only when non-zero, keeping local-run logs short.
func (s Stats) String() string {
	out := fmt.Sprintf("iters=%d verifications=%d detections=%d corrected=%d checksum-repairs=%d rollbacks=%d recomputed=%d cone-recoveries=%d cone-points=%d",
		s.Iterations, s.Verifications, s.Detections, s.CorrectedPoints, s.ChecksumRepairs,
		s.Rollbacks, s.RecomputedIters, s.ConeRecoveries, s.ConePointsSwept)
	if s.FlaggedBlocks > 0 {
		out += fmt.Sprintf(" flagged-blocks=%d", s.FlaggedBlocks)
	}
	if s.Recoveries > 0 {
		out += fmt.Sprintf(" recoveries=%d", s.Recoveries)
	}
	if s.Topology != "" {
		out += fmt.Sprintf(" topology=%q", s.Topology)
	}
	if s.HaloExchanges > 0 {
		out += fmt.Sprintf(" halo-exchanges=%d", s.HaloExchanges)
	}
	if s.HaloByDir != [4]int{} {
		out += fmt.Sprintf(" halo-dir[up/down/left/right]=%d/%d/%d/%d",
			s.HaloByDir[0], s.HaloByDir[1], s.HaloByDir[2], s.HaloByDir[3])
	}
	if s.Timing.RanksTimed > 0 {
		out += "\n" + s.Timing.String()
	}
	if s.Transport != (Transport{}) {
		out += "\n" + s.Transport.String()
	}
	return out
}

// String renders the phase breakdown as milliseconds plus the imbalance
// report, e.g.:
//
//	timing[ms] sweep=12.3 verify=4.5 ... barrier-wait=2.1 (ranks=4)
//	imbalance: straggler=rank 2 max/mean barrier-wait=3.10
func (t Timing) String() string {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	out := fmt.Sprintf("timing[ms] sweep=%.2f verify=%.2f repair=%.2f pack=%.2f send=%.2f recv-wait=%.2f unpack=%.2f barrier-wait=%.2f (ranks=%d)",
		ms(t.SweepNs), ms(t.VerifyNs), ms(t.RepairNs), ms(t.PackNs), ms(t.SendNs),
		ms(t.RecvWaitNs), ms(t.UnpackNs), ms(t.BarrierNs), t.RanksTimed)
	if t.CkptSaveNs|t.CkptSendNs|t.RecoverWaitNs|t.RestoreNs != 0 {
		out += fmt.Sprintf("\nresilience[ms] ckpt-save=%.2f ckpt-send=%.2f recover-wait=%.2f restore=%.2f",
			ms(t.CkptSaveNs), ms(t.CkptSendNs), ms(t.RecoverWaitNs), ms(t.RestoreNs))
	}
	if t.InteriorSweepNs|t.BoundaryWaitNs|t.BoundarySweepNs != 0 {
		out += fmt.Sprintf("\noverlap[ms] interior-sweep=%.2f boundary-wait=%.2f boundary-sweep=%.2f",
			ms(t.InteriorSweepNs), ms(t.BoundaryWaitNs), ms(t.BoundarySweepNs))
	}
	if rank, ratio, ok := t.Straggler(); ok {
		out += fmt.Sprintf("\nimbalance: straggler=rank %d max/mean barrier-wait=%.2f (max rank %d waited %.2fms, straggler waited %.2fms)",
			rank, ratio, t.MaxBarrierOn, ms(t.MaxBarrierNs), ms(t.MinBarrierNs))
	}
	return out
}

// String renders the transport counters compactly for logs.
func (t Transport) String() string {
	out := fmt.Sprintf("transport frames[sent/recv]=%d/%d bytes[sent/recv]=%d/%d",
		t.FramesSent, t.FramesRecv, t.BytesSent, t.BytesRecv)
	if t.DialRetries > 0 {
		out += fmt.Sprintf(" dial-retries=%d", t.DialRetries)
	}
	if t.PoisonEvents > 0 {
		out += fmt.Sprintf(" poison-events=%d", t.PoisonEvents)
	}
	if t.Reconnects > 0 || t.Resends > 0 {
		out += fmt.Sprintf(" reconnects=%d resends=%d", t.Reconnects, t.Resends)
	}
	if t.CrcErrors > 0 {
		out += fmt.Sprintf(" crc-errors=%d", t.CrcErrors)
	}
	if t.DupFrames > 0 {
		out += fmt.Sprintf(" dup-frames=%d", t.DupFrames)
	}
	return out
}
