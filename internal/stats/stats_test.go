package stats

import (
	"encoding/json"
	"strings"
	"testing"

	"stencilabft/internal/checkpoint"
)

func TestMergeSumsEveryCounter(t *testing.T) {
	a := Stats{
		Iterations: 1, Verifications: 2, Detections: 3, CorrectedPoints: 4,
		ChecksumRepairs: 5, Rollbacks: 6, RecomputedIters: 7, ConeRecoveries: 8,
		ConePointsSwept: 9, FlaggedBlocks: 10, HaloExchanges: 11,
		Checkpoint: checkpoint.Stats{Saves: 1, Restores: 2, PointsCopied: 3},
	}
	b := Stats{
		Iterations: 10, Verifications: 20, Detections: 30, CorrectedPoints: 40,
		ChecksumRepairs: 50, Rollbacks: 60, RecomputedIters: 70, ConeRecoveries: 80,
		ConePointsSwept: 90, FlaggedBlocks: 100, HaloExchanges: 110,
		Checkpoint: checkpoint.Stats{Saves: 10, Restores: 20, PointsCopied: 30},
	}
	want := Stats{
		Iterations: 11, Verifications: 22, Detections: 33, CorrectedPoints: 44,
		ChecksumRepairs: 55, Rollbacks: 66, RecomputedIters: 77, ConeRecoveries: 88,
		ConePointsSwept: 99, FlaggedBlocks: 110, HaloExchanges: 121,
		Checkpoint: checkpoint.Stats{Saves: 11, Restores: 22, PointsCopied: 33},
	}
	if got := a.Merge(b); got != want {
		t.Fatalf("Merge: %+v", got)
	}
}

// TestStringShowsRecoveryCounters pins the satellite fix: campaign logs must
// show cone-recovery and checksum-repair activity, not silently drop it.
func TestStringShowsRecoveryCounters(t *testing.T) {
	s := Stats{ConeRecoveries: 2, ConePointsSwept: 640, ChecksumRepairs: 1}.String()
	for _, want := range []string{"cone-recoveries=2", "cone-points=640", "checksum-repairs=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	if strings.Contains(s, "flagged-blocks") || strings.Contains(s, "halo-exchanges") {
		t.Fatalf("zero deployment counters should be elided: %q", s)
	}
	withHalo := Stats{HaloExchanges: 7, FlaggedBlocks: 3}.String()
	for _, want := range []string{"halo-exchanges=7", "flagged-blocks=3"} {
		if !strings.Contains(withHalo, want) {
			t.Fatalf("String() = %q, missing %q", withHalo, want)
		}
	}
}

// TestMergeAll pins the multi-process roll-up: per-rank counters from N
// rank processes sum element-wise (with JSON round-tripping, since that is
// how a -launch parent receives them).
func TestMergeAll(t *testing.T) {
	if got := (MergeAll(nil)); got != (Stats{}) {
		t.Fatalf("MergeAll(nil) = %+v", got)
	}
	parts := []Stats{
		{Iterations: 10, Detections: 1, HaloExchanges: 10, HaloByDir: [4]int{0, 10, 0, 0}, Topology: "grid 2x1"},
		{Iterations: 10, CorrectedPoints: 1, HaloExchanges: 10, HaloByDir: [4]int{10, 0, 0, 0}, Topology: "grid 2x1"},
	}
	var wire []Stats
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var back Stats
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		wire = append(wire, back)
	}
	got := MergeAll(wire)
	want := Stats{
		Iterations: 20, Detections: 1, CorrectedPoints: 1, HaloExchanges: 20,
		HaloByDir: [4]int{10, 10, 0, 0}, Topology: "grid 2x1",
	}
	if got != want {
		t.Fatalf("MergeAll = %+v, want %+v", got, want)
	}
}

// TestMergeTopology pins the satellite fix: merging different topologies
// must label the aggregate "mixed(...)" instead of silently keeping
// whichever ran first, and repeated merges flatten rather than nest.
func TestMergeTopology(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"grid 4x1", "", "grid 4x1"},
		{"", "layers 4", "layers 4"},
		{"grid 4x1", "grid 4x1", "grid 4x1"},
		{"grid 4x1", "layers 4", "mixed(grid 4x1; layers 4)"},
		{"mixed(grid 4x1; layers 4)", "grid 4x1", "mixed(grid 4x1; layers 4)"},
		{"mixed(grid 4x1; layers 4)", "grid 2x2", "mixed(grid 4x1; layers 4; grid 2x2)"},
		{"mixed(grid 4x1; layers 4)", "mixed(layers 4; grid 4x1)", "mixed(grid 4x1; layers 4)"},
		{"grid 4x1", "mixed(grid 4x1; layers 4)", "mixed(grid 4x1; layers 4)"},
	}
	for _, tc := range cases {
		if got := mergeTopology(tc.a, tc.b); got != tc.want {
			t.Errorf("mergeTopology(%q, %q) = %q, want %q", tc.a, tc.b, got, tc.want)
		}
	}
	// And through the Stats-level merge, where the bug lived:
	agg := Stats{Topology: "grid 4x1"}.Merge(Stats{Topology: "layers 4"})
	if agg.Topology != "mixed(grid 4x1; layers 4)" {
		t.Fatalf("Stats.Merge topology = %q", agg.Topology)
	}
	if !strings.Contains(agg.String(), `topology="mixed(grid 4x1; layers 4)"`) {
		t.Fatalf("String() hides the mixed topology: %q", agg.String())
	}
}

// TestTimingMerge pins the phase roll-up: sums, untimed-side guards, and
// the barrier extremes keeping their rank ids.
func TestTimingMerge(t *testing.T) {
	timed := Timing{SweepNs: 100, BarrierNs: 10, RanksTimed: 1,
		MaxBarrierNs: 10, MaxBarrierOn: 0, MinBarrierNs: 10, StragglerRank: 0}

	if got := (Timing{}).Merge(timed); got != timed {
		t.Fatalf("zero.Merge(timed) = %+v", got)
	}
	if got := timed.Merge(Timing{}); got != timed {
		t.Fatalf("timed.Merge(zero) = %+v", got)
	}

	other := Timing{SweepNs: 50, BarrierNs: 30, RanksTimed: 1,
		MaxBarrierNs: 30, MaxBarrierOn: 3, MinBarrierNs: 30, StragglerRank: 3}
	got := timed.Merge(other)
	want := Timing{SweepNs: 150, BarrierNs: 40, RanksTimed: 2,
		MaxBarrierNs: 30, MaxBarrierOn: 3, MinBarrierNs: 10, StragglerRank: 0}
	if got != want {
		t.Fatalf("Merge = %+v, want %+v", got, want)
	}
}

// TestStragglerReport pins the imbalance semantics: the straggler is the
// rank with the LEAST barrier wait (everyone else waits for it), the ratio
// is max over mean, and a single timed rank yields no report.
func TestStragglerReport(t *testing.T) {
	if _, _, ok := (Timing{RanksTimed: 1, BarrierNs: 5}).Straggler(); ok {
		t.Fatal("one rank cannot be imbalanced")
	}
	tm := Timing{BarrierNs: 40, RanksTimed: 2,
		MaxBarrierNs: 30, MaxBarrierOn: 1, MinBarrierNs: 10, StragglerRank: 0}
	rank, ratio, ok := tm.Straggler()
	if !ok || rank != 0 || ratio != 1.5 {
		t.Fatalf("Straggler = %d, %v, %v; want 0, 1.5, true", rank, ratio, ok)
	}
	if s := tm.String(); !strings.Contains(s, "straggler=rank 0") {
		t.Fatalf("Timing.String lacks the imbalance line: %q", s)
	}
	// All-zero waits: report the straggler with ratio 0 instead of dividing
	// by zero.
	rank, ratio, ok = (Timing{RanksTimed: 2, StragglerRank: 1}).Straggler()
	if !ok || rank != 1 || ratio != 0 {
		t.Fatalf("zero-wait Straggler = %d, %v, %v", rank, ratio, ok)
	}
}

// TestTransportMerge pins the counter roll-up: sums everywhere.
func TestTransportMerge(t *testing.T) {
	a := Transport{FramesSent: 1, FramesRecv: 2, BytesSent: 3, BytesRecv: 4,
		DialRetries: 6, PoisonEvents: 7}
	b := Transport{FramesSent: 10, FramesRecv: 20, BytesSent: 30, BytesRecv: 40,
		DialRetries: 60, PoisonEvents: 70}
	want := Transport{FramesSent: 11, FramesRecv: 22, BytesSent: 33, BytesRecv: 44,
		DialRetries: 66, PoisonEvents: 77}
	if got := a.Merge(b); got != want {
		t.Fatalf("Merge = %+v, want %+v", got, want)
	}
	if got := b.Merge(a); got != want {
		t.Fatalf("Merge not symmetric: %+v", got)
	}
	if s := want.String(); !strings.Contains(s, "frames[sent/recv]=11/22") || !strings.Contains(s, "dial-retries=66") {
		t.Fatalf("Transport.String = %q", s)
	}
}

// TestTimingRidesStatsJSON pins that the phase breakdown and transport
// counters survive the JSON hop of a rank worker's "done" event, which a
// -launch parent and the scheduler's gang merge rely on.
func TestTimingRidesStatsJSON(t *testing.T) {
	in := Stats{
		Iterations: 5,
		Timing:     Timing{SweepNs: 123, RanksTimed: 1, MinBarrierNs: 7, StragglerRank: 2},
		Transport:  Transport{FramesSent: 9, BytesSent: 900},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var back Stats
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != in {
		t.Fatalf("JSON roundtrip dropped fields: %+v", back)
	}
}
