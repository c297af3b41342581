package serve

import (
	"bytes"
	"testing"

	"stencilabft/internal/telemetry"
)

// TestUnplacedJobHoldsNoSpanRing: a job keeps the phase accumulators its
// Stats.Timing is rolled up from, and a span ring only when its placement
// ships the rank's timeline back.
func TestUnplacedJobHoldsNoSpanRing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pl    *Placement
		spans int
	}{
		{"unplaced", nil, 0},
		{"placed, untraced", &Placement{Rank: 1}, 0},
		{"traced", &Placement{Rank: 1, Trace: true}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := jobTelemetry(tc.pl).Recorder(0)
			r.End(telemetry.PhaseSweep, r.Begin())
			if n := r.PhaseCount(telemetry.PhaseSweep); n != 1 {
				t.Fatalf("the sweep phase counted %d intervals, want 1", n)
			}
			if n := len(r.Spans(nil)); n != tc.spans {
				t.Fatalf("%d spans recorded, want %d", n, tc.spans)
			}
		})
	}

	// End to end: an untraced gang's stats still carry every rank's timing.
	if testing.Short() {
		return
	}
	res, _ := runGang2(t, false)
	if tm := res.Stats.Timing; tm.RanksTimed != 2 || tm.VerifyNs <= 0 {
		t.Fatalf("an untraced gang's timing is %v, want two timed ranks that verified", tm)
	}
}

// runGang2 runs a 2-rank cluster job over in-process workers, its ranks
// traced or not, and returns the result and each rank's shipped timeline.
func runGang2(t *testing.T, trace bool) (Result, [][]byte) {
	t.Helper()
	pool, err := NewPool(2, InprocWorkers())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	spec := []byte(`{"scheme":"online","deployment":"cluster","ranksX":2,"ranksY":1,` +
		`"stencil":{"name":"laplace5"},"grid":{"nx":24,"ny":16,"generator":"ramp"}}`)
	traces := make([][]byte, 2)
	res, err := pool.RunGang(Gang{
		Req:    JobRequest{ID: "gang", Spec: spec, Iters: 4},
		Layout: Layout{Nx: 24, Ny: 16, GangRanks: 2},
		Elem:   "float32",
		Place:  func(int) Placement { return Placement{Trace: trace} },
	}, func(rank int, ev WorkerEvent) {
		if ev.Event == "done" {
			traces[rank] = ev.Trace
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, traces
}

// TestTracedGangMergesRankLanes: with the span ring reserved for traced
// placements, a traced gang still returns each rank's timeline, and the
// timelines merge into one lane per rank.
func TestTracedGangMergesRankLanes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 2-rank cluster over loopback sockets")
	}
	_, traces := runGang2(t, true)
	var err error
	parts := make([]telemetry.TraceFile, len(traces))
	for k, tr := range traces {
		if parts[k], err = telemetry.ParseTrace(bytes.NewReader(tr)); err != nil {
			t.Fatalf("rank %d trace: %v", k, err)
		}
		if len(parts[k].TraceEvents) == 0 {
			t.Fatalf("rank %d shipped an empty timeline", k)
		}
	}
	if lanes := telemetry.MergeTraces(parts).RankLanes(); len(lanes) != 2 {
		t.Fatalf("merged trace carries rank lanes %v, want 2", lanes)
	}
}
