package telemetry

import (
	"reflect"
	"testing"

	"stencilabft/internal/stats"
)

// fourEdges is a 1x2 exchange observed from both sides, deliberately
// unsorted, with asymmetric counters so aggregation mistakes show.
func fourEdges() TransportMetrics {
	return TransportMetrics{
		Edges: []EdgeStat{
			{From: 1, To: 0, Dir: "left", FramesSent: 10, BytesSent: 100, FramesRecv: 20, BytesRecv: 200},
			{From: 0, To: 1, Dir: "right", FramesSent: 20, BytesSent: 200, FramesRecv: 10, BytesRecv: 100},
		},
		DialRetries: 3,
		Poisoned:    1,
	}
}

// TestSortEdges pins the deterministic snapshot order: (From, To, Dir).
func TestSortEdges(t *testing.T) {
	m := fourEdges()
	m.SortEdges()
	if m.Edges[0].From != 0 || m.Edges[1].From != 1 {
		t.Fatalf("edges not sorted by From: %+v", m.Edges)
	}
}

// TestTotalsAndPerRankIdentity pins the attribution invariant the cluster
// stats roll-up relies on: every edge has exactly one observing rank, so
// summing PerRank over all ranks reproduces Totals' edge counters.
func TestTotalsAndPerRankIdentity(t *testing.T) {
	m := fourEdges()
	total := m.Totals()
	want := stats.Transport{
		FramesSent: 30, BytesSent: 300, FramesRecv: 30, BytesRecv: 300,
		DialRetries: 3, PoisonEvents: 1,
	}
	if total != want {
		t.Fatalf("Totals = %+v, want %+v", total, want)
	}

	var merged stats.Transport
	for rank := 0; rank < 2; rank++ {
		pr := m.PerRank(rank)
		if pr.DialRetries != 0 || pr.PoisonEvents != 0 {
			t.Fatalf("PerRank(%d) claims transport-global counters: %+v", rank, pr)
		}
		merged = merged.Merge(pr)
	}
	// The transport-global counters are parked on one rank entry by the
	// cluster, not by PerRank — add them the same way before comparing.
	merged.DialRetries += m.DialRetries
	merged.PoisonEvents += m.Poisoned
	if merged != want {
		t.Fatalf("sum of PerRank = %+v, want Totals %+v", merged, want)
	}

	if pr := m.PerRank(9); !reflect.DeepEqual(pr, stats.Transport{}) {
		t.Fatalf("PerRank of an absent rank = %+v, want zero", pr)
	}
}
