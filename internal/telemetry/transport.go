package telemetry

import (
	"sort"

	"stencilabft/internal/stats"
)

// Transport-metrics model. Both communication backends (in-process
// channels and TCP) count the same things so runs are comparable across
// transports: halo frames and payload bytes per directed edge, in each
// direction. The TCP backend additionally reports dial retries during
// bootstrap and poison events (edges torn down by an I/O error — excluding
// the deliberate poisons of Close).

// EdgeStat is the traffic of one directed halo edge as observed by rank
// From: FramesSent/BytesSent count what From sent toward To in direction
// Dir, FramesRecv/BytesRecv what From received from To over the paired
// reverse edge — both halves of one neighbour conversation, keyed by the
// outbound direction.
type EdgeStat struct {
	From, To   int
	Dir        string // direction From sends toward: up/down/left/right
	FramesSent int64
	BytesSent  int64 // payload element bytes (headers excluded)
	FramesRecv int64
	BytesRecv  int64
}

// TransportMetrics is one transport's full counter snapshot.
type TransportMetrics struct {
	Edges       []EdgeStat // sorted by (From, To, Dir) for determinism
	DialRetries int64      // bootstrap redials (TCP only)
	Poisoned    int64      // edges killed by I/O errors (TCP only; Close excluded)

	// Self-healing counters (TCP only): connections rebuilt after an I/O
	// fault, data frames replayed from resend windows after reconnects,
	// frames rejected by the wire CRC, and replay duplicates dropped by the
	// per-edge sequence dedup. Non-zero Reconnects with zero recoveries is
	// the healing path working: the wire flaked and nobody upstairs noticed.
	Reconnects int64
	Resends    int64
	CrcErrors  int64
	DupFrames  int64
}

// SortEdges orders Edges by (From, To, Dir) so snapshots are deterministic
// regardless of map iteration order in the transport.
func (m *TransportMetrics) SortEdges() {
	sort.Slice(m.Edges, func(i, j int) bool {
		a, b := m.Edges[i], m.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Dir < b.Dir
	})
}

// Totals folds the per-edge counters into the flat stats.Transport
// breakdown that rides on stats.Stats through MergeAll.
func (m TransportMetrics) Totals() stats.Transport {
	var t stats.Transport
	for _, e := range m.Edges {
		t.FramesSent += e.FramesSent
		t.BytesSent += e.BytesSent
		t.FramesRecv += e.FramesRecv
		t.BytesRecv += e.BytesRecv
	}
	t.DialRetries = m.DialRetries
	t.PoisonEvents = m.Poisoned
	t.Reconnects = m.Reconnects
	t.Resends = m.Resends
	t.CrcErrors = m.CrcErrors
	t.DupFrames = m.DupFrames
	return t
}

// PerRank folds the counters rank observed — the edges it is the From of —
// into a flat stats.Transport. Every edge has exactly one observer, so
// merging PerRank over all ranks reproduces Totals' edge counters; the
// transport-global DialRetries/Poisoned are not attributable to one rank
// and stay zero here (the cluster attaches them to a single rank entry so
// the roll-up still matches).
func (m TransportMetrics) PerRank(rank int) stats.Transport {
	var t stats.Transport
	for _, e := range m.Edges {
		if e.From != rank {
			continue
		}
		t.FramesSent += e.FramesSent
		t.BytesSent += e.BytesSent
		t.FramesRecv += e.FramesRecv
		t.BytesRecv += e.BytesRecv
	}
	return t
}
