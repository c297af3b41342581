package telemetry

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestPrometheusGolden holds both scrape pages to the bytes they had before
// they were routed through PromWriter: dashboards and the CI grep gates
// parse this text.
func TestPrometheusGolden(t *testing.T) {
	c := New(0)
	for rank, ns := range []int64{1_500_000_000, 250_000, 0} {
		r := c.Recorder(rank)
		r.ns[PhaseSweep].Store(ns)
		r.count[PhaseSweep].Store(int64(3 * rank))
		r.ns[PhaseBarrierWait].Store(ns / 7)
		r.count[PhaseBarrierWait].Store(40)
		r.dropped = int64(rank)
	}
	m := TransportMetrics{
		Edges: []EdgeStat{
			{From: 0, To: 1, Dir: "right", FramesSent: 40, BytesSent: 163840, FramesRecv: 39, BytesRecv: 159744},
			{From: 1, To: 0, Dir: "left", FramesSent: 39, BytesSent: 159744, FramesRecv: 40, BytesRecv: 163840},
		},
		DialRetries: 2, Poisoned: 1,
	}
	var page bytes.Buffer
	if err := c.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page.Bytes(), want) {
		t.Fatalf("scrape page changed:\n got:\n%s\nwant:\n%s", page.Bytes(), want)
	}
}

// TestCollectorWritePrometheus pins the phase-counter exposition lines and
// their label shape against hand-set accumulator values.
func TestCollectorWritePrometheus(t *testing.T) {
	c := New(0)
	r := c.Recorder(2)
	r.ns[PhaseSweep].Store(1_500_000_000) // 1.5 s
	r.count[PhaseSweep].Store(3)
	r.dropped = 7

	var buf bytes.Buffer
	if err := c.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE stencilabft_phase_seconds_total counter",
		`stencilabft_phase_seconds_total{rank="2",phase="sweep"} 1.5`,
		`stencilabft_phase_intervals_total{rank="2",phase="sweep"} 3`,
		`stencilabft_phase_intervals_total{rank="2",phase="repair"} 0`,
		`stencilabft_spans_dropped_total{rank="2"} 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}

	var nilC *Collector
	buf.Reset()
	if err := nilC.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil collector wrote %q, %v", buf.String(), err)
	}
}

// TestTransportWritePrometheus pins the per-edge exposition: sent/recv
// lines per edge and the transport-global counters.
func TestTransportWritePrometheus(t *testing.T) {
	m := TransportMetrics{
		Edges: []EdgeStat{
			{From: 0, To: 1, Dir: "right", FramesSent: 40, BytesSent: 163840, FramesRecv: 40, BytesRecv: 163840},
			{From: 1, To: 0, Dir: "left", FramesSent: 40, BytesSent: 163840, FramesRecv: 40, BytesRecv: 163840},
		},
		DialRetries: 2,
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`stencilabft_transport_frames_total{from="0",to="1",dir="right",op="sent"} 40`,
		`stencilabft_transport_frames_total{from="0",to="1",dir="right",op="recv"} 40`,
		`stencilabft_transport_bytes_total{from="1",to="0",dir="left",op="sent"} 163840`,
		"stencilabft_transport_dial_retries_total 2",
		"stencilabft_transport_poison_events_total 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}
