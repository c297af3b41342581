package telemetry

import (
	"fmt"
	"io"
	"strconv"
)

// Prometheus text exposition. Hand-rolled rather than pulling in a client
// library: the format is lines of `name{labels} value`, and the repo's
// no-new-dependencies rule makes the lines here cheaper than a module.
// The phase accumulators are atomic, so a live scrape during a run reads
// consistent (if slightly torn across phases) counters.

// PromWriter renders a scrape page — `# HELP`/`# TYPE` headers and
// `name{labels} value` samples — and keeps the first write error, so a
// caller emits a whole page and checks once. Every /metrics endpoint of the
// repo (stencilrun's and stencilserve's) writes through it.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter starts a page on w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Family opens a metric family of type typ (counter, gauge); an empty help
// omits the HELP line.
func (p *PromWriter) Family(name, help, typ string) {
	if help != "" {
		p.printf("# HELP %s %s\n", name, help)
	}
	p.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample: value is an integer or a float64, labels are
// alternating label names and values.
func (p *PromWriter) Sample(name string, value any, labels ...string) {
	line := []byte(name)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		line = append(append(append(line, sep), labels[i]...), '=')
		line = strconv.AppendQuote(line, labels[i+1])
	}
	if len(labels) > 0 {
		line = append(line, '}')
	}
	p.printf("%s %v\n", line, value)
}

// Err returns the first error any write hit.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// WritePrometheus renders every recorder's phase accumulators as
// Prometheus counters:
//
//	stencilabft_phase_seconds_total{rank="0",phase="sweep"} 1.234
//	stencilabft_phase_intervals_total{rank="0",phase="sweep"} 400
//	stencilabft_spans_dropped_total{rank="0"} 0
//
// A nil collector writes nothing.
func (c *Collector) WritePrometheus(w io.Writer) error {
	if c == nil {
		return nil
	}
	recs := c.Recorders()
	p := NewPromWriter(w)
	p.Family("stencilabft_phase_seconds_total", "Wall-clock accumulated per rank per phase.", "counter")
	for _, r := range recs {
		for ph := Phase(0); ph < NumPhases; ph++ {
			p.Sample("stencilabft_phase_seconds_total", float64(r.PhaseNs(ph))/1e9, "rank", strconv.Itoa(r.rank), "phase", ph.String())
		}
	}
	p.Family("stencilabft_phase_intervals_total", "Timed intervals per rank per phase.", "counter")
	for _, r := range recs {
		for ph := Phase(0); ph < NumPhases; ph++ {
			p.Sample("stencilabft_phase_intervals_total", r.PhaseCount(ph), "rank", strconv.Itoa(r.rank), "phase", ph.String())
		}
	}
	p.Family("stencilabft_spans_dropped_total", "Spans evicted by the fixed-capacity ring.", "counter")
	for _, r := range recs {
		p.Sample("stencilabft_spans_dropped_total", r.Dropped(), "rank", strconv.Itoa(r.rank))
	}
	return p.Err()
}

// WritePrometheus renders the transport snapshot as per-edge counters:
//
//	stencilabft_transport_frames_total{from="0",to="1",dir="right",op="sent"} 40
//	stencilabft_transport_bytes_total{from="0",to="1",dir="right",op="sent"} 163840
//	stencilabft_transport_dial_retries_total 2
//	stencilabft_transport_poison_events_total 0
func (m TransportMetrics) WritePrometheus(w io.Writer) error {
	p := NewPromWriter(w)
	edge := func(name string, e EdgeStat, sent, recv int64) {
		from, to := strconv.Itoa(e.From), strconv.Itoa(e.To)
		p.Sample(name, sent, "from", from, "to", to, "dir", e.Dir, "op", "sent")
		p.Sample(name, recv, "from", from, "to", to, "dir", e.Dir, "op", "recv")
	}
	p.Family("stencilabft_transport_frames_total", "Halo frames per directed edge.", "counter")
	for _, e := range m.Edges {
		edge("stencilabft_transport_frames_total", e, e.FramesSent, e.FramesRecv)
	}
	p.Family("stencilabft_transport_bytes_total", "Halo payload bytes per directed edge.", "counter")
	for _, e := range m.Edges {
		edge("stencilabft_transport_bytes_total", e, e.BytesSent, e.BytesRecv)
	}
	p.Family("stencilabft_transport_dial_retries_total", "", "counter")
	p.Sample("stencilabft_transport_dial_retries_total", m.DialRetries)
	p.Family("stencilabft_transport_poison_events_total", "", "counter")
	p.Sample("stencilabft_transport_poison_events_total", m.Poisoned)
	return p.Err()
}
