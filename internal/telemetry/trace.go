package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Chrome trace-event export. The format is the JSON object form of the
// trace-event spec — {"traceEvents": [...]} — readable by chrome://tracing
// and Perfetto. Each rank renders as one process lane (pid = rank id,
// named by a process_name metadata event), each phase interval as one
// complete duration event (ph "X"). Timestamps are microseconds of
// wall-clock since the Unix epoch, computed as collector base + span
// offset: absolute, so traces written by separate rank processes land on
// one shared timeline and can be merged by concatenation. MergeTraces
// re-bases the merged timeline to start near zero for readability.

// TraceEvent is one entry of a Chrome trace-event file. Only the fields
// this package emits are modelled; unknown fields in parsed files are
// dropped, which is fine for validation and merging.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the object form of a trace-event file.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// Events renders the collector's recorded spans as trace events: one
// process_name metadata event plus one duration event per span, per rank,
// in rank order. Call after the run (Spans requires quiescence). Nil
// collectors yield nil.
func (c *Collector) Events() []TraceEvent {
	if c == nil {
		return nil
	}
	baseUs := float64(c.base.UnixNano()) / 1e3
	var evs []TraceEvent
	var buf []Span
	for _, r := range c.Recorders() {
		evs = append(evs, TraceEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  r.rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r.rank)},
		})
		buf = r.Spans(buf[:0])
		for _, s := range buf {
			evs = append(evs, TraceEvent{
				Name: s.Phase.String(),
				Ph:   "X",
				Ts:   baseUs + float64(s.Start)/1e3,
				Dur:  float64(s.Dur) / 1e3,
				Pid:  r.rank,
				Tid:  0,
				Args: map[string]any{"iter": int(s.Iter)},
			})
		}
	}
	return evs
}

// WriteTrace writes the collector's timeline as a Chrome trace-event JSON
// object. A nil collector writes an empty (but valid) trace.
func (c *Collector) WriteTrace(w io.Writer) error {
	return writeTraceFile(w, TraceFile{
		TraceEvents:     c.Events(),
		DisplayTimeUnit: "ms",
	})
}

func writeTraceFile(w io.Writer, tf TraceFile) error {
	if tf.TraceEvents == nil {
		tf.TraceEvents = []TraceEvent{} // "traceEvents": [] rather than null
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// ParseTrace reads a trace-event JSON object — the validation half used by
// tests, the merge path and the tracecheck tool.
func ParseTrace(r io.Reader) (TraceFile, error) {
	var tf TraceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return TraceFile{}, fmt.Errorf("telemetry: parse trace: %w", err)
	}
	return tf, nil
}

// RankLanes returns the distinct pids that carry at least one duration
// event, sorted — the "does the merged trace really show every rank" check.
func (tf TraceFile) RankLanes() []int {
	seen := map[int]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			seen[e.Pid] = true
		}
	}
	lanes := make([]int, 0, len(seen))
	for pid := range seen {
		lanes = append(lanes, pid)
	}
	sort.Ints(lanes)
	return lanes
}

// PhaseNames returns the distinct names of the duration events, sorted.
func (tf TraceFile) PhaseNames() []string {
	seen := map[string]bool{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			seen[e.Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MergeTraces concatenates per-process trace files onto one timeline and
// re-bases it so the earliest duration event starts at ts 0. Rank lanes
// stay distinct because each process emitted events under its own global
// rank pid. This is what the -launch parent does with the timelines its
// rank workers attach to their "done" events.
func MergeTraces(parts []TraceFile) TraceFile {
	var out TraceFile
	out.DisplayTimeUnit = "ms"
	minTs := 0.0
	found := false
	for _, p := range parts {
		for _, e := range p.TraceEvents {
			if e.Ph == "X" && (!found || e.Ts < minTs) {
				minTs = e.Ts
				found = true
			}
		}
	}
	for _, p := range parts {
		for _, e := range p.TraceEvents {
			if e.Ph == "X" {
				e.Ts -= minTs
			}
			out.TraceEvents = append(out.TraceEvents, e)
		}
	}
	if out.TraceEvents == nil {
		out.TraceEvents = []TraceEvent{}
	}
	return out
}

// rebase shifts the collector's epoch — used by tests to pin trace output
// to a known instant instead of time.Now().
func (c *Collector) rebase(base time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.base = base
	for _, r := range c.recs {
		r.base = base
	}
}
