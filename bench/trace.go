package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Parent is the
// index of the span that caused it (-1 for a root); spans of one repetition
// or one job share a Trace id.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int
	Trace      int
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced run: begin and end return without reading the clock, so the
// same workload code serves both runs.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace allocates the id shared by the spans of one repetition or job.
func (t *tracer) newTrace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its index for end and for child spans.
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Trace: trace, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Within one trace the self times of a root and all
// its descendants sum to the root's duration when siblings do not overlap.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// durationsOf collects the durations (ns) of every span with the given name
// under a parent with the given name.
func durationsOf(spans []span, name, parentName string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Parent >= 0 && spans[s.Parent].Name == parentName {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeChrome renders the spans as Chrome trace-event JSON (chrome://tracing
// or ui.perfetto.dev): one lane per trace id, one complete event per span.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Trace, Args: map[string]int{"span": i, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
