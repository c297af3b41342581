package serve

import (
	"strconv"
	"sync"
	"time"

	abft "stencilabft"
	"stencilabft/internal/stats"
)

// JobState is a job's lifecycle position. Queued and running are transient;
// done and failed are terminal.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Event is one entry of a job's event stream — what the SSE endpoint
// replays and relays. "state" marks lifecycle transitions, "stats" carries a
// mid-run counter snapshot, "done"/"error" terminate the stream.
type Event struct {
	Type   string       `json:"type"` // "state" | "stats" | "done" | "error"
	State  JobState     `json:"state,omitempty"`
	Iter   int          `json:"iter,omitempty"`
	Stats  *stats.Stats `json:"stats,omitempty"`
	Error  string       `json:"error,omitempty"`
	Status int          `json:"status,omitempty"`
	Cached bool         `json:"cached,omitempty"`
}

// AppendJSON appends ev as json.Marshal encodes it, byte for byte — the
// SSE data of every event — writing its Stats through Stats.AppendJSON. A
// field added to Event must be added here too (TestSSEEventAppendJSON fails
// until it is).
func (e Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"type":`...)
	b = stats.AppendJSONString(b, e.Type)
	if e.State != "" {
		b = append(b, `,"state":`...)
		b = stats.AppendJSONString(b, string(e.State))
	}
	if e.Iter != 0 {
		b = strconv.AppendInt(append(b, `,"iter":`...), int64(e.Iter), 10)
	}
	if e.Stats != nil {
		b = e.Stats.AppendJSON(append(b, `,"stats":`...))
	}
	if e.Error != "" {
		b = append(b, `,"error":`...)
		b = stats.AppendJSONString(b, e.Error)
	}
	if e.Status != 0 {
		b = strconv.AppendInt(append(b, `,"status":`...), int64(e.Status), 10)
	}
	if e.Cached {
		b = append(b, `,"cached":true`...)
	}
	return append(b, '}')
}

// Terminal reports whether the event closes the stream.
func (e Event) Terminal() bool { return e.Type == "done" || e.Type == "error" }

// History bounds: at most maxStatsHistory "stats" events are replayed to a
// late subscriber (lifecycle events are always kept), so a million-iteration
// job cannot grow the job record without bound.
const maxStatsHistory = 512

// Layout is what dispatch needs from a job's document, read off the parsed
// spec once at submission so the dispatcher never opens the document: the
// domain shape (which bounds the result the workers may send back) and the
// rank count of a 2-D cluster the scheduler may gang over TCP workers.
type Layout struct {
	Nx, Ny, Nz int
	GangRanks  int // 0 unless the spec is a 2-D cluster deployment
}

// layoutOf records w's layout. A spec without a grid has none; it fails
// validation before it can be scheduled.
func layoutOf(w *abft.WireSpec) Layout {
	if w.Grid == nil {
		return Layout{}
	}
	l := Layout{Nx: w.Grid.Nx, Ny: w.Grid.Ny, Nz: w.Grid.Nz}
	if w.Deployment == string(abft.Clustered) && l.Nz == 0 {
		if l.GangRanks = w.RanksX * w.RanksY; l.GangRanks == 0 {
			l.GangRanks = w.Ranks
		}
	}
	return l
}

// parseWireSpec is abft.ParseWireSpec behind a seam, so a test can count how
// often the host opens a document (once per HTTP submission, never on the
// dispatcher).
var parseWireSpec = abft.ParseWireSpec

// parseLayout reads the layout off a canonical document — for callers of
// Scheduler.Submit, who hold only bytes.
func parseLayout(canonical []byte) (Layout, error) {
	w, err := parseWireSpec(canonical)
	if err != nil {
		return Layout{}, err
	}
	return layoutOf(w), nil
}

// Job is one submitted simulation: identity, layout, canonical document
// (until terminal), event history, subscribers, and — once terminal — the
// outcome.
type Job struct {
	ID      string
	Tenant  string
	Key     string // cache key: content hash of (canonical spec, iters)
	Elem    string
	Iters   int
	Layout  Layout
	Created time.Time

	mu         sync.Mutex
	wire       []byte // canonical wire-form spec; dropped at the terminal transition
	state      JobState
	cached     bool
	errMsg     string
	status     int
	result     *GridPayload
	stats      stats.Stats
	haveResult bool
	history    []Event
	nStats     int
	subs       map[chan Event]struct{}
	started    time.Time
	finished   time.Time
	done       chan struct{}
}

func newJob(id, tenant, key, elem string, iters int, wire []byte, lay Layout) *Job {
	j := &Job{
		ID: id, Tenant: tenant, Key: key, Elem: elem, Iters: iters, Layout: lay,
		Created: time.Now(),
		wire:    wire,
		state:   StateQueued,
		subs:    make(map[chan Event]struct{}),
		done:    make(chan struct{}),
	}
	j.history = append(j.history, Event{Type: "state", State: StateQueued})
	return j
}

// spec returns the canonical document for dispatch; nil once terminal —
// only dispatch reads it, so a retained record does not pin its input.
func (j *Job) spec() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.wire
}

// publish appends to the history and fans out to subscribers; j.mu held.
// A subscriber whose channel is full drops the event (its SSE stream
// self-heals on the terminal event, which the handler derives from Done()).
func (j *Job) publish(ev Event) {
	if ev.Type == "stats" {
		j.nStats++
		if j.nStats > maxStatsHistory {
			j.compactStats()
		}
	}
	j.history = append(j.history, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// compactStats drops the oldest half of the stats events, keeping every
// lifecycle event; j.mu held.
func (j *Job) compactStats() {
	keep := j.history[:0]
	drop := j.nStats / 2
	for _, ev := range j.history {
		if ev.Type == "stats" && drop > 0 {
			drop--
			j.nStats--
			continue
		}
		keep = append(keep, ev)
	}
	j.history = keep
}

// SetRunning transitions queued → running.
func (j *Job) SetRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.publish(Event{Type: "state", State: StateRunning})
}

// PublishStats streams one mid-run counter snapshot. The job keeps st, so
// the caller hands over a snapshot it no longer writes.
func (j *Job) PublishStats(iter int, st *stats.Stats) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.publish(Event{Type: "stats", Iter: iter, Stats: st})
}

// Finish records a successful outcome. Idempotent once terminal.
func (j *Job) Finish(res *GridPayload, st stats.Stats, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.state = StateDone
	j.wire = nil
	j.cached = cached
	j.result = res
	j.stats = st
	j.haveResult = true
	j.finished = time.Now()
	j.publish(Event{Type: "done", State: StateDone, Iter: j.Iters, Stats: &st, Cached: cached})
	close(j.done)
}

// Fail records a failure with the HTTP status the error maps to.
// Idempotent once terminal — a gang's first rank failure wins.
func (j *Job) Fail(msg string, status int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.state = StateFailed
	j.wire = nil
	j.errMsg = msg
	j.status = status
	j.finished = time.Now()
	j.publish(Event{Type: "error", State: StateFailed, Error: msg, Status: status})
	close(j.done)
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Subscribe atomically snapshots the history (the replay) and registers a
// live channel, so no event falls between replay and stream. cancel
// unregisters. The channel has room for every event a scheduled job can
// still publish (its stats events, running and the terminal event), so a
// consumer slower than the worker misses none; past that it is lossy.
func (j *Job) Subscribe() (replay []Event, ch chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]Event(nil), j.history...)
	ch = make(chan Event, min(j.Iters, maxStatsEvents)+2)
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// JobStatus is the GET /v1/jobs/{id} view of a job.
type JobStatus struct {
	ID      string   `json:"id"`
	Tenant  string   `json:"tenant"`
	State   JobState `json:"state"`
	Cached  bool     `json:"cached,omitempty"`
	Elem    string   `json:"elem"`
	Iters   int      `json:"iters"`
	Key     string   `json:"key"`
	Error   string   `json:"error,omitempty"`
	Status  int      `json:"status,omitempty"` // HTTP status of the failure
	Seconds float64  `json:"seconds,omitempty"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID: j.ID, Tenant: j.Tenant, State: j.state, Cached: j.cached,
		Elem: j.Elem, Iters: j.Iters, Key: j.Key,
		Error: j.errMsg, Status: j.status,
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		s.Seconds = j.finished.Sub(j.started).Seconds()
	}
	return s
}

// Result returns the outcome of a done job.
func (j *Job) Result() (*GridPayload, stats.Stats, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.stats, j.haveResult
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// terminalTiming returns the timing breakdown and wall seconds for metrics.
func (j *Job) terminalTiming() (stats.Timing, float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var wall float64
	if !j.finished.IsZero() && !j.started.IsZero() {
		wall = j.finished.Sub(j.started).Seconds()
	}
	return j.stats.Timing, wall
}
