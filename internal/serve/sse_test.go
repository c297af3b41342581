package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"stencilabft/internal/stats"
)

// stalledWriter is a streaming ResponseWriter whose first Write parks the
// handler until the test lets it go.
type stalledWriter struct {
	*httptest.ResponseRecorder
	entered chan struct{} // closed when the handler first writes
	release chan struct{} // the handler proceeds once this closes
	stalled bool
}

func (w *stalledWriter) Write(b []byte) (int, error) {
	if !w.stalled {
		w.stalled = true
		close(w.entered)
		<-w.release
	}
	return w.ResponseRecorder.Write(b)
}

// TestSSERelaysQueuedEventsBeforeDone forces the interleaving the load of a
// full test run used to hit by chance: the job publishes its stats events
// and finishes while the SSE handler is subscribed but not yet scheduled,
// so its first select finds both the live channel and Done ready. Every
// queued event must still reach the client, followed by exactly one done.
func TestSSERelaysQueuedEventsBeforeDone(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const iters = 6
	j := newJob("j-sse", "t", "key", "float32", iters, nil, Layout{Nx: 1, Ny: 1})
	srv.sched.register(j)

	w := &stalledWriter{ResponseRecorder: httptest.NewRecorder(), entered: make(chan struct{}), release: make(chan struct{})}
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/j-sse/events", nil)
	r.SetPathValue("id", j.ID)
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.handleJobEvents(w, r)
	}()

	<-w.entered // subscribed, stuck replaying the "queued" state event
	j.SetRunning()
	for i := 1; i <= iters; i++ {
		j.PublishStats(i, &stats.Stats{Iterations: i})
	}
	j.Finish(&GridPayload{Nx: 1, Ny: 1, Elem: "float32", Raw: make([]byte, 4)}, stats.Stats{Iterations: iters}, false)
	close(w.release)
	<-served

	body := w.Body.String()
	if n := strings.Count(body, "event: stats\n"); n != iters {
		t.Errorf("SSE relayed %d stats events, want %d:\n%s", n, iters, body)
	}
	if n := strings.Count(body, "event: done\n"); n != 1 {
		t.Errorf("SSE relayed %d done events, want 1:\n%s", n, body)
	}
}

// parentEvent is the Event the SSE stream has always encoded: its data
// lines must stay exactly json.Marshal of this shape, whatever carries the
// stats from the worker to the job.
type parentEvent struct {
	Type   string       `json:"type"`
	State  JobState     `json:"state,omitempty"`
	Iter   int          `json:"iter,omitempty"`
	Stats  *stats.Stats `json:"stats,omitempty"`
	Error  string       `json:"error,omitempty"`
	Status int          `json:"status,omitempty"`
	Cached bool         `json:"cached,omitempty"`
}

// TestSSEBytesMatchParentEvent: the SSE data of state, stats, done and
// error events are byte for byte json.Marshal of the parent's Event — for
// a job whose stats crossed a worker pipe, and for events carrying every
// Stats field set.
func TestSSEBytesMatchParentEvent(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	events := func(j *Job) [][2]string {
		t.Helper()
		<-j.Done()
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/events", nil)
		r.SetPathValue("id", j.ID)
		srv.handleJobEvents(rec, r)
		var out [][2]string
		for _, block := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n") {
			typ, data, ok := strings.Cut(block, "\ndata: ")
			typ, ok2 := strings.CutPrefix(typ, "event: ")
			if !ok || !ok2 {
				t.Fatalf("malformed SSE block %q", block)
			}
			out = append(out, [2]string{typ, data})
		}
		return out
	}
	check := func(j *Job, wantTypes string) []parentEvent {
		t.Helper()
		var types []string
		var decoded []parentEvent
		for _, ev := range events(j) {
			var pe parentEvent
			dec := json.NewDecoder(strings.NewReader(ev[1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&pe); err != nil {
				t.Fatalf("%s data %s: %v", ev[0], ev[1], err)
			}
			again, err := json.Marshal(pe)
			if err != nil || string(again) != ev[1] || pe.Type != ev[0] {
				t.Fatalf("%s data is not json.Marshal of the parent's Event:\n got %s\nwant %s", ev[0], ev[1], again)
			}
			types = append(types, ev[0])
			decoded = append(decoded, pe)
		}
		if got := strings.Join(types, " "); got != wantTypes {
			t.Fatalf("event types %q, want %q", got, wantTypes)
		}
		return decoded
	}

	// Through a worker: stats every iteration, then done with the totals.
	canon, err := mustParse(t, `{"scheme":"online","stencil":{"name":"laplace5"},"grid":{"nx":12,"ny":9,"generator":"uniform","seed":4}}`).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	ran, err := srv.Scheduler().Submit("t", "float32", canon, 3)
	if err != nil {
		t.Fatal(err)
	}
	check(ran, "state state stats stats stats done")
	if _, st, _ := ran.Result(); st.Iterations != 3 || st.Verifications == 0 {
		t.Fatalf("the worker's stats did not reach the job: %+v", st)
	}

	// Every Stats field set, on stats and done events, and an error.
	full := fullStats()
	j := newJob("j-full", "t", "k", "float32", 2, nil, Layout{Nx: 1, Ny: 1})
	srv.sched.register(j)
	j.SetRunning()
	j.PublishStats(1, &full)
	j.Finish(&GridPayload{Nx: 1, Ny: 1, Elem: "float32", Raw: make([]byte, 4)}, full, true)
	for _, pe := range check(j, "state state stats done")[2:] {
		if *pe.Stats != full {
			t.Fatalf("%s event carries\n%+v\nwant\n%+v", pe.Type, *pe.Stats, full)
		}
	}
	failed := newJob("j-failed", "t", "k", "float32", 2, nil, Layout{Nx: 1, Ny: 1})
	srv.sched.register(failed)
	failed.Fail(`serve: "quoted" <failure>`, 400)
	check(failed, "state error")
}

// TestSSELiveStreamOf256Iterations: a 256-iteration job watched live — the
// subscriber is in before the job runs — streams exactly one stats event
// per iteration, in order, then done. The worker writes its stats events
// in bursts; a burst must fit the subscriber's lossy live channel.
func TestSSELiveStreamOf256Iterations(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hold the only worker so the job stays queued until the stream is open.
	slot, err := srv.sched.pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	canon, err := mustParse(t, `{"scheme":"online","stencil":{"name":"laplace5"},"grid":{"nx":32,"ny":24,"generator":"uniform","seed":9}}`).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	const iters = 256
	j, err := srv.Scheduler().Submit("t", "float32", canon, iters)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+j.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	next := func() (string, Event) {
		t.Helper()
		var typ string
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				typ = name
			} else if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad SSE data line %q: %v", data, err)
				}
				return typ, ev
			}
		}
		t.Fatalf("SSE stream ended early: %v", sc.Err())
		return "", Event{}
	}
	if typ, ev := next(); typ != "state" || ev.State != StateQueued {
		t.Fatalf("first event %s %+v, want the queued state", typ, ev)
	}
	srv.sched.pool.Release(slot, true)

	nStats := 0
	for {
		typ, ev := next()
		if typ == "state" {
			continue
		}
		if typ != "stats" {
			if typ != "done" {
				t.Fatalf("job ended with %s: %s", typ, ev.Error)
			}
			break
		}
		nStats++
		if ev.Iter != nStats || ev.Stats == nil || ev.Stats.Iterations != nStats {
			t.Fatalf("stats event %d carries iteration %d (%+v)", nStats, ev.Iter, ev.Stats)
		}
	}
	if nStats != iters {
		t.Fatalf("the live stream carried %d stats events, want one per iteration (%d)", nStats, iters)
	}
}

// TestSSEEventAppendJSON: Event.AppendJSON is json.Marshal of the Event, byte
// for byte, over generated events with every field — found by reflection,
// so a field added to Event fails here until it is appended — set and
// unset in every combination, strings drawn from every escaping case.
func TestSSEEventAppendJSON(t *testing.T) {
	strs := []string{"stats", "done", "", `serve: "quoted" <failure> & more`, "a\\b\x00\x1f\x7f", "\xff\u2028é", string(StateRunning)}
	full := fullStats()
	rng := rand.New(rand.NewPCG(47, 1))
	nf := reflect.TypeFor[Event]().NumField()
	for mask := range 1 << nf {
		for range 8 {
			var ev Event
			v := reflect.ValueOf(&ev).Elem()
			for i := range nf {
				if mask&(1<<i) == 0 {
					continue
				}
				switch f := v.Field(i); f.Kind() {
				case reflect.String:
					f.SetString(strs[rng.IntN(len(strs))])
				case reflect.Int:
					f.SetInt(rng.Int64N(1<<40) - 1<<39)
				case reflect.Bool:
					f.SetBool(true)
				case reflect.Pointer:
					st := full
					st.Iterations = rng.IntN(1000)
					f.Set(reflect.ValueOf(&st))
				default:
					t.Fatalf("Event field %s is of a kind this test cannot set", v.Type().Field(i).Name)
				}
			}
			want, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			if got := ev.AppendJSON([]byte("data: ")); string(got) != "data: "+string(want) {
				t.Fatalf("AppendJSON of %+v:\n got %s\nwant data: %s", ev, got, want)
			}
		}
	}
}
