package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
		j.PublishStats(i, stats.Stats{Iterations: i})
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
