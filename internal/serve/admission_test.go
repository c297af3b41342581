package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	abft "stencilabft"
)

// post runs one POST /v1/jobs through srv's handler.
func post(srv *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	return rec
}

// TestFreshJobSettledBeforeTheAnswerIs202: a fresh submission is answered
// 202 even when its job is done before the handler reads its status — the
// dispatcher runs a job as soon as it is queued — and only a cache hit is
// answered 200. The handler is parked after queueing the job, on the
// metrics lock its Submitted call takes, until the job settles.
func TestFreshJobSettledBeforeTheAnswerIs202(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const body = `{"iters":2,"spec":{"scheme":"online","stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":6,"generator":"ramp"}}}`

	srv.met.mu.Lock()
	answered := make(chan *httptest.ResponseRecorder)
	go func() { answered <- post(srv, body) }()
	var j *Job
	for deadline := time.Now().Add(30 * time.Second); j == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			srv.met.mu.Unlock()
			t.Fatal("the submission never reached the queue")
		}
		srv.sched.mu.Lock()
		if len(srv.sched.order) > 0 {
			j = srv.sched.jobs[srv.sched.order[0]]
		}
		srv.sched.mu.Unlock()
	}
	<-j.Done()
	srv.met.mu.Unlock()
	rec := <-answered
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusAccepted || st.Cached {
		t.Fatalf("a fresh job settled before its answer: %d %s (%v), want 202 and not cached", rec.Code, rec.Body, err)
	}

	rec = post(srv, body)
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK || !st.Cached || st.State != StateDone {
		t.Fatalf("the same submission again: %d %s (%v), want 200 from cache", rec.Code, rec.Body, err)
	}
}

// builtCanonical is the canonical document by way of a built spec: what
// admission computed before it stopped building generator grids.
func builtCanonical[T abft.Float](w *abft.WireSpec) ([]byte, error) {
	spec, err := abft.SpecFromWire[T](w)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(spec)
}

// TestAdmissionRejectsAsTheBuiltSpecDoes: every document resolving and
// validating a built spec refuses, admission refuses with the same message
// and the HTTP status that error maps to — generator grids included, which
// admission never builds.
func TestAdmissionRejectsAsTheBuiltSpecDoes(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	builtError := func(doc string) error {
		w, err := abft.ParseWireSpec([]byte(doc))
		if err != nil {
			return err
		}
		if w.Elem == "float64" {
			_, err = builtCanonical[float64](w)
		} else {
			_, err = builtCanonical[float32](w)
		}
		return err
	}
	gen := `"grid":{"nx":8,"ny":8,"generator":"uniform","seed":3}`
	for _, doc := range []string{
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"noise"}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":0,"generator":"ramp"}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"nz":-1,"generator":"ramp"}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"ramp","data":[1]}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"upload":"x","generator":"ramp"}}`,
		`{"elem":"float16","stencil":{"name":"laplace5"},` + gen + `}`,
		`{"stencil":{"name":"laplace9"},` + gen + `}`,
		`{"stencil":{"name":"laplace5"},"bc":"bounce",` + gen + `}`,
		`{"stencil":{"name":"laplace5"},"scheme":"blocked",` + gen + `}`,
		`{"stencil":{"name":"star7"},"scheme":"blocked","blockX":2,"blockY":2,"grid":{"nx":8,"ny":8,"nz":3,"generator":"ramp"}}`,
		`{"stencil":{"name":"star7"},"scheme":"online","deployment":"cluster","ranksX":2,"ranksY":1,"grid":{"nx":8,"ny":8,"nz":3,"generator":"ramp"}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"nz":2,"generator":"ramp"},"cfield":{"nx":8,"ny":8,"data":[1]}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":2,"ny":2,"nz":2,"generator":"ramp"},"cfield":{"nx":2,"ny":2,"data":[1,2,3,4]}}`,
		`{"stencil":{"name":"laplace5"},"scheme":"offline","deployment":"cluster","ranks":2,` + gen + `}`,
		`{"stencil":{"name":"laplace5"},"scheme":"online","ranks":2,` + gen + `}`,
		`{"stencil":{"name":"laplace5"},"recovery":"forward",` + gen + `}`,
		`{"elem":"float64","stencil":{"name":"laplace5"},"scheme":"sideways",` + gen + `}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"constant","value":1e300}}`,
	} {
		want := builtError(doc)
		if want == nil {
			t.Fatalf("the built path accepts %s", doc)
		}
		rec := post(srv, `{"iters":3,"spec":`+doc+`}`)
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s: error body %q: %v", doc, rec.Body, err)
		}
		if rec.Code != StatusFor(want) || eb.Error != want.Error() {
			t.Fatalf("%s:\nadmission answered %d %q\nthe built path: %d %q", doc, rec.Code, eb.Error, StatusFor(want), want)
		}
	}
	if code := post(srv, `{"iters":3,"spec":{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"noise"}}}`).Code; code != http.StatusBadRequest {
		t.Fatalf("an unknown generator is answered %d, want 400", code)
	}
}

// idleWorker takes requests and never answers them until it is killed, so
// a test can measure admission without a job running beside it.
type idleWorker struct {
	once sync.Once
	gone chan struct{}
}

func (w *idleWorker) Send(JobRequest) error { return nil }
func (w *idleWorker) Recv() (WorkerEvent, error) {
	<-w.gone
	return WorkerEvent{}, io.EOF
}
func (w *idleWorker) Kill()        { w.once.Do(func() { close(w.gone) }) }
func (w *idleWorker) Close() error { w.Kill(); return nil }

// TestAdmissionBuildsNoGrid: admitting a 1024x1024 generator job — the
// whole POST, parse to answer — allocates under 64 KiB, where building the
// spec to canonicalise it allocates the 4 MiB domain three times over.
func TestAdmissionBuildsNoGrid(t *testing.T) {
	srv, err := New(Config{Workers: 1, Start: func(int) (Worker, error) { return &idleWorker{gone: make(chan struct{})}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const spec = `{"scheme":"online","stencil":{"name":"laplace5"},"grid":{"nx":1024,"ny":1024,"generator":"uniform","seed":9}}`
	post(srv, `{"iters":1,"spec":{"scheme":"none","stencil":{"name":"laplace5"},"grid":{"nx":4,"ny":4,"generator":"ramp"}}}`) // warm the handler's paths

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := post(srv, `{"iters":4,"spec":`+spec+`}`)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST: %d %s", rec.Code, rec.Body)
	}
	admitted := after.TotalAlloc - before.TotalAlloc

	w, err := abft.ParseWireSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&before)
	_, err = builtCanonical[float32](w)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	viaBuild := after.TotalAlloc - before.TotalAlloc
	t.Logf("admitting a 1024x1024 generator job allocated %d bytes; canonicalising it through a built spec allocates %d", admitted, viaBuild)
	if admitted > 64<<10 || viaBuild < 8<<20 {
		t.Fatalf("admission allocated %d bytes (want under 64 KiB); the built path %d (want over 8 MiB)", admitted, viaBuild)
	}
}
