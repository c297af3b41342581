package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	abft "stencilabft"
	"stencilabft/internal/dist"
	"stencilabft/internal/serve"
)

// newTestServer starts a service over in-process workers and an httptest
// front-end.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON POSTs a JSON body with an optional tenant header and decodes the
// JSON response.
func postJSON(t *testing.T, ts *httptest.Server, path, tenant string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && err != io.EOF {
		t.Fatalf("POST %s: cannot decode response: %v", path, err)
	}
	return resp.StatusCode, out, resp.Header
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("GET %s: cannot decode response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// submitSpec marshals spec (through its wire form) and POSTs it as a job.
func submitSpec[T abft.Float](t *testing.T, ts *httptest.Server, tenant string, spec abft.Spec[T], iters int) (string, int, map[string]any, http.Header) {
	t.Helper()
	wire, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr := postJSON(t, ts, "/v1/jobs", tenant,
		map[string]any{"spec": json.RawMessage(wire), "iters": iters})
	id, _ := body["id"].(string)
	return id, status, body, hdr
}

// waitTerminal polls the job status until done or failed.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st serve.JobStatus
		if code := getJSON(t, ts, "/v1/jobs/"+id, &st); code != 200 {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return serve.JobStatus{}
}

// resultGrid is the grid member of the JSON result body.
type resultGrid struct {
	Nx   int       `json:"nx"`
	Ny   int       `json:"ny"`
	Nz   int       `json:"nz"`
	Data []float64 `json:"data"`
}

// fetchResult GETs a done job's result in the default (JSON) form.
func fetchResult(t *testing.T, ts *httptest.Server, id string) (resultGrid, abft.Stats, bool) {
	t.Helper()
	var body struct {
		Cached bool       `json:"cached"`
		Grid   resultGrid `json:"grid"`
		Stats  abft.Stats `json:"stats"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+id+"/result", &body); code != 200 {
		t.Fatalf("GET result %s: status %d", id, code)
	}
	return body.Grid, body.Stats, body.Cached
}

// sseEvents streams /events to completion and parses the data lines.
func sseEvents(t *testing.T, ts *httptest.Server, id string) []serve.Event {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	var evs []serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var ev serve.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data line: %v", err)
			}
			evs = append(evs, ev)
		}
	}
	return evs
}

// normalize zeroes the process-dependent Stats fields (wall-clock timing,
// transport backend counters) so deployments compare on the algorithmic
// counters alone.
func normalize(st abft.Stats) abft.Stats {
	var zero abft.Stats
	st.Timing = zero.Timing
	st.Transport = zero.Transport
	return st
}

// onlineSpec is the shared local workload: online ABFT with one injected
// bit-flip, so the result has non-trivial counters to compare.
func onlineSpec(fill float32) abft.Spec[float32] {
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}
	init := abft.New[float32](24, 18)
	init.FillFunc(func(x, y int) float32 { return fill + float32(x*3+y) })
	return abft.Spec[float32]{
		Scheme: abft.Online, Op2D: op, Init: init,
		Inject: abft.NewPlan(abft.Injection{Iteration: 3, X: 10, Y: 11, Bit: 30}),
	}
}

// TestServeEndToEnd: POST a job, stream its SSE events, fetch the result,
// and require bit-identity with an in-process Build+Run of the same spec.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2})
	const iters = 6

	spec := onlineSpec(100)
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	ref.Finalize()

	id, code, _, _ := submitSpec(t, ts, "alice", spec, iters)
	if code != http.StatusAccepted {
		t.Fatalf("POST job: status %d, want 202", code)
	}
	evs := sseEvents(t, ts, id)
	var nStats int
	var sawDone bool
	for _, ev := range evs {
		switch ev.Type {
		case "stats":
			nStats++
		case "done":
			sawDone = true
		case "error":
			t.Fatalf("job failed: %s", ev.Error)
		}
	}
	if nStats != iters {
		t.Fatalf("SSE streamed %d stats events, want one per iteration (%d)", nStats, iters)
	}
	if !sawDone {
		t.Fatal("SSE stream ended without a terminal done event")
	}

	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	grid, gotStats, cached := fetchResult(t, ts, id)
	if cached {
		t.Fatal("first submission reported cached")
	}
	refGrid := ref.Grid()
	if grid.Nx != refGrid.Nx() || grid.Ny != refGrid.Ny() || len(grid.Data) != refGrid.Len() {
		t.Fatalf("result shape %dx%d (%d values)", grid.Nx, grid.Ny, len(grid.Data))
	}
	for i, v := range refGrid.Data() {
		if grid.Data[i] != float64(v) {
			t.Fatalf("result diverges from in-process reference at %d: %v != %v", i, grid.Data[i], v)
		}
	}
	if got, want := normalize(gotStats), normalize(ref.Stats()); got != want {
		t.Fatalf("served stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestServeClusterGang: a 2-rank cluster job fans out one TCP rank per
// worker; the reassembled domain and merged counters must be bit-identical
// to the in-process channel-transport cluster.
func TestServeClusterGang(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2})
	const iters = 6

	spec := onlineSpec(80)
	spec.Deployment = abft.Clustered
	spec.Ranks = 2
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.(io.Closer).Close() })
	ref.Run(iters)
	refStats := ref.Stats()

	id, code, _, _ := submitSpec(t, ts, "alice", spec, iters)
	if code != http.StatusAccepted {
		t.Fatalf("POST cluster job: status %d, want 202", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("cluster job state %s: %s", st.State, st.Error)
	}
	grid, gotStats, _ := fetchResult(t, ts, id)
	refGrid := ref.Grid()
	for i, v := range refGrid.Data() {
		if grid.Data[i] != float64(v) {
			t.Fatalf("gang result diverges from channel-transport cluster at %d: %v != %v", i, grid.Data[i], v)
		}
	}
	if got, want := normalize(gotStats), normalize(refStats); got != want {
		t.Fatalf("gang stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestServeCacheHit: an identical resubmission answers 200 from cache with
// the bit-identical result, without consuming a worker.
func TestServeCacheHit(t *testing.T) {
	srv, ts := newTestServer(t, serve.Config{Workers: 1})
	spec := onlineSpec(120)

	id1, code, _, _ := submitSpec(t, ts, "alice", spec, 5)
	if code != http.StatusAccepted {
		t.Fatalf("first POST: status %d, want 202", code)
	}
	waitTerminal(t, ts, id1)
	g1, _, cached1 := fetchResult(t, ts, id1)
	if cached1 {
		t.Fatal("first run reported cached")
	}

	// Same computation spelled differently — a different tenant and a
	// fresh marshal — must hit the cache (content addressing).
	id2, code, body, _ := submitSpec(t, ts, "bob", spec, 5)
	if code != http.StatusOK {
		t.Fatalf("resubmission: status %d, want 200 (cache hit)", code)
	}
	if state, _ := body["state"].(string); state != "done" {
		t.Fatalf("cache hit state %q, want done", state)
	}
	g2, _, cached2 := fetchResult(t, ts, id2)
	if !cached2 {
		t.Fatal("resubmission not marked cached")
	}
	if len(g1.Data) != len(g2.Data) {
		t.Fatal("cached result shape differs")
	}
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatalf("cached result differs at %d", i)
		}
	}
	// Different iteration count is a different computation.
	_, code, _, _ = submitSpec(t, ts, "bob", spec, 6)
	if code != http.StatusAccepted {
		t.Fatalf("different iters: status %d, want 202 (no cache hit)", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "stencilserve_cache_hits_total 1") {
		t.Fatalf("metrics missing the cache hit:\n%s", metrics)
	}
	_ = srv
}

// gatedWorkers wraps the in-process worker so jobs cannot start until the
// gate opens — making quota tests deterministic.
type gatedWorker struct {
	serve.Worker
	gate <-chan struct{}
}

func (g *gatedWorker) Send(req serve.JobRequest) error {
	<-g.gate
	return g.Worker.Send(req)
}

// TestServeQuota: with one worker and a quota of 2, a tenant's third
// concurrent job is rejected 429 with Retry-After while another tenant
// still gets in; after the gate opens everything completes.
func TestServeQuota(t *testing.T) {
	gate := make(chan struct{})
	inner := serve.InprocWorkers()
	var once sync.Once
	cfg := serve.Config{
		Workers:        1,
		QuotaPerTenant: 2,
		Start: func(slot int) (serve.Worker, error) {
			w, err := inner(slot)
			if err != nil {
				return nil, err
			}
			return &gatedWorker{Worker: w, gate: gate}, nil
		},
	}
	_, ts := newTestServer(t, cfg)
	defer once.Do(func() { close(gate) })

	specA := onlineSpec(10)
	specB := onlineSpec(20)
	specC := onlineSpec(30)

	idA, code, _, _ := submitSpec(t, ts, "alice", specA, 3)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code)
	}
	idB, code, _, _ := submitSpec(t, ts, "alice", specB, 3)
	if code != http.StatusAccepted {
		t.Fatalf("job 2: status %d", code)
	}
	_, code, body, hdr := submitSpec(t, ts, "alice", specC, 3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "quota") {
		t.Fatalf("429 error %q does not mention the quota", msg)
	}
	// Another tenant is not affected by alice's quota.
	idC, code, _, _ := submitSpec(t, ts, "bob", specC, 3)
	if code != http.StatusAccepted {
		t.Fatalf("bob's job: status %d, want 202", code)
	}

	once.Do(func() { close(gate) })
	for _, id := range []string{idA, idB, idC} {
		if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
			t.Fatalf("job %s state %s: %s", id, st.State, st.Error)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "stencilserve_quota_rejections_total 1") {
		t.Fatalf("metrics missing the quota rejection:\n%s", metrics)
	}
}

// TestServeMalformed maps the wire-validation surface to HTTP statuses: the
// typed sentinels become 400s at submission time.
func TestServeMalformed(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	grid := `{"nx":8,"ny":8,"generator":"constant","value":100}`
	cases := []struct {
		name string
		body string
		want int
		msg  string // substring of the error
	}{
		{"not json", `{{`, 400, "cannot parse"},
		{"no spec", `{"iters":3}`, 400, `"spec"`},
		{"zero iters", `{"spec":{"stencil":{"name":"laplace5"},"grid":` + grid + `},"iters":0}`, 400, `"iters"`},
		{"unknown wire field", `{"spec":{"stencill":{"name":"laplace5"},"grid":` + grid + `},"iters":3}`, 400, "stencill"},
		{"unknown stencil", `{"spec":{"stencil":{"name":"laplace7"},"grid":` + grid + `},"iters":3}`, 400, "laplace7"},
		{"bad stencil arity", `{"spec":{"stencil":{"name":"laplace5","args":[0.1,0.2]},"grid":` + grid + `},"iters":3}`, 400, "arg"},
		{"unknown elem", `{"spec":{"elem":"float16","stencil":{"name":"laplace5"},"grid":` + grid + `},"iters":3}`, 400, "float16"},
		{"unknown scheme", `{"spec":{"scheme":"onlin","stencil":{"name":"laplace5"},"grid":` + grid + `},"iters":3}`, 400, "onlin"},
		{"unknown generator", `{"spec":{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"noise"}},"iters":3}`, 400, "noise"},
		{"unresolved upload", `{"spec":{"stencil":{"name":"laplace5"},"grid":{"upload":"nope"}},"iters":3}`, 400, "upload"},
		{"two grid sources", `{"spec":{"stencil":{"name":"laplace5"},"grid":{"nx":2,"ny":1,"generator":"constant","value":1,"data":[1,2]}},"iters":3}`, 400, "exactly one"},
		{"short grid data", `{"spec":{"stencil":{"name":"laplace5"},"grid":{"nx":3,"ny":3,"data":[1,2,3]}},"iters":3}`, 400, "9"},
		{"unknown bc", `{"spec":{"stencil":{"name":"laplace5"},"bc":"bounce","grid":` + grid + `},"iters":3}`, 400, "bounce"},
		{"cluster without ranks", `{"spec":{"scheme":"online","deployment":"cluster","stencil":{"name":"laplace5"},"grid":` + grid + `},"iters":3}`, 400, "Ranks"},
		{"offline cluster", `{"spec":{"scheme":"offline","deployment":"cluster","ranks":2,"period":4,"stencil":{"name":"laplace5"},"grid":` + grid + `},"iters":3}`, 400, "online scheme only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, raw)
			}
			var eb struct {
				Error string `json:"error"`
				Kind  string `json:"kind"`
			}
			if err := json.Unmarshal(raw, &eb); err != nil {
				t.Fatalf("error body not JSON: %s", raw)
			}
			if !strings.Contains(eb.Error, tc.msg) {
				t.Fatalf("error %q missing %q", eb.Error, tc.msg)
			}
			if eb.Kind != "bad_request" {
				t.Fatalf("kind %q, want bad_request", eb.Kind)
			}
		})
	}
}

// TestServeThinTileJob: geometry errors that only Build can detect are
// accepted at POST but fail the job with the client-error status recorded.
func TestServeThinTileJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	body := `{"spec":{"scheme":"online","deployment":"cluster","ranks":16,"stencil":{"name":"laplace5"},"grid":{"nx":16,"ny":16,"generator":"constant","value":100}},"iters":3}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: status %d, want 202 (thin tiles are a Build-time error)", resp.StatusCode)
	}
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != serve.StateFailed || fin.Status != 400 {
		t.Fatalf("thin-tile job settled %s with status %d, want failed/400 (%s)", fin.State, fin.Status, fin.Error)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+st.ID+"/result", nil); code != 400 {
		t.Fatalf("GET result of thin-tile job: status %d, want the recorded 400", code)
	}
}

// TestStatusForThinBlock: a Blocked spec whose block is no wider than the
// stencil radius is the client's mistake — Build names the chunk and tags it
// ErrThinTile and ErrInvalidSpec, so the service answers 400 where it used
// to answer an untyped error with 500.
func TestStatusForThinBlock(t *testing.T) {
	wide := abft.NewStencil("wide", abft.Point[float32]{W: 0.6},
		abft.Point[float32]{DX: -2, W: 0.1}, abft.Point[float32]{DX: 2, W: 0.1},
		abft.Point[float32]{DY: -1, W: 0.1}, abft.Point[float32]{DY: 1, W: 0.1})
	for _, bx := range []int{1, 2} {
		_, err := abft.Build(abft.Spec[float32]{
			Scheme: abft.Blocked, BlockX: bx, BlockY: 4,
			Op2D: &abft.Op2D[float32]{St: wide, BC: abft.Clamp}, Init: abft.New[float32](16, 16),
		})
		if !errors.Is(err, abft.ErrThinTile) || !errors.Is(err, abft.ErrInvalidSpec) || serve.StatusFor(err) != http.StatusBadRequest {
			t.Errorf("BlockX %d under x-radius 2: error %v, status %d", bx, err, serve.StatusFor(err))
		}
		if err == nil || !strings.Contains(err.Error(), "need more than the stencil x-radius 2") {
			t.Errorf("BlockX %d: error does not name the geometry: %v", bx, err)
		}
	}
}

// TestStatusForThinSlab: a 3-D cluster whose slabs are no thicker than the
// stencil's z-radius is the client's mistake too — 400, where the untagged
// error it used to be answered 500.
func TestStatusForThinSlab(t *testing.T) {
	_, err := abft.Build(abft.Spec[float32]{
		Scheme: abft.Online, Deployment: abft.Clustered, Ranks: 8,
		Op3D:   &abft.Op3D[float32]{St: abft.SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), BC: abft.Clamp},
		Init3D: abft.New3D[float32](8, 8, 8),
	})
	if !errors.Is(err, abft.ErrThinTile) || !errors.Is(err, abft.ErrInvalidSpec) || serve.StatusFor(err) != http.StatusBadRequest {
		t.Errorf("8 ranks over 8 layers under z-radius 1: error %v, status %d", err, serve.StatusFor(err))
	}
}

// TestServeUploadFlow: upload a grid, reference it from a job, and require
// the canonical form to hit the cache of the equivalent inline submission.
func TestServeUploadFlow(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	nx, ny := 16, 12
	data := make([]float64, nx*ny)
	for i := range data {
		data[i] = 100 + float64(i%7)
	}
	up := map[string]any{"nx": nx, "ny": ny, "data": data}
	code, body, _ := postJSON(t, ts, "/v1/grids", "", up)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	id1, _ := body["id"].(string)
	code, body, _ = postJSON(t, ts, "/v1/grids", "", up)
	if code != http.StatusCreated || body["id"] != id1 {
		t.Fatalf("re-upload not content-addressed: %d %v vs %s", code, body["id"], id1)
	}

	mkJob := func(grid string) string {
		return fmt.Sprintf(`{"spec":{"scheme":"online","stencil":{"name":"laplace5"},"grid":%s},"iters":4}`, grid)
	}
	inline, err := json.Marshal(up)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mkJob(string(inline))))
	if err != nil {
		t.Fatal(err)
	}
	var st1 serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("inline job: status %d", resp.StatusCode)
	}
	waitTerminal(t, ts, st1.ID)

	// The upload reference resolves to the same canonical document, so
	// this submission is answered from cache.
	resp, err = ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(mkJob(fmt.Sprintf(`{"upload":%q}`, id1))))
	if err != nil {
		t.Fatal(err)
	}
	var st2 serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st2.State != serve.StateDone {
		t.Fatalf("upload job: status %d state %s, want a cache hit", resp.StatusCode, st2.State)
	}
	g1, _, _ := fetchResult(t, ts, st1.ID)
	g2, _, cached := fetchResult(t, ts, st2.ID)
	if !cached {
		t.Fatal("upload-backed job not served from cache")
	}
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatalf("upload-backed result differs at %d", i)
		}
	}
}

// TestServeFloat64AndGenerator: a float64 generator-backed spec round-trips
// through the service bit-identically to the in-process run of the resolved
// spec.
func TestServeFloat64AndGenerator(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	const iters = 5
	body := `{"spec":{"elem":"float64","scheme":"offline","period":4,"recovery":"cone",` +
		`"epsilon":1e-9,"absFloor":1,` +
		`"stencil":{"name":"advect2d","args":[0.3,0.2]},` +
		`"grid":{"nx":20,"ny":16,"generator":"uniform","seed":42}},"iters":5}`
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: status %d", resp.StatusCode)
	}
	if st.Elem != "float64" {
		t.Fatalf("job elem %q", st.Elem)
	}
	if fin := waitTerminal(t, ts, st.ID); fin.State != serve.StateDone {
		t.Fatalf("job %s: %s", fin.State, fin.Error)
	}
	grid, _, _ := fetchResult(t, ts, st.ID)

	// In-process reference: resolve the same wire document and run it.
	w, err := abft.ParseWireSpec([]byte(`{"elem":"float64","scheme":"offline","period":4,"recovery":"cone",` +
		`"epsilon":1e-9,"absFloor":1,` +
		`"stencil":{"name":"advect2d","args":[0.3,0.2]},` +
		`"grid":{"nx":20,"ny":16,"generator":"uniform","seed":42}}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := abft.SpecFromWire[float64](w)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	ref.Finalize()
	for i, v := range ref.Grid().Data() {
		if grid.Data[i] != v {
			t.Fatalf("float64 result diverges at %d: %v != %v", i, grid.Data[i], v)
		}
	}
}

// TestServeNotFound covers the 404 surface.
func TestServeNotFound(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	if code := getJSON(t, ts, "/v1/jobs/nope", nil); code != 404 {
		t.Fatalf("unknown job: status %d", code)
	}
	if code := getJSON(t, ts, "/v1/jobs/nope/result", nil); code != 404 {
		t.Fatalf("unknown job result: status %d", code)
	}
	if code := getJSON(t, ts, "/v1/grids/nope", nil); code != 404 {
		t.Fatalf("unknown grid: status %d", code)
	}
	var health map[string]any
	if code := getJSON(t, ts, "/v1/healthz", &health); code != 200 || health["ok"] != true {
		t.Fatalf("healthz: %d %v", code, health)
	}
}

// binaryHeader is the header line of the binary result form.
type binaryHeader struct {
	ID     string     `json:"id"`
	Cached bool       `json:"cached"`
	Nx     int        `json:"nx"`
	Ny     int        `json:"ny"`
	Nz     int        `json:"nz"`
	Elem   string     `json:"elem"`
	Stats  abft.Stats `json:"stats"`
}

// fetchBinary GETs a done job's result in the binary form: one JSON header
// line, then the cells as raw little-endian bits.
func fetchBinary(t *testing.T, ts *httptest.Server, id string) (hdr binaryHeader, cells []float64) {
	t.Helper()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/octet-stream")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("GET binary result %s: status %d, type %q, %v", id, resp.StatusCode, resp.Header.Get("Content-Type"), err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("binary result declares %d bytes, sent %d", resp.ContentLength, len(body))
	}
	line, raw, ok := bytes.Cut(body, []byte("\n"))
	if !ok {
		t.Fatal("binary result has no header line")
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		t.Fatalf("binary result header %q: %v", line, err)
	}
	switch hdr.Elem {
	case "float32":
		c, err := dist.DecodeElems[float32](4, raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c {
			cells = append(cells, float64(v))
		}
	case "float64":
		if cells, err = dist.DecodeElems[float64](8, raw); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("binary result elem %q", hdr.Elem)
	}
	return hdr, cells
}

// TestServeBinaryResult: the JSON and the binary form of one result decode
// to bit-identical grids with the same header fields — for both element
// types, for a job run whole in one worker and for a gang reassembled from
// TCP tiles.
func TestServeBinaryResult(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 2})
	for _, tc := range []struct{ name, elem, layout string }{
		{"float32 local", "float32", ``},
		{"float64 local", "float64", ``},
		{"float32 gang", "float32", `"deployment":"cluster","ranks":2,`},
		{"float64 gang", "float64", `"deployment":"cluster","ranksX":2,"ranksY":1,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := fmt.Sprintf(`{"iters":5,"spec":{"elem":%q,"scheme":"online",%s"stencil":{"name":"laplace5"},`+
				`"grid":{"nx":24,"ny":18,"generator":"uniform","seed":11},"inject":[{"iteration":2,"x":7,"y":9,"bit":29}]}}`,
				tc.elem, tc.layout)
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var st serve.JobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST: status %d", resp.StatusCode)
			}
			if fin := waitTerminal(t, ts, st.ID); fin.State != serve.StateDone {
				t.Fatalf("job %s: %s", fin.State, fin.Error)
			}
			grid, jsonStats, _ := fetchResult(t, ts, st.ID)
			hdr, cells := fetchBinary(t, ts, st.ID)
			if hdr.ID != st.ID || hdr.Cached || hdr.Nx != 24 || hdr.Ny != 18 || hdr.Nz != 0 || hdr.Elem != tc.elem {
				t.Fatalf("binary header %+v", hdr)
			}
			if hdr.Stats != jsonStats {
				t.Fatalf("stats differ between the forms:\n%+v\n%+v", hdr.Stats, jsonStats)
			}
			if len(cells) != len(grid.Data) || len(cells) != 24*18 {
				t.Fatalf("binary form has %d cells, JSON form %d", len(cells), len(grid.Data))
			}
			for i := range cells {
				if math.Float64bits(cells[i]) != math.Float64bits(grid.Data[i]) {
					t.Fatalf("cell %d: binary %v, JSON %v", i, cells[i], grid.Data[i])
				}
			}
		})
	}
}

// overflowSpec multiplies the domain by 2e30 a sweep: finite after one
// iteration, +Inf from the second on in float32.
const overflowSpec = `{"scheme":"none","stencil":{"points":[{"dx":0,"dy":0,"w":1e30},{"dx":1,"dy":0,"w":1e30}]},` +
	`"grid":{"nx":8,"ny":8,"generator":"constant","value":100}}`

// TestServeNonFiniteResult: a run that overflows finishes done like any
// other. JSON has no spelling for ±Inf, so the JSON form answers a typed 406
// naming the binary form — before any 200 is written — and the binary form
// carries the cells as they are.
func TestServeNonFiniteResult(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"iters":4,"spec":`+overflowSpec+`}`))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if fin := waitTerminal(t, ts, st.ID); fin.State != serve.StateDone {
		t.Fatalf("overflowing job settled %s (%d): %s", fin.State, fin.Status, fin.Error)
	}

	r, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var eb struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	err = json.NewDecoder(r.Body).Decode(&eb)
	r.Body.Close()
	if r.StatusCode != http.StatusNotAcceptable || err != nil || eb.Kind != "not_acceptable" ||
		!strings.Contains(eb.Error, "application/octet-stream") {
		t.Fatalf("JSON form of a non-finite result: status %d, body %+v (%v)", r.StatusCode, eb, err)
	}

	hdr, cells := fetchBinary(t, ts, st.ID)
	if hdr.Elem != "float32" || len(cells) != 64 {
		t.Fatalf("binary form: %+v, %d cells", hdr, len(cells))
	}
	for i, v := range cells {
		if !math.IsInf(v, 1) {
			t.Fatalf("cell %d is %v, want +Inf", i, v)
		}
	}
}
