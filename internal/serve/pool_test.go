package serve_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	abft "stencilabft"
	"stencilabft/internal/dist"
	"stencilabft/internal/leakcheck"
	"stencilabft/internal/serve"
)

// TestMain lets this test binary double as a pool worker: re-exec'd with
// STENCILSERVE_WORKER=1 it speaks the worker protocol on stdin/stdout
// instead of running tests — the same shape cmd/stencilserve uses with its
// -worker flag, but without needing a separate binary on disk.
//
// After the tests it accounts for goroutines (leakcheck): every one a test
// started — servers, workers, clusters, pools — must be gone within 3 s.
func TestMain(m *testing.M) {
	if os.Getenv("STENCILSERVE_WORKER") == "1" {
		if err := serve.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	leakcheck.Main(m)
}

// processStart returns a StartWorker forking this test binary into worker
// mode.
func processStart(t *testing.T) serve.StartWorker {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return serve.ProcessWorkers(exe, []string{"STENCILSERVE_WORKER=1"})
}

// TestProcessWorkerEndToEnd runs a job through real child processes and
// requires bit-identity with the in-process reference — the wire protocol
// and the fork/exec path change nothing about the numbers.
func TestProcessWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	_, ts := newTestServer(t, serve.Config{Workers: 2, Start: processStart(t)})
	const iters = 5

	spec := onlineSpec(55)
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	ref.Finalize()

	id, code, _, _ := submitSpec(t, ts, "alice", spec, iters)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	grid, gotStats, _ := fetchResult(t, ts, id)
	for i, v := range ref.Grid().Data() {
		if grid.Data[i] != float64(v) {
			t.Fatalf("process-worker result diverges at %d: %v != %v", i, grid.Data[i], v)
		}
	}
	if got, want := normalize(gotStats), normalize(ref.Stats()); got != want {
		t.Fatalf("process-worker stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestProcessWorkerGang fans a 2-rank cluster out over two child
// processes — the full stencilserve deployment shape: real processes, real
// sockets — and checks bit-identity against the in-process cluster.
func TestProcessWorkerGang(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	_, ts := newTestServer(t, serve.Config{Workers: 2, Start: processStart(t)})
	const iters = 4

	spec := onlineSpec(70)
	spec.Deployment = abft.Clustered
	spec.Ranks = 2
	ref, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.(io.Closer).Close() })
	ref.Run(iters)

	id, code, _, _ := submitSpec(t, ts, "alice", spec, iters)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("gang job %s: %s", st.State, st.Error)
	}
	grid, _, _ := fetchResult(t, ts, id)
	for i, v := range ref.Grid().Data() {
		if grid.Data[i] != float64(v) {
			t.Fatalf("process gang diverges at %d: %v != %v", i, grid.Data[i], v)
		}
	}
}

// dyingRank kills its own worker 300 ms after the worker is seated as rank 1.
type dyingRank struct{ serve.Worker }

func (w dyingRank) Send(req serve.JobRequest) error {
	if req.Place != nil && req.Place.Rank == 1 {
		time.AfterFunc(300*time.Millisecond, w.Kill)
	}
	return w.Worker.Send(req)
}

// TestGangWorkerDeath: a gang rank whose worker dies mid-run fails the job
// at once and in that rank's name — not with the fault the survivor's
// transport reports a connection teardown later, blaming the survivor.
func TestGangWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	start := processStart(t)
	_, ts := newTestServer(t, serve.Config{Workers: 2, Start: func(slot int) (serve.Worker, error) {
		w, err := start(slot)
		if err != nil {
			return nil, err
		}
		return dyingRank{w}, nil
	}})

	spec := onlineSpec(70)
	spec.Deployment = abft.Clustered
	spec.Ranks = 2
	t0 := time.Now()
	id, code, _, _ := submitSpec(t, ts, "alice", spec, 900_000)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	st := waitTerminal(t, ts, id)
	took := time.Since(t0)
	if st.State != serve.StateFailed || st.Status != 500 {
		t.Fatalf("gang job settled %s/%d, want failed/500 (%s)", st.State, st.Status, st.Error)
	}
	if took > 3*time.Second {
		t.Fatalf("gang job took %v to fail after its rank 1 worker died, want under 3s (%s)", took, st.Error)
	}
	if !strings.Contains(st.Error, "rank 1") {
		t.Fatalf("gang job error %q does not name the dead rank 1", st.Error)
	}
	t.Logf("failed after %v: %s", took, st.Error)
}

// TestWorkerRespawnAfterTimeout: a job overrunning its deadline gets its
// worker killed (failing the job 500), and the respawned worker serves the
// next job normally — one runaway never wedges a slot.
func TestWorkerRespawnAfterTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	_, ts := newTestServer(t, serve.Config{
		Workers:    1,
		Start:      processStart(t),
		JobTimeout: 200 * time.Millisecond,
	})

	// A run far longer than the deadline.
	runaway := onlineSpec(10)
	id, code, _, _ := submitSpec(t, ts, "alice", runaway, 500_000)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	st := waitTerminal(t, ts, id)
	if st.State != serve.StateFailed || st.Status != 500 {
		t.Fatalf("runaway job settled %s/%d, want failed/500 (%s)", st.State, st.Status, st.Error)
	}

	// The slot respawned: the next job completes.
	ok := onlineSpec(20)
	id, code, _, _ = submitSpec(t, ts, "alice", ok, 3)
	if code != http.StatusAccepted {
		t.Fatalf("POST after respawn: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateDone {
		t.Fatalf("job after respawn settled %s: %s", st.State, st.Error)
	}
}

// TestTimeoutClosesInWorkerCluster: a clustered job run whole by one
// in-process worker and killed by its deadline closes its cluster. The kill
// fails the worker's next stats emit; the cluster's rank goroutines used to
// stay parked for the life of the process.
func TestTimeoutClosesInWorkerCluster(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Workers: 1, DisableFanOut: true, JobTimeout: 150 * time.Millisecond})
	before := distGoroutines()

	spec := onlineSpec(30)
	spec.Deployment = abft.Clustered
	spec.Ranks = 2
	id, code, _, _ := submitSpec(t, ts, "alice", spec, 900_000)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	if st := waitTerminal(t, ts, id); st.State != serve.StateFailed || st.Status != 500 {
		t.Fatalf("job settled %s/%d, want failed/500 (%s)", st.State, st.Status, st.Error)
	}
	deadline := time.Now().Add(3 * time.Second)
	for distGoroutines() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := distGoroutines(); after > before {
		t.Fatalf("goroutines in internal/dist: %d before the job, %d after", before, after)
	}
}

// distGoroutines counts the goroutines with an internal/dist frame on their
// stack: a cluster's ranks, and a worker stepping one.
func distGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "stencilabft/internal/dist.") {
			n++
		}
	}
	return n
}

// TestNonFiniteResultKeepsTheWorker: a result holding +Inf used to kill the
// worker ("json: unsupported value: +Inf" encoding the done event). With
// the grid out of the JSON line the run ends done on a live slot — a real
// child process — and the same worker serves the next job.
func TestNonFiniteResultKeepsTheWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("forks a worker process")
	}
	pool, err := serve.NewPool(1, processStart(t))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	slot, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"overflow-1", "overflow-2"} {
		var done serve.WorkerEvent
		err := slot.Run(serve.JobRequest{ID: id, Spec: []byte(overflowSpec), Iters: 4},
			func(ev serve.WorkerEvent) { done = ev })
		if err != nil {
			t.Fatalf("%s: slot.Run: %v", id, err)
		}
		if done.Event != "done" || done.Grid == nil {
			t.Fatalf("%s: terminal event %+v, want done with a grid", id, done)
		}
		cells, err := dist.DecodeElems[float32](4, done.Grid.Raw)
		if err != nil || len(cells) != 64 || !math.IsInf(float64(cells[0]), 1) {
			t.Fatalf("%s: result %v (%v), want 64 cells of +Inf", id, cells, err)
		}
	}
	pool.Release(slot, true)
}
