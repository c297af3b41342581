package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	abft "stencilabft"
	"stencilabft/internal/serve"
)

// serveShape sizes a serve workload. Jobs are closed-loop: each of the two
// clients sends its next job only after reading the previous result.
type serveShape struct {
	nx, ny, iters int
	warm          int // untimed jobs before the first batch
	batch         int // jobs per batch, both clients together
	computes      int // in-process runs of the same job timed after each batch
}

func runServeSmall(cfg *config, res *result) error {
	sh := serveShape{nx: 32, ny: 24, iters: 4, warm: 200, batch: 300, computes: 40}
	if cfg.quick {
		sh.warm, sh.batch, sh.computes = 8, 16, 4
	}
	return runServe(cfg, res, sh)
}

func runServeGrid(cfg *config, res *result) error {
	sh := serveShape{nx: 256, ny: 256, iters: 16, warm: 10, batch: 12, computes: 6}
	if cfg.quick {
		sh = serveShape{nx: 48, ny: 48, iters: 4, warm: 4, batch: 8, computes: 4}
	}
	return runServe(cfg, res, sh)
}

const clients = 2

// specJSON is the WireSpec of one job; the generator seed makes every job a
// different document, so none is answered from the result cache.
func (sh serveShape) specJSON(jobSeed int64) []byte {
	return []byte(fmt.Sprintf(`{"stencil":{"name":"laplace5"},"bc":"clamp","scheme":"online",`+
		`"grid":{"nx":%d,"ny":%d,"generator":"uniform","seed":%d}}`, sh.nx, sh.ny, jobSeed))
}

func (sh serveShape) body(jobSeed int64) []byte {
	return []byte(fmt.Sprintf(`{"spec":%s,"iters":%d}`, sh.specJSON(jobSeed), sh.iters))
}

// compute runs one job's spec in process — SpecFromWire, Build, Run,
// Finalize, no service around it — and returns the result domain and the
// time from SpecFromWire to Finalize. It is both the serve workloads'
// baseline and the reference their results are compared with.
func (sh serveShape) compute(jobSeed int64) ([]float64, time.Duration, error) {
	wire, err := abft.ParseWireSpec(sh.specJSON(jobSeed))
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	spec, err := abft.SpecFromWire[float32](wire)
	if err != nil {
		return nil, 0, err
	}
	p, err := abft.Build(spec)
	if err != nil {
		return nil, 0, err
	}
	p.Run(sh.iters)
	p.Finalize()
	d := time.Since(t0)
	return toFloat64(gridData(p)), d, nil
}

// jobOutcome is one job as its client saw it.
type jobOutcome struct {
	seed     int64
	latency  time.Duration // POST sent → result body fully read
	body     []byte        // the result body
	rejected bool          // answered 429
	err      error
}

// server is the service under test behind a loopback listener.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client
}

func startServer() (*server, error) {
	srv, err := serve.New(serve.Config{Workers: 2, QuotaPerTenant: 256, QueueDepth: 1024})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	return &server{srv: srv, ts: ts, hc: hc}, nil
}

func (s *server) close() {
	s.hc.CloseIdleConnections()
	s.ts.Close()
	s.srv.Close()
}

// job drives one job through the three calls a client makes and records a
// span around each: post, wait (the SSE stream to its terminal event) and
// result.
func (s *server) job(tr *tracer, body []byte, seed int64) jobOutcome {
	out := jobOutcome{seed: seed}
	trace := tr.newTrace()
	root := tr.begin("job", -1, trace)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin("post", root, trace)
	resp, err := s.hc.Post(s.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		out.rejected = resp.StatusCode == http.StatusTooManyRequests
		out.err = fmt.Errorf("POST /v1/jobs: status %d", resp.StatusCode)
		return out
	}
	if err != nil {
		out.err = fmt.Errorf("POST /v1/jobs: %w", err)
		return out
	}

	sp = tr.begin("wait", root, trace)
	ev, err := s.hc.Get(s.ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		out.err = err
		return out
	}
	terminal := ""
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			terminal = name
		}
	}
	ev.Body.Close()
	tr.end(sp)
	if ev.StatusCode != http.StatusOK || terminal != "done" {
		out.err = fmt.Errorf("job %s: events status %d, terminal event %q", st.ID, ev.StatusCode, terminal)
		return out
	}

	sp = tr.begin("result", root, trace)
	rr, err := s.hc.Get(s.ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		out.err = err
		return out
	}
	out.body, err = io.ReadAll(rr.Body)
	rr.Body.Close()
	tr.end(sp)
	out.latency = time.Since(t0)
	if err != nil || rr.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("job %s: result status %d (%v)", st.ID, rr.StatusCode, err)
	}
	return out
}

// batch runs n jobs split over the clients, closed loop, and returns every
// outcome and the wall time of the whole batch.
func (s *server) batch(tr *tracer, sh serveShape, seeds []int64) ([]jobOutcome, time.Duration) {
	outs := make([]jobOutcome, len(seeds))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(seeds); i += clients {
				outs[i] = s.job(tr, sh.body(seeds[i]), seeds[i])
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(t0)
}

// verifyResult compares a job's result body with the in-process run of the
// same spec: the grid must be bit-identical.
func (sh serveShape) verifyResult(out jobOutcome) error {
	var got struct {
		Grid struct {
			Data []float64 `json:"data"`
		} `json:"grid"`
	}
	if err := json.Unmarshal(out.body, &got); err != nil {
		return fmt.Errorf("result body: %w", err)
	}
	want, _, err := sh.compute(out.seed)
	if err != nil {
		return err
	}
	if !sameBits(got.Grid.Data, want) {
		return fmt.Errorf("job seed %d: result grid not bit-identical to the in-process run (max rel diff %.3g)",
			out.seed, relDiff(got.Grid.Data, want))
	}
	return nil
}

// runServe is the body of both serve workloads. Every job is one
// operation; one job of every batch is also compared with the in-process
// run, outside the timed interval. The traced run alternates traced and
// untraced batches, which prices the recorder.
func runServe(cfg *config, res *result, sh serveShape) error {
	// setup_s: serve.New + worker pool + listener, until a health probe
	// answers; median over fresh cycles.
	// Like every absolute time, set-up and latency are reported against a
	// pacer run right beside them (pacer.go); the serve workloads' pacer
	// sweeps a fixed 256x256 grid, about 0.1 ms a sweep.
	pace := newPacer[float32](256 * 256)
	pace.Step()
	paceOnce := func() float64 {
		t0 := time.Now()
		pace.Step()
		return time.Since(t0).Seconds()
	}
	var setups []float64
	err := cfg.setupLoop(func() error {
		runtime.GC()
		t0 := time.Now()
		s, err := startServer()
		if err != nil {
			return err
		}
		resp, err := s.hc.Get(s.ts.URL + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		d := time.Since(t0).Seconds()
		s.close()
		setups = append(setups, d/paceOnce())
		if err != nil {
			return fmt.Errorf("healthz: %w", err)
		}
		return nil
	})
	if err != nil {
		return err
	}

	ms0 := liveHeap()
	s, err := startServer()
	if err != nil {
		return err
	}
	defer s.close()

	next := cfg.seed * 1_000_003 // job seeds: distinct within a run, a function of -seed
	seeds := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			next++
			out[i] = next
		}
		return out
	}
	warm, _ := s.batch(nil, sh, seeds(sh.warm))
	for _, o := range warm {
		if o.err != nil {
			res.fail("warm-up: %v", o.err)
		}
	}
	memMB := (liveHeap() - ms0) / 1e6

	var latencies, batchLat, tracedLat, untracedLat, computeAll, batchComp, ratios, rates, resultBytes []float64
	rejected := 0
	deadline := cfg.deadline(1)
	if cfg.trace {
		deadline = cfg.deadline(0.7)
	}
	var lastBatch time.Duration
	for b := 0; b < maxReps; b++ {
		if b >= cfg.minReps() && time.Now().Add(lastBatch).After(deadline) {
			break
		}
		start := time.Now()
		tr := cfg.tr
		if b%2 == 1 {
			tr = nil
		}
		runtime.GC()
		outs, wall := s.batch(tr, sh, seeds(sh.batch))
		var lat []float64
		for _, o := range outs {
			res.op(o.err == nil, "%v", o.err)
			if o.rejected {
				rejected++
			}
			if o.err == nil {
				lat = append(lat, o.latency.Seconds())
				resultBytes = append(resultBytes, float64(len(o.body)))
			}
		}
		latencies = append(latencies, lat...)
		lat50 := median(lat)
		if tr != nil {
			tracedLat = append(tracedLat, lat50)
		} else {
			untracedLat = append(untracedLat, lat50)
		}
		rates = append(rates, float64(len(outs))/wall.Seconds())

		vs := cfg.tr.begin("verify", -1, cfg.tr.newTrace())
		if last := outs[len(outs)-1]; last.err == nil {
			if err := sh.verifyResult(last); err != nil {
				res.fail("%v", err)
			}
		}
		cfg.tr.end(vs)

		var comp, paced []float64
		for _, seed := range seeds(sh.computes) {
			_, d, err := sh.compute(seed)
			if err != nil {
				return err
			}
			comp = append(comp, d.Seconds())
			paced = append(paced, paceOnce())
		}
		computeAll = append(computeAll, comp...)
		comp50, pace50 := median(comp), median(paced)
		batchLat = append(batchLat, lat50/pace50)
		batchComp = append(batchComp, comp50/pace50)
		if len(lat) > 0 {
			ratios = append(ratios, lat50/comp50)
		}
		lastBatch = time.Since(start)
	}
	if rejected > 0 {
		res.fail("%d job(s) refused with 429", rejected)
	}

	if !cfg.trace {
		const paceNs = 1.3 // the serve pacer's grid sits in L2
		res.set("run_s", atReferencePace(summarize(batchLat), pace.cells(), 1, paceNs))
		res.set("base_s", atReferencePace(summarize(batchComp), pace.cells(), 1, paceNs))
		res.set("ratio", summarize(ratios))
		res.set("setup_s", atReferencePace(summarize(setups), pace.cells(), 1, paceNs))
		res.set("mem_mb", exact(memMB))
		return nil
	}

	spans := cfg.tr.snapshot()
	ms := func(name string) sample { return summarize(durationsOf(spans, name, "job")).scaled(1e-6) }
	res.set("serve.post_ms", ms("post"))
	res.set("serve.wait_ms", ms("wait"))
	res.set("serve.result_ms", ms("result"))
	res.set("serve.result_bytes", summarize(resultBytes))
	res.set("serve.rejected", exact(float64(rejected)))
	res.set("serve.job_p50_ms", summarize(latencies).scaled(1e3))
	res.set("serve.job_p95_ms", exact(percentile(latencies, 95)*1e3))
	res.set("serve.jobs_per_s", summarize(rates))
	res.set("serve.compute_ms", summarize(computeAll).scaled(1e3))
	res.set("serve.overhead_ratio", summarize(ratios))
	if len(tracedLat) > 0 && len(untracedLat) > 0 {
		res.set("bench.trace_overhead_frac", exact(median(tracedLat)/median(untracedLat)-1))
	}
	if err := probeServeLayers(cfg, res, s, sh, seeds); err != nil {
		return err
	}

	// The job's stencil problem, for the kernel and checksum probes.
	wire, err := abft.ParseWireSpec(sh.specJSON(cfg.seed))
	if err != nil {
		return err
	}
	spec, err := abft.SpecFromWire[float32](wire)
	if err != nil {
		return err
	}
	pb := &problem[float32]{st: spec.Op2D.St, init2: spec.Init, iters: sh.iters}
	probeKernel(cfg, res, pb, cfg.budget(0.05))
	return probeChecksum(cfg, res, pb, cfg.budget(0.05))
}

// probeServeLayers sends the same job through fewer and fewer layers — the
// scheduler without HTTP, a pool worker without the scheduler — so each
// difference is one layer's own time; it also prices admission (parse +
// canonicalise) and a cache hit.
func probeServeLayers(cfg *config, res *result, s *server, sh serveShape, seeds func(int) []int64) error {
	// Each probe is a whole job, so a 256x256 job affords fewer samples
	// than a 32x24 one: the least the medians may rest on, more while the
	// budget lasts.
	n, hits := probeSamples, 2*probeSamples
	if sh.nx*sh.ny <= 32*24 {
		n, hits = 3*n, 50
	}
	if cfg.quick {
		n, hits = 2, 2
	}
	// canonical is what handleSubmit hands the scheduler: the resolved,
	// re-marshalled spec.
	canonical := func(seed int64) ([]byte, error) {
		wire, err := abft.ParseWireSpec(sh.specJSON(seed))
		if err != nil {
			return nil, err
		}
		spec, err := abft.SpecFromWire[float32](wire)
		if err != nil {
			return nil, err
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return json.Marshal(spec)
	}

	var parse, sched, worker []float64
	pool, err := serve.NewPool(1, serve.InprocWorkers())
	if err != nil {
		return err
	}
	defer pool.Close()
	for _, seed := range seeds(n) {
		t0 := time.Now()
		canon, err := canonical(seed)
		parse = append(parse, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}

		t0 = time.Now()
		j, err := s.srv.Scheduler().Submit("probe", "float32", canon, sh.iters)
		if err != nil {
			return err
		}
		<-j.Done()
		sched = append(sched, float64(time.Since(t0))/1e6)
		if j.State() != serve.StateDone {
			res.fail("scheduler probe: job ended %s", j.State())
		}
	}
	for i, seed := range seeds(n) {
		canon, err := canonical(seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		slot, err := pool.Acquire(context.Background())
		if err != nil {
			return err
		}
		terminal := ""
		err = slot.Run(serve.JobRequest{ID: fmt.Sprintf("probe-%d", i), Spec: canon, Iters: sh.iters, StatsEvery: 1},
			func(ev serve.WorkerEvent) { terminal = ev.Event })
		pool.Release(slot, err == nil)
		worker = append(worker, float64(time.Since(t0))/1e6)
		if err != nil || terminal != "done" {
			res.fail("worker probe: terminal event %q (%v)", terminal, err)
		}
	}
	res.set("serve.parse_canon_us", summarize(parse))
	res.set("serve.sched_job_ms", summarize(sched))
	res.set("serve.worker_job_ms", summarize(worker))

	// Cache hits: settle a few jobs, then submit each again.
	settled := seeds(hits)
	s.batch(nil, sh, settled)
	var hit []float64
	for _, seed := range settled {
		o := s.job(nil, sh.body(seed), seed)
		if o.err != nil {
			res.fail("cache probe: %v", o.err)
			continue
		}
		if !bytes.Contains(o.body, []byte(`"cached":true`)) {
			res.fail("cache probe: resubmitted job seed %d was not answered from the cache", seed)
		}
		hit = append(hit, float64(o.latency)/1e6)
	}
	res.set("serve.cache_hit_ms", summarize(hit))
	return nil
}
