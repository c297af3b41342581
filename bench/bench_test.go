package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"testing"

	abft "stencilabft"
)

// quickRun runs one workload in -quick mode: tiny sizes, two repetitions.
func quickRun(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	ws, err := selectWorkloads(name)
	if err != nil {
		t.Fatal(err)
	}
	res := runWorkload(ws[0], config{seed: seed, quick: true, trace: trace})
	if res.Failed != 0 {
		t.Fatalf("%s (trace %t): %d failed of %d: %v", name, trace, res.Failed, res.Attempted, res.Failures)
	}
	return res
}

// TestQuickSuite exercises all eight workloads, untraced and traced: no
// operation may fail, every end-to-end metric must be a positive number
// and every per-layer metric must be present.
func TestQuickSuite(t *testing.T) {
	for _, w := range workloads {
		res := quickRun(t, w.name, 1, false)
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, d.Name, v)
			}
		}
		traced := quickRun(t, w.name, 1, true)
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(traced.Metrics), len(perLayer))
		}
		if v := traced.Metrics["stencil.sweep_ns_per_cell"].Value; !(v > 0) {
			t.Errorf("%s: kernel probe reported %v", w.name, v)
		}
		if len(traced.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
}

// TestSeedMovesInputsNotCounts: a second seed changes the generated grids
// and the fault plan but not the counts that must repeat exactly.
func TestSeedMovesInputsNotCounts(t *testing.T) {
	a := uniform2D(1, 16, 16, 4, abft.Laplace5[float32](0.2))
	b := uniform2D(2, 16, 16, 4, abft.Laplace5[float32](0.2))
	if sameBits(a.init2.Data(), b.init2.Data()) {
		t.Error("seeds 1 and 2 generated the same grid")
	}
	if again := uniform2D(1, 16, 16, 4, abft.Laplace5[float32](0.2)); !sameBits(a.init2.Data(), again.init2.Data()) {
		t.Error("seed 1 generated two different grids")
	}
	pa, pb := faultPlan(1, 48, 48, 32, 4), faultPlan(2, 48, 48, 32, 4)
	if reflect.DeepEqual(pa.Injections(), pb.Injections()) {
		t.Error("seeds 1 and 2 generated the same fault plan")
	}
	if !reflect.DeepEqual(pa.Injections(), faultPlan(1, 48, 48, 32, 4).Injections()) {
		t.Error("seed 1 generated two different fault plans")
	}

	for _, c := range []struct {
		workload, metric string
		want             float64
	}{
		{"cluster_chan", "dist.halo_msgs_per_step", 2}, // one column strip each way
		{"faults", "core.detections", 4},               // 2 flips online + 2 offline, a repetition
		{"faults", "core.corrected_points", 2},
		{"faults", "core.false_positives", 0},
		{"serve_small", "serve.rejected", 0},
	} {
		for seed := int64(1); seed <= 2; seed++ {
			got := quickRun(t, c.workload, seed, true).Metrics[c.metric].Value
			if got != c.want {
				t.Errorf("%s seed %d: %s = %v, want %v", c.workload, seed, c.metric, got, c.want)
			}
		}
	}
}

// TestGatesCountFailures plants a corrupted grid and a 500 response and
// asserts the correctness gates count them.
func TestGatesCountFailures(t *testing.T) {
	ref := []float32{1, 2, 3, 4}
	r := &runner[float32]{role: "online", data: []float32{1, 2, 3.0000002, 4}}
	if err := r.verify(ref); err == nil {
		t.Error("a grid one ulp off passed the bit-identity gate")
	}
	r.data = append([]float32(nil), ref...)
	if err := r.verify(ref); err != nil {
		t.Errorf("an identical grid failed the gate: %v", err)
	}
	r.stats.Detections = 1
	if err := r.verify(ref); err == nil {
		t.Error("a detection in a fault-free repetition passed the gate")
	}
	faulty := &runner[float32]{role: "online_faulty", check: checkRepair, flips: 2, data: ref}
	faulty.stats.Detections, faulty.stats.CorrectedPoints = 2, 1
	if err := faulty.verify(ref); err == nil {
		t.Error("an unrepaired flip passed the gate")
	}

	res := newResult("gate", &config{})
	res.op(true, "")
	res.op(false, "planted %d", 1)
	if res.Attempted != 2 || res.Failed != 1 || len(res.Failures) != 1 {
		t.Errorf("op accounting: attempted %d failed %d reasons %v", res.Attempted, res.Failed, res.Failures)
	}

	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "planted", http.StatusInternalServerError)
	}))
	defer broken.Close()
	s := &server{ts: broken, hc: broken.Client()}
	sh := serveShape{nx: 8, ny: 8, iters: 1}
	if out := s.job(nil, sh.body(1), 1); out.err == nil {
		t.Error("a 500 response passed the job gate")
	}
	if err := sh.verifyResult(jobOutcome{seed: 1, body: []byte(`{"grid":{"data":[1,2,3]}}`)}); err == nil {
		t.Error("a wrong result grid passed the result gate")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if s := summarize(nil); s != (sample{}) {
		t.Errorf("summarize(nil) = %+v, want the zero sample", s)
	}
}

// TestPairedRatio: a burst that hits one sweep of one side, and a slowdown
// that hits both sides of one repetition, both leave the ratio alone; a
// cost at a fixed position is kept at its weight.
func TestPairedRatio(t *testing.T) {
	b := &runner[float32]{times: [][]float64{{1, 1, 1, 1}, {1, 1, 1, 1}, {2, 2, 2, 2}}}
	a := &runner[float32]{times: [][]float64{{1, 1, 1, 5}, {1, 9, 1, 5}, {2, 2, 2, 10}}}
	// positions 0..2 cost the same on both sides, position 3 costs 5x: (3 + 5) / 4
	if got := pairedRatio(a, b).Value; math.Abs(got-2) > 1e-12 {
		t.Errorf("pairedRatio = %v, want 2", got)
	}
	// first quartile per position: 1, 1.5 (of 1 2 9: the burst is left out), 1, 5
	if got := a.opTime().Value; got != 8.5 {
		t.Errorf("opTime = %v, want 8.5", got)
	}
}

// TestSelfTimes: within one trace the self times sum to the root span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "rep", Start: 0, End: 100, Parent: -1, Trace: 1},
		{Name: "run", Start: 5, End: 80, Parent: 0, Trace: 1},
		{Name: "step", Start: 5, End: 40, Parent: 1, Trace: 1},
		{Name: "step", Start: 41, End: 80, Parent: 1, Trace: 1},
		{Name: "gather", Start: 85, End: 95, Parent: 0, Trace: 1},
	}
	self := selfTimes(spans)
	want := []int64{15, 1, 35, 39, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum != spans[0].dur() {
		t.Errorf("self times sum to %d, root lasts %d", sum, spans[0].dur())
	}
	if got := durationsOf(spans, "step", "run"); len(got) != 2 || got[0] != 35 {
		t.Errorf("durationsOf = %v", got)
	}
}

// TestTraceShape checks a real traced run: per trace the self times sum to
// the root, step spans cover nearly all of run, and the export is valid.
func TestTraceShape(t *testing.T) {
	res := quickRun(t, "local2d", 1, true)
	self := selfTimes(res.spans)
	sumByTrace, rootByTrace := map[int]int64{}, map[int]int64{}
	for i, s := range res.spans {
		sumByTrace[s.Trace] += self[i]
		if s.Parent < 0 {
			rootByTrace[s.Trace] += s.dur()
		}
	}
	for id, root := range rootByTrace {
		if sumByTrace[id] != root {
			t.Errorf("trace %d: self times sum to %d, its root spans last %d", id, sumByTrace[id], root)
		}
	}
	if cover := res.Metrics["bench.step_cover_frac"].Value; cover < 0.5 || cover > 1 {
		// The 0.95 of a full-size run does not hold for 48x48 sweeps of
		// a few microseconds; the shape must.
		t.Errorf("step spans cover %v of run", cover)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, res.spans); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil || len(parsed.TraceEvents) != len(res.spans) {
		t.Errorf("chrome trace: %d events for %d spans (%v)", len(parsed.TraceEvents), len(res.spans), err)
	}
}

// TestReferenceCatchesWrongKernel: the plain-loop reference disagrees with
// a run of a different stencil, and agrees with the right one.
func TestReferenceCatchesWrongKernel(t *testing.T) {
	pb := uniform2D(1, 24, 24, 4, abft.Laplace5[float32](0.2))
	if err := pb.checkAgainstReference(); err != nil {
		t.Errorf("right kernel: %v", err)
	}
	wrong := *pb
	wrong.st = abft.Laplace5[float32](0.21)
	p, err := abft.Build(wrong.spec(abft.None))
	if err != nil {
		t.Fatal(err)
	}
	p.Run(referenceSteps)
	if d := relDiff(toFloat64(gridData(p)), pb.reference(referenceSteps)); d < 1e-4 {
		t.Errorf("a 5%% wrong weight moved the result by only %v", d)
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json equal to the tables the
// program reports from.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}
