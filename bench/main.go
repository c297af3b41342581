// Command bench is the repository's benchmark: one command that runs the
// eight workloads of BENCHMARK.json, checks every output against a
// reference and prints every metric by name with its unit. End-to-end
// metrics come from the untraced run (-trace 0); -trace 1 repeats a workload
// with the benchmark's own span recorder on and reports the per-layer
// metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is one run's settings. A workload reads its repetition counts and
// time budgets from here, never from the clock or the flags directly.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool

	tr    *tracer // non-nil exactly when trace is set
	start time.Time
}

// deadline is the instant by which frac of the run's measuring time is used.
func (c *config) deadline(frac float64) time.Time {
	return c.start.Add(time.Duration(frac * c.seconds * float64(time.Second)))
}

// budget is frac of the run's measuring time, as a duration for one probe.
func (c *config) budget(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// minReps is the least number of timed repetitions (or serve batches) a run
// makes however short its time: the untraced medians rest on at least 9,
// the traced run makes a third of that, -quick makes 2.
func (c *config) minReps() int {
	switch {
	case c.quick:
		return 2
	case c.trace:
		return 3
	}
	return 9
}

// setupLoop runs cycle — one fresh set-up, timed by the caller — at least
// setupCycles times and then for as long as setupBudget lasts, so that a
// sub-millisecond set-up rests on a couple of hundred cycles (-quick: 2).
func (c *config) setupLoop(cycle func() error) error {
	start := time.Now()
	for i := 0; i < maxSetupCycles; i++ {
		if c.quick && i >= 2 || i >= setupCycles && time.Since(start) > setupBudget {
			break
		}
		if err := cycle(); err != nil {
			return err
		}
	}
	return nil
}

// runWorkload runs one workload once and returns its finished result.
func runWorkload(w workload, cfg config) *result {
	cfg.start = time.Now()
	if cfg.trace {
		cfg.tr = newTracer()
	}
	res := newResult(w.name, &cfg)
	if err := w.run(&cfg, res); err != nil {
		res.fail("%s: %v", w.name, err)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the run itself; it failed before its first operation
	}
	res.finish()
	res.spans = cfg.tr.snapshot()
	return res
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all eight)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "measuring time per workload")
		trace   = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		out     = flag.String("trace-out", "", "with -trace 1: write the spans as Chrome trace JSON to this file")
		jsonOut = flag.String("json", "", "also write every result, with quartiles and counts, to this file")
		quick   = flag.Bool("quick", false, "tiny sizes, 2 repetitions: a smoke run, its numbers mean nothing")
		aa      = flag.Bool("aa", false, "run the untraced suite twice and compare the medians against the bounds")
		manif   = flag.Bool("manifest", false, "print BENCHMARK.json as the program's tables define it, and exit")
	)
	flag.Parse()
	if *manif {
		printManifest(int(*seconds))
		return
	}
	runtime.GOMAXPROCS(2) // the suite is sized for two busy threads wherever it runs

	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}
	if cfg.quick {
		cfg.seconds = 0 // minimum repetition counts only
	}
	fmt.Printf("# bench seed=%d seconds=%g trace=%d quick=%t nproc=%d GOMAXPROCS=%d %s cpu=%q\n",
		cfg.seed, cfg.seconds, *trace, cfg.quick, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	if *aa {
		cfg.trace = false
		os.Exit(runAA(selected, cfg))
	}

	var results []*result
	var spans []span
	traces := 0
	for _, w := range selected {
		res := runWorkload(w, cfg)
		results = append(results, res)
		printHuman(res)
		// One file for the whole suite: keep span and trace ids unique.
		base, top := len(spans), traces
		for _, s := range res.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Trace += top
			traces = max(traces, s.Trace)
			spans = append(spans, s)
		}
	}
	if *out != "" && cfg.trace {
		if err := writeFile(*out, func(f *os.File) error { return writeChrome(f, spans) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *jsonOut != "" {
		if err := writeFile(*jsonOut, func(f *os.File) error { return json.NewEncoder(f).Encode(results) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	failed := false
	for _, res := range results {
		printContract(res)
		failed = failed || res.Failed > 0
	}
	if failed {
		os.Exit(1)
	}
}

func selectWorkloads(names string) ([]workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, n := range strings.Split(names, ",") {
		found := false
		for _, w := range workloads {
			if w.name == n {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("bench: unknown workload %q", n)
		}
	}
	return out, nil
}

// printHuman prints one aligned line per metric:
// workload metric value unit ±IQR n.
func printHuman(res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		s := res.Metrics[d.Name]
		if s.N == 0 {
			continue // a layer this workload does not exercise; the result line still carries its 0
		}
		fmt.Printf("%-13s %-36s %14.6g %-6s ±%-12.4g n=%d\n", res.Workload, d.Name, s.Value, s.Unit, s.Q3-s.Q1, s.N)
	}
	printSelfTimes(res)
	fmt.Printf("%-13s %-36s %14d %-6s failed=%d\n", res.Workload, "ops", res.Attempted, "count", res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("%-13s FAILED: %s\n", res.Workload, f)
	}
}

// printSelfTimes prints, for a traced run, where the time inside the
// benchmark's spans went: per kind of span the summed self time (duration
// minus what child spans cover) and its share of all root spans. The self
// times of a trace sum to its root, so the shares sum to 1.
func printSelfTimes(res *result) {
	if len(res.spans) == 0 {
		return
	}
	self := selfTimes(res.spans)
	byName := map[string]int64{}
	var names []string
	var roots int64
	for i, s := range res.spans {
		name, _, _ := strings.Cut(s.Name, ":") // "run:online" → "run": sum over runners
		if _, seen := byName[name]; !seen {
			names = append(names, name)
		}
		byName[name] += self[i]
		if s.Parent < 0 {
			roots += s.dur()
		}
	}
	for _, n := range names {
		fmt.Printf("%-13s %-36s %14.3f %-6s share %.4f\n", res.Workload, "self:"+n, float64(byName[n])/1e6, "ms", float64(byName[n])/float64(roots))
	}
}

// printContract prints the result line the benchmark's driver reads: one
// JSON object with exactly the keys correct, attempted, failed and metrics.
func printContract(res *result) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]mv{}}
	for name, s := range res.Metrics {
		line.Metrics[name] = mv{s.Value, s.Unit}
	}
	b, _ := json.Marshal(line) // a struct of numbers and strings cannot fail to marshal
	fmt.Println(string(b))
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel reads the processor name for the header line; best effort.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runAA runs the untraced suite twice and prints, per workload and
// end-to-end metric, both medians, how much worse the second is and the
// bound. It returns the process exit code: 1 when a pair disagrees by more
// than its bound or an operation failed.
func runAA(selected []workload, cfg config) int {
	code := 0
	for _, w := range selected {
		a, b := runWorkload(w, cfg), runWorkload(w, cfg)
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.Bound || -worse > d.Bound {
				verdict, code = "OUTSIDE BOUND", 1
			}
			fmt.Printf("%-13s %-10s first %12.6g  second %12.6g  %s  diff %+7.2f%%  bound %4.1f%%  %s\n",
				w.name, d.Name, va, vb, d.Unit, 100*worse, 100*d.Bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-13s FAILED operations: %d + %d %v %v\n", w.name, a.Failed, b.Failed, a.Failures, b.Failures)
			code = 1
		}
	}
	return code
}

// printManifest renders BENCHMARK.json from the tables in metrics.go and
// workloads.go, so the file at the repository root is generated, not typed.
func printManifest(runSeconds int) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"go", "run", "-C", "bench", "."}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	b, _ := json.MarshalIndent(m, "", "  ") // a struct of numbers and strings cannot fail to marshal
	fmt.Println(string(b))
}
