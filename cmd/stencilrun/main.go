// Command stencilrun applies a named 2-D stencil kernel to a synthetic
// domain under a selectable protection method — a debugging and
// demonstration tool for the library's 2-D path. The flags render as one
// wire-form Spec document (config.wire) that every role — the reference
// run, the local or chan-cluster run, every tcp rank — resolves through the
// unified SpecFromWire/Build factory.
//
// Usage:
//
//	stencilrun -kernel laplace -nx 256 -ny 256 -iters 100 -abft online
//	stencilrun -kernel advect -bc constant -bcvalue 25 -inject
//	stencilrun -abft blocked -blocksize 64
//	stencilrun -ranks 4 -inject
//	stencilrun -rankgrid 2x3 -inject
//
// Multi-process clusters (the tcp transport): every rank is a real OS
// process. Either fork a whole cluster over loopback in one command:
//
//	stencilrun -launch 4 -rankgrid 2x2 -inject
//
// or start each rank process by hand (on one host or several), meeting at
// a rendezvous address served by rank 0's process:
//
//	stencilrun -rankgrid 2x2 -transport tcp -rank 0 -rendezvous host:9777 &
//	stencilrun -rankgrid 2x2 -transport tcp -rank 1 -rendezvous host:9777 &
//	...
//
// The -launch parent's children are pool workers (this binary under -worker,
// speaking internal/serve's worker protocol); it merges their stats and
// verifies the gathered grid is bit-identical to an in-process
// single-process reference run — with -inject, first that the corruption
// was detected and repaired, and then the same: a repaired point is
// recomputed from the intact previous iteration. It exits non-zero
// otherwise, which is what CI gates on.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	abft "stencilabft"
	"stencilabft/internal/chaos"
	"stencilabft/internal/fault"
	"stencilabft/internal/metrics"
	"stencilabft/internal/resilience"
	"stencilabft/internal/serve"
)

// config holds the raw flag values; plan (via config.resolve) is the
// validated run description derived from them. Keeping resolve a pure
// function of config is what makes the flag-combination rules unit-testable.
type config struct {
	nx, ny, iters int
	kernel        string
	bcName        string
	bcValue       float64
	mode          string
	period        int
	epsilon       float64
	inject        bool
	seed          int64
	blockSize     int

	ranks     int
	rankGrid  string
	haloDepth int // exchange k-deep halos every k iterations (cluster deployments)

	transport  string // "" = auto: tcp when -rank/-rendezvous/-launch appear, else chan
	rank       int    // -1 = unset
	rendezvous string
	bind       string
	launch     int
	worker     bool // pool-worker role: serve jobs on stdin/stdout (the -launch children)

	buddy    int    // buddy checkpoint period j for tcp clusters (0 = off)
	recover  bool   // -launch parent: host a coordinator and respawn dead ranks
	die      string // -launch parent: "R@I" kills child rank R's process after iteration I (fault drill)
	ckptPath string // disk checkpoint base path (local and chan deployments)
	ckptEach int    // disk checkpoint interval (0 = one checkpoint at the end)
	restore  string // resume from the newest checkpoint under this base path
	ckptDir  string // shared per-rank checkpoint directory (tcp clusters; double-death fallback)

	chaos     string // chaos fault-plan file (cluster deployments)
	chaosSeed int64  // chaos injection seed
	soak      int    // repeat the whole run N times, advancing the chaos seed each pass

	cpuProf, memProf string

	trace       string // write a Chrome trace-event timeline to this file
	metricsAddr string // serve expvar, pprof and Prometheus text on this address
}

// plan is the resolved, validated run: which scheme runs where, over which
// rank grid, through which transport, and in which process role.
type plan struct {
	scheme         abft.Scheme
	deployment     abft.Deployment
	ranksX, ranksY int // 0x0 for local deployments
	transport      abft.TransportKind
	launch         bool // parent role: fork the cluster and merge
	dieRank        int  // -die target rank (meaningful when dieIter > 0)
	dieIter        int  // -die target iteration; 0 = no fault drill scheduled
}

// parseDie parses the -die value "R@I": kill rank R's process once it
// completes iteration I.
func parseDie(s string) (rank, iter int, err error) {
	r, i, ok := strings.Cut(s, "@")
	if ok {
		rank, errR := strconv.Atoi(r)
		iter, errI := strconv.Atoi(i)
		if errR == nil && errI == nil {
			return rank, iter, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid -die %q (want R@I, e.g. 3@50: kill rank 3's process after iteration 50)", s)
}

// parseRankGrid parses the -rankgrid value "RxC" (R rank rows splitting the
// domain's y axis by C rank columns splitting x) into its two factors.
func parseRankGrid(s string) (rows, cols int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) == 2 {
		rows, errR := strconv.Atoi(parts[0])
		cols, errC := strconv.Atoi(parts[1])
		if errR == nil && errC == nil {
			return rows, cols, nil
		}
	}
	return 0, 0, fmt.Errorf("invalid -rankgrid %q (want RxC, e.g. 2x3 for 2 rank rows by 3 rank columns)", s)
}

// resolve validates the flag combination up front — every tcp/launch
// misconfiguration fails here with an actionable message, before any
// socket is opened or child process forked.
func (c config) resolve() (plan, error) {
	var p plan

	scheme, err := abft.ParseScheme(c.mode)
	if err != nil {
		return p, err
	}
	if c.blockSize > 0 {
		switch scheme {
		case abft.Online:
			scheme = abft.Blocked // historical shorthand: -blocksize alone selects tiling
		case abft.Blocked:
		default:
			return p, fmt.Errorf("-blocksize applies to the blocked scheme only (got -abft %s)", scheme)
		}
	}
	p.scheme = scheme

	// Rank-grid shape.
	p.deployment = abft.Local
	switch {
	case c.rankGrid != "" && c.ranks > 0:
		return p, fmt.Errorf("-ranks is the Nx1 shorthand for -rankgrid; set one of them, not both")
	case c.rankGrid != "":
		rows, cols, err := parseRankGrid(c.rankGrid)
		if err != nil {
			return p, err
		}
		p.ranksX, p.ranksY = cols, rows
		p.deployment = abft.Clustered
	case c.ranks > 0:
		p.ranksX, p.ranksY = 1, c.ranks
		p.deployment = abft.Clustered
	}

	// Depth-k ghost zones: a cluster-only communication-avoiding schedule.
	switch {
	case c.haloDepth < 1:
		return p, fmt.Errorf("-halodepth %d: the ghost-zone depth must be at least 1 (1 = exchange every iteration)", c.haloDepth)
	case c.haloDepth > 1 && p.deployment != abft.Clustered:
		return p, fmt.Errorf("-halodepth %d trades halo exchanges between ranks for redundant boundary recomputation; shape a cluster with -rankgrid RxC (or -ranks N)", c.haloDepth)
	}

	if c.launch < 0 {
		return p, fmt.Errorf("-launch %d: the process count must be positive", c.launch)
	}

	// Transport: explicit flag, or inferred from the tcp-only flags.
	wantsTCP := c.rank >= 0 || c.rendezvous != "" || c.launch > 0
	name := c.transport
	if name == "" {
		if wantsTCP {
			name = string(abft.TransportTCP)
		} else {
			name = string(abft.TransportChan)
		}
	}
	kind, err := abft.ParseTransport(name)
	if err != nil {
		return p, err
	}
	p.transport = kind

	// Disk checkpointing: whole-domain saves, so a single-process concern.
	if c.ckptEach < 0 {
		return p, fmt.Errorf("-ckptperiod %d: the checkpoint interval must be positive", c.ckptEach)
	}
	if c.ckptEach > 0 && c.ckptPath == "" {
		return p, fmt.Errorf("-ckptperiod sets how often -checkpoint saves; set -checkpoint path too")
	}
	if c.restore != "" && c.inject {
		return p, fmt.Errorf("-restore resumes a finished run's trajectory; -inject schedules faults relative to a fresh run — combine them and the injection lands at a different point than it names")
	}
	if c.buddy < 0 {
		return p, fmt.Errorf("-buddy %d: the checkpoint period must be positive", c.buddy)
	}
	if c.buddy > 0 && c.haloDepth > 1 && c.buddy%c.haloDepth != 0 {
		k := c.haloDepth
		return p, fmt.Errorf("-buddy %d is not a multiple of -halodepth %d: restores must land on halo-exchange boundaries (use -buddy %d)",
			c.buddy, k, ((c.buddy+k-1)/k)*k)
	}
	if c.soak < 0 {
		return p, fmt.Errorf("-soak %d: the pass count must be positive", c.soak)
	}
	if c.soak > 0 && c.chaos == "" {
		return p, fmt.Errorf("-soak repeats a run under a chaos plan; set -chaos plan.json")
	}
	if c.chaos != "" && p.deployment != abft.Clustered {
		return p, fmt.Errorf("-chaos injects faults into a cluster's transport; shape one with -rankgrid RxC (or -ranks N)")
	}
	if c.chaos != "" && c.inject {
		return p, fmt.Errorf("-chaos drills the transport (absorbed, or recovered under -buddy) and -inject corrupts the domain (detected and repaired) — run the drills separately so each gate means something")
	}

	if kind == abft.TransportChan {
		switch {
		case c.buddy > 0:
			return p, fmt.Errorf("-buddy mirrors checkpoints between rank processes; the chan transport hosts every rank in one process (use -checkpoint for disk checkpoints)")
		case c.recover:
			return p, fmt.Errorf("-recover respawns dead rank processes under -launch; the chan transport has none")
		case c.ckptDir != "":
			return p, fmt.Errorf("-ckptdir persists each rank process's buddy checkpoints; the chan transport hosts every rank in one process (use -checkpoint)")
		case c.die != "":
			return p, fmt.Errorf("-die kills a tcp rank process mid-run; the chan transport hosts every rank in-process")
		case c.launch > 0:
			return p, fmt.Errorf("-launch forks a multi-process tcp cluster; it cannot run over the in-process chan transport (drop -transport chan, or drop -launch)")
		case c.rank >= 0:
			return p, fmt.Errorf("-rank names this process's rank under -transport tcp; the chan transport hosts every rank in-process")
		case c.rendezvous != "":
			return p, fmt.Errorf("-rendezvous is the tcp cluster's meeting point; the chan transport needs none")
		case c.bind != "":
			return p, fmt.Errorf("-bind shapes a tcp rank process's data listener; the chan transport opens no sockets")
		}
		return p, nil
	}

	// tcp from here on.
	if p.deployment != abft.Clustered {
		return p, fmt.Errorf("-transport tcp deploys a cluster: set -rankgrid RxC (or -ranks N) to shape it")
	}
	if p.scheme != abft.Online {
		return p, fmt.Errorf("the cluster deployment protects with the online scheme only (got -abft %s)", p.scheme)
	}
	n := p.ranksX * p.ranksY
	if c.ckptPath != "" || c.restore != "" {
		return p, fmt.Errorf("-checkpoint/-restore save and load the whole domain from one process; a tcp cluster checkpoints through -buddy (and survives deaths with -recover)")
	}
	if c.ckptDir != "" && c.buddy < 1 {
		return p, fmt.Errorf("-ckptdir persists buddy checkpoints to disk; set -buddy j to take them")
	}
	if c.launch > 0 {
		if c.rank >= 0 {
			return p, fmt.Errorf("-launch is the parent role (fork every rank); -rank is the child role (be one rank) — set one, not both")
		}
		if c.recover && c.buddy < 1 {
			return p, fmt.Errorf("-recover rolls dead ranks back to a buddy checkpoint; set -buddy j to take them")
		}
		if c.die != "" {
			r, i, err := parseDie(c.die)
			if err != nil {
				return p, err
			}
			if r < 0 || r >= n {
				return p, fmt.Errorf("-die %s targets rank %d outside the %d-rank cluster (-rankgrid %dx%d)", c.die, r, n, p.ranksY, p.ranksX)
			}
			if i < 1 {
				return p, fmt.Errorf("-die %s: the kill iteration must be >= 1", c.die)
			}
			p.dieRank, p.dieIter = r, i
		}
		if c.bind != "" {
			return p, fmt.Errorf("-launch forks its cluster over loopback; -bind is for hand-started rank processes spanning hosts")
		}
		if c.launch != n {
			return p, fmt.Errorf("-launch %d must match the rank grid: -rankgrid %dx%d needs %d processes", c.launch, p.ranksY, p.ranksX, n)
		}
		if c.metricsAddr != "" {
			return p, fmt.Errorf("-metrics serves one process's counters; the -launch children would collide on the address (start rank processes by hand, each with its own -metrics)")
		}
		p.launch = true
		return p, nil
	}
	if c.recover {
		return p, fmt.Errorf("-recover is the -launch parent's job (host the coordinator, respawn the dead); a hand-started rank process has neither")
	}
	if c.soak > 0 {
		return p, fmt.Errorf("-soak repeats whole clusters; run it on the -launch parent (or loop your own launcher), not on one rank process")
	}
	if c.die != "" {
		return p, fmt.Errorf("-die routes a kill through the -launch parent, whose coordinator recovers it (-launch N -recover -die R@I)")
	}
	if c.rank < 0 || c.rendezvous == "" {
		return p, fmt.Errorf("-transport tcp runs one rank per process: set -rank K and -rendezvous host:port (or -launch %d to fork the whole cluster over loopback)", n)
	}
	if c.rank >= n {
		return p, fmt.Errorf("-rank %d outside the %d-rank cluster (-rankgrid %dx%d)", c.rank, n, p.ranksY, p.ranksX)
	}
	if c.buddy > 0 && c.metricsAddr != "" {
		return p, fmt.Errorf("-metrics pins one cluster's counters to an address; a -buddy run rebuilds its cluster across recovery epochs (drop one of them)")
	}
	return p, nil
}

// kernelNames maps the -kernel names onto the wire stencil registry, whose
// default args are the coefficients this tool has always run with.
var kernelNames = map[string]string{"laplace": "laplace5", "jacobi4": "jacobi4", "blur": "box9", "advect": "advect2d"}

// wire renders the flags as the canonical wire-form Spec: the operator, the
// seeded initial grid (generator "uniform"), the scheme and rank grid, and
// the (optional) injection. Every process of a tcp cluster resolves the same
// document, so every process derives identical state — which is what lets
// each rank carve its tile locally and lets the whole cluster route one
// global injection plan without communicating it.
func (c config) wire(p plan) (*abft.WireSpec, error) {
	name, ok := kernelNames[c.kernel]
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q (want laplace|jacobi4|blur|advect)", c.kernel)
	}
	w := &abft.WireSpec{
		Elem:       "float32",
		Scheme:     string(p.scheme),
		Deployment: string(p.deployment),
		Stencil:    &abft.WireStencil{Name: name},
		BC:         c.bcName,
		BCValue:    c.bcValue,
		Grid:       &abft.WireGrid{Nx: c.nx, Ny: c.ny, Generator: "uniform", Seed: c.seed},
		Epsilon:    c.epsilon,
		AbsFloor:   1,
		RanksX:     p.ranksX,
		RanksY:     p.ranksY,
	}
	if p.deployment == abft.Clustered {
		w.HaloDepth = c.haloDepth
	}
	if p.scheme == abft.Offline {
		w.Period = c.period
	}
	if p.scheme == abft.Blocked {
		bs := c.blockSize
		if bs <= 0 {
			bs = 64
		}
		w.BlockX, w.BlockY = bs, bs
	}
	if c.inject {
		if c.iters < 1 || c.nx < 1 || c.ny < 1 {
			return nil, fmt.Errorf("-inject needs a positive -iters and domain to draw the flip from")
		}
		// The flip is drawn from its own stream of the seed, not from
		// whatever the grid fill left of one.
		inj := fault.RandomSingle(rand.New(rand.NewSource(c.seed)), c.iters, c.nx, c.ny, 1, 32)
		w.Inject = []abft.WireInjection{{Iteration: inj.Iteration, X: inj.X, Y: inj.Y, Bit: inj.Bit}}
		fmt.Printf("injection: %v\n", inj)
	}
	return w, nil
}

// reference runs the single-process error-free trajectory of spec's operator
// and seeded domain — what every protected or distributed run is compared
// against.
func reference(spec abft.Spec[float32], iters int) (*abft.Grid[float32], error) {
	ref, err := abft.Build(abft.Spec[float32]{Op2D: spec.Op2D, Init: spec.Init})
	if err != nil {
		return nil, err
	}
	ref.Run(iters)
	return ref.Grid(), nil
}

// sameAsReference is the single-process bit-identity gate: it reports the
// first point where the run's grid deviates from the fault-free reference.
func sameAsReference(what string, g, ref *abft.Grid[float32]) error {
	if x, y, differ := firstDiff(g, ref); differ {
		return fmt.Errorf("%s: run deviates from the fault-free reference at (%d,%d): %v != %v", what, x, y, g.At(x, y), ref.At(x, y))
	}
	fmt.Printf("%s: result is bit-identical to the fault-free reference\n", what)
	return nil
}

// firstDiff finds the first point where g and ref differ.
func firstDiff(g, ref *abft.Grid[float32]) (x, y int, differ bool) {
	for i, v := range g.Data() {
		if v != ref.Data()[i] {
			x, y = g.Coords(i)
			return x, y, true
		}
	}
	return 0, 0, false
}

func main() {
	var c config
	flag.IntVar(&c.nx, "nx", 256, "domain width")
	flag.IntVar(&c.ny, "ny", 256, "domain height")
	flag.IntVar(&c.iters, "iters", 100, "iterations")
	flag.StringVar(&c.kernel, "kernel", "laplace", "laplace|jacobi4|blur|advect")
	flag.StringVar(&c.bcName, "bc", "clamp", "clamp|periodic|mirror|constant|zero")
	flag.Float64Var(&c.bcValue, "bcvalue", 0, "ghost value for -bc constant")
	flag.StringVar(&c.mode, "abft", "online", "none|online|offline|blocked")
	flag.IntVar(&c.period, "period", 16, "offline detection period")
	flag.Float64Var(&c.epsilon, "epsilon", 1e-5, "detection threshold")
	flag.BoolVar(&c.inject, "inject", false, "inject a single random bit-flip")
	flag.Int64Var(&c.seed, "seed", 1, "seed")
	flag.IntVar(&c.blockSize, "blocksize", 0, "tile edge for -abft blocked (with -abft online, implies blocked)")
	flag.IntVar(&c.ranks, "ranks", 0, "decompose over N simulated rank row-bands: alias for -rankgrid Nx1 (cluster deployment, online scheme)")
	flag.StringVar(&c.rankGrid, "rankgrid", "", "decompose over an RxC Cartesian rank grid, e.g. 2x3 (cluster deployment, online scheme)")
	flag.IntVar(&c.haloDepth, "halodepth", 1, "exchange k-deep halos every k iterations, recomputing boundary shells locally in between (cluster deployments; 1 = classic exchange every iteration)")
	flag.StringVar(&c.transport, "transport", "", "cluster communication backend: chan (in-process, default) or tcp (one rank per OS process)")
	flag.IntVar(&c.rank, "rank", -1, "the rank this process hosts (-transport tcp)")
	flag.StringVar(&c.rendezvous, "rendezvous", "", "host:port the tcp cluster's processes meet at (rank 0's process serves it)")
	flag.StringVar(&c.bind, "bind", "", "address this rank's tcp data listener binds and advertises (default 127.0.0.1:0; bind a routable interface, e.g. 10.0.0.5:0, for multi-host clusters)")
	flag.IntVar(&c.launch, "launch", 0, "fork N rank processes over loopback, merge their stats and verify the gathered grid (implies -transport tcp)")
	flag.BoolVar(&c.worker, "worker", false, "run as a pool worker on stdin/stdout (internal: what the -launch parent forks)")
	flag.IntVar(&c.buddy, "buddy", 0, "mirror each rank's state to a buddy rank every j iterations (tcp clusters; enables fail-stop recovery)")
	flag.BoolVar(&c.recover, "recover", false, "host a recovery coordinator and respawn dead rank processes (-launch parent; requires -buddy)")
	flag.StringVar(&c.die, "die", "", "fault drill under -launch: R@I kills rank R's process after iteration I (pair with -recover to survive it)")
	flag.StringVar(&c.ckptPath, "checkpoint", "", "write disk checkpoints of the whole domain under this base path (single-process runs; see -ckptperiod)")
	flag.IntVar(&c.ckptEach, "ckptperiod", 0, "iterations between -checkpoint saves (default: one checkpoint when the run finishes)")
	flag.StringVar(&c.restore, "restore", "", "resume from the newest valid checkpoint under this base path (or an exact checkpoint file)")
	flag.StringVar(&c.ckptDir, "ckptdir", "", "shared directory where each tcp rank process also persists its buddy checkpoints — the whole-cluster fallback a buddy-pair double death restores from (requires -buddy; with -launch -recover the coordinator escalates to it)")
	flag.StringVar(&c.chaos, "chaos", "", "inject transport faults from this JSON plan (cluster deployments; wire-level faults need -transport tcp)")
	flag.Int64Var(&c.chaosSeed, "chaosseed", 1, "seed for -chaos injection: the same plan, seed and workload replays the same faults")
	flag.IntVar(&c.soak, "soak", 0, "repeat the whole run N times under -chaos, advancing the chaos seed each pass; every pass must verify")
	flag.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the protected run to this file (go tool pprof; a -launch parent forwards it to each child with a .rankN suffix)")
	flag.StringVar(&c.memProf, "memprofile", "", "write a heap profile taken after the protected run to this file (forwarded per child under -launch, .rankN suffix)")
	flag.StringVar(&c.trace, "trace", "", "write a Chrome trace-event timeline of the run to this file (open in chrome://tracing or ui.perfetto.dev; a -launch parent merges its children's timelines)")
	flag.StringVar(&c.metricsAddr, "metrics", "", "serve live observability on this address while the run executes: Prometheus text at /metrics, expvar at /debug/vars, pprof at /debug/pprof/")
	flag.Parse()

	if c.worker {
		if err := runWorker(c); err != nil {
			fail(err)
		}
		return
	}
	p, err := c.resolve()
	if err != nil {
		fail(err)
	}
	// Soak mode: the same run repeated with an advancing chaos seed, every
	// pass fully verified — the long-tail sieve for fault-path races.
	passes := 1
	if c.soak > 0 {
		passes = c.soak
	}
	for s := 0; s < passes; s++ {
		cc := c
		cc.chaosSeed = c.chaosSeed + int64(s)
		if passes > 1 {
			fmt.Printf("soak: pass %d/%d (chaos seed %d)\n", s+1, passes, cc.chaosSeed)
		}
		if p.launch {
			err = runLaunch(cc, p, launchWorkers(cc))
		} else {
			err = runProcess(cc, p)
		}
		if err != nil {
			fail(err)
		}
	}
}

// runWorker is the -worker role: serve placed jobs from the -launch parent
// until it closes stdin. Profiles cover the worker's whole life.
func runWorker(c config) error {
	if err := startCPUProfile(c.cpuProf); err != nil {
		return err
	}
	if err := serve.WorkerMain(os.Stdin, os.Stdout); err != nil {
		return err
	}
	flushCPUProfile()
	return writeHeapProfile(c.memProf)
}

// runProcess runs this process's share of the computation: the whole
// domain for local and chan-cluster deployments, or one rank's tile for a
// hand-started tcp rank process.
func runProcess(c config, p plan) error {
	w, err := c.wire(p)
	if err != nil {
		return err
	}
	spec, err := abft.SpecFromWire[float32](w)
	if err != nil {
		return err
	}
	tcpRank := p.transport == abft.TransportTCP

	// Error-free reference for the arithmetic-error report. A tcp rank
	// process skips it: the operator owns the cross-process comparison, and
	// a full-domain run per rank would defeat the point of distributing.
	var ref *abft.Grid[float32]
	if !tcpRank {
		if ref, err = reference(spec, c.iters); err != nil {
			return err
		}
	}

	// Restoring resumes the same trajectory the checkpoint was cut from, so
	// the reference above (the full run from the seeded domain) is still the
	// right comparison: a bit-exact resume converges to the same state.
	startIter := 0
	if c.restore != "" {
		g, _, iter, err := resilience.LoadLatest[float32](c.restore)
		if err != nil {
			return err
		}
		if g.Nx() != c.nx || g.Ny() != c.ny {
			return fmt.Errorf("checkpoint under %s is a %dx%d domain; this run is %dx%d", c.restore, g.Nx(), g.Ny(), c.nx, c.ny)
		}
		if iter > c.iters {
			return fmt.Errorf("checkpoint under %s is at iteration %d, past -iters %d", c.restore, iter, c.iters)
		}
		spec.Init = g
		startIter = iter
		fmt.Printf("restored iteration %d from %s\n", iter, c.restore)
	}

	// Profiling covers exactly the protected run (build through Finalize),
	// not the reference run above or the reporting below, so profiles
	// isolate the hot path under measurement. fail() flushes a started
	// profile before exiting so an error never leaves a truncated file.
	if err := startCPUProfile(c.cpuProf); err != nil {
		return err
	}

	// The process-local knobs the document excludes. Telemetry rides along
	// whenever an observability sink wants it; runs without -trace/-metrics
	// build with a nil collector and pay nothing.
	spec.Pool = abft.NewPool()
	defer spec.Pool.Close()
	if c.trace != "" || c.metricsAddr != "" {
		spec.Telemetry = abft.NewTelemetry(0)
	}
	if tcpRank {
		spec.Transport, spec.Rank, spec.Rendezvous, spec.Bind = abft.TransportTCP, c.rank, c.rendezvous, c.bind
	}
	var harness *serve.ChaosHarness
	if c.chaos != "" {
		cp, err := chaos.Load(c.chaos)
		if err != nil {
			return err
		}
		if harness, err = serve.NewChaosHarness(cp, c.chaosSeed, tcpRank); err != nil {
			return err
		}
		serve.ApplyChaos(harness, &spec)
	}

	timer := metrics.StartTimer()
	var prot abft.Protector[float32]
	var extra abft.Stats
	if tcpRank && c.buddy > 0 {
		place := serve.Placement{Rank: c.rank, Rendezvous: c.rendezvous, Buddy: c.buddy, CkptDir: c.ckptDir}
		if prot, extra, err = serve.RunResilient(spec, place, c.iters, nil); err != nil {
			return err
		}
	} else {
		if prot, err = abft.Build(spec); err != nil {
			return err
		}
		if c.metricsAddr != "" {
			ln, err := serveMetrics(c.metricsAddr, spec.Telemetry, prot)
			if err != nil {
				return err
			}
			defer ln.Close()
		}
		if err := runChunked(prot, c, startIter); err != nil {
			return err
		}
	}
	prot.Finalize()
	flushCPUProfile()
	stats := prot.Stats().Merge(extra)

	if c.trace != "" {
		if err := writeTraceFile(c.trace, spec.Telemetry); err != nil {
			return err
		}
	}
	if err := writeHeapProfile(c.memProf); err != nil {
		return err
	}

	fmt.Printf("stencilrun %s on %dx%d (%s boundaries), %d iterations, scheme=%s deployment=%s transport=%s\n",
		spec.Op2D.St.Name, c.nx, c.ny, spec.Op2D.BC, c.iters, p.scheme, p.deployment, p.transport)
	fmt.Printf("wall time:        %.4fs\n", timer.Seconds())
	if ref != nil {
		fmt.Printf("arithmetic error: %.6g\n", metrics.L2Error(prot.Grid(), ref))
	}
	fmt.Printf("protector stats:  %v\n", stats)
	if harness != nil {
		fmt.Printf("chaos: injected %s (plan %s, seed %d)\n", harness.Summary(), c.chaos, c.chaosSeed)
		if ref != nil {
			// Transport chaos must be invisible in the result: every absorbed
			// fault leaves the run bit-identical to the fault-free reference,
			// and one that is not fails the run. (A tcp rank process has no
			// reference; the gate is its operator's cross-process gather
			// comparison.)
			if err := sameAsReference("chaos", prot.Grid(), ref); err != nil {
				return err
			}
		}
	}
	// So must a repaired flip be: the point is recomputed from the intact
	// previous iteration, not estimated.
	if c.inject && ref != nil && stats.CorrectedPoints > 0 {
		if err := sameAsReference("injection repaired", prot.Grid(), ref); err != nil {
			return err
		}
	}
	if cl, ok := prot.(*abft.Cluster[float32]); ok {
		ids := cl.LocalRanks()
		for i, s := range cl.RankStats() {
			fmt.Printf("  rank %d tile %v: %v\n", ids[i], cl.Tile(ids[i]), s)
		}
		if tcpRank {
			return cl.Close()
		}
	}
	return nil
}

// runChunked drives the protected run to -iters, cutting it at every
// absolute multiple of the disk-checkpoint period when -checkpoint is set so
// each boundary's domain state lands in the rotation files. Under -chaos a
// cluster runs through RunRecover so an injected fault the transport cannot
// absorb ends as a classified error naming the edge, never a panic.
func runChunked(prot abft.Protector[float32], c config, startIter int) error {
	step := func(n int) error {
		if cl, ok := prot.(*abft.Cluster[float32]); ok && c.chaos != "" {
			return cl.RunRecover(n)
		}
		prot.Run(n)
		return nil
	}
	if c.ckptPath == "" {
		return step(c.iters - startIter)
	}
	saver := resilience.NewDiskSaver[float32](c.ckptPath)
	period := c.ckptEach
	if period <= 0 {
		period = c.iters // one checkpoint when the run finishes
	}
	for done := startIter; done < c.iters; {
		next := done - done%period + period
		if next > c.iters {
			next = c.iters
		}
		if err := step(next - done); err != nil {
			return err
		}
		done = next
		if err := saver.Save(done, prot.Grid(), nil); err != nil {
			return err
		}
		fmt.Printf("checkpoint: iteration %d saved under %s\n", done, c.ckptPath)
	}
	return nil
}

// stopCPUProfile is set while a CPU profile is being collected;
// flushCPUProfile runs it once (from the happy path or from fail).
var stopCPUProfile func()

// startCPUProfile starts profiling into path ("" = no profile).
func startCPUProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	stopCPUProfile = func() {
		pprof.StopCPUProfile()
		f.Close()
	}
	return nil
}

// writeHeapProfile writes a heap profile to path ("" = none).
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	return writeFile(path, func(w io.Writer) error {
		runtime.GC() // settle allocations so the heap profile shows live + cumulative cleanly
		return pprof.WriteHeapProfile(w)
	})
}

func flushCPUProfile() {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
}

func fail(err error) {
	flushCPUProfile()
	fmt.Fprintln(os.Stderr, "stencilrun:", err)
	os.Exit(1)
}
