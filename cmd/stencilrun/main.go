// Command stencilrun applies a named 2-D stencil kernel to a synthetic
// domain under a selectable protection method — a debugging and
// demonstration tool for the library's 2-D path. Every configuration routes
// through the unified Spec/Build factory, so the flags map one-to-one onto
// Spec fields.
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
// The -launch parent merges the children's stats and verifies the gathered
// grid is bit-identical to an in-process single-process reference run (or,
// with -inject, that the corruption was detected and repaired); it exits
// non-zero otherwise, which is what CI gates on.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	abft "stencilabft"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/metrics"
	"stencilabft/internal/resilience"
	"stencilabft/internal/stencil"
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
	tileOut    string

	buddy    int    // buddy checkpoint period j for tcp clusters (0 = off)
	control  string // recovery coordinator address (tcp rank processes)
	recover  bool   // -launch parent: host a coordinator and respawn dead ranks
	epoch    int    // incarnation a tcp rank process joins at (> 0: respawned claimant)
	dieAt    int    // tcp rank process: kill own process after completing this iteration (fault drill)
	die      string // -launch parent: "R@I" routes -die-at I to child rank R (fault drill)
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
	if c.dieAt < 0 {
		return p, fmt.Errorf("-die-at %d: the kill iteration must be positive", c.dieAt)
	}
	if c.epoch < 0 {
		return p, fmt.Errorf("-epoch %d: the incarnation number cannot be negative", c.epoch)
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
		return p, fmt.Errorf("-chaos drills the transport (healed bit-identically) and -inject corrupts the domain (detected and repaired) — run the drills separately so each gate means something")
	}

	if kind == abft.TransportChan {
		switch {
		case c.buddy > 0:
			return p, fmt.Errorf("-buddy mirrors checkpoints between rank processes; the chan transport hosts every rank in one process (use -checkpoint for disk checkpoints)")
		case c.control != "":
			return p, fmt.Errorf("-control joins a tcp rank process to a recovery coordinator; the chan transport has no processes to lose")
		case c.recover:
			return p, fmt.Errorf("-recover respawns dead rank processes under -launch; the chan transport has none")
		case c.ckptDir != "":
			return p, fmt.Errorf("-ckptdir persists each rank process's buddy checkpoints; the chan transport hosts every rank in one process (use -checkpoint)")
		case c.epoch > 0:
			return p, fmt.Errorf("-epoch numbers a tcp rank process's incarnation; the chan transport has no respawns")
		case c.dieAt > 0 || c.die != "":
			return p, fmt.Errorf("-die/-die-at kill a tcp rank process mid-run; the chan transport hosts every rank in-process")
		case c.launch > 0:
			return p, fmt.Errorf("-launch forks a multi-process tcp cluster; it cannot run over the in-process chan transport (drop -transport chan, or drop -launch)")
		case c.rank >= 0:
			return p, fmt.Errorf("-rank names this process's rank under -transport tcp; the chan transport hosts every rank in-process")
		case c.rendezvous != "":
			return p, fmt.Errorf("-rendezvous is the tcp cluster's meeting point; the chan transport needs none")
		case c.bind != "":
			return p, fmt.Errorf("-bind shapes a tcp rank process's data listener; the chan transport opens no sockets")
		case c.tileOut != "":
			return p, fmt.Errorf("-tileout is written by tcp rank processes for the -launch parent to gather; the chan transport gathers in-process")
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
		if c.control != "" {
			return p, fmt.Errorf("-control is wired onto the children by the -launch parent itself (add -recover); hand-started rank processes set it to the coordinator's address")
		}
		if c.epoch > 0 {
			return p, fmt.Errorf("-epoch marks a respawned rank process; the -launch parent sets it when respawning")
		}
		if c.dieAt > 0 {
			return p, fmt.Errorf("-die-at kills one rank process; under -launch name the victim with -die R@I")
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
		if c.tileOut != "" {
			return p, fmt.Errorf("-tileout is set by the -launch parent on its children; don't set it yourself")
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
		return p, fmt.Errorf("-recover is the -launch parent's job (host the coordinator, respawn the dead); a rank process just sets -control")
	}
	if c.soak > 0 {
		return p, fmt.Errorf("-soak repeats whole clusters; run it on the -launch parent (or loop your own launcher), not on one rank process")
	}
	if c.die != "" {
		return p, fmt.Errorf("-die routes a kill through the -launch parent; a rank process kills itself with -die-at I")
	}
	respawned := c.epoch > 0
	if respawned && c.control == "" {
		return p, fmt.Errorf("-epoch %d marks a respawned rank process, which fetches its state and rendezvous from the coordinator: set -control addr", c.epoch)
	}
	if c.control != "" && c.buddy < 1 {
		return p, fmt.Errorf("-control recovers by rolling back to buddy checkpoints; set -buddy j to take them")
	}
	if c.rank < 0 || (c.rendezvous == "" && !respawned) {
		return p, fmt.Errorf("-transport tcp runs one rank per process: set -rank K and -rendezvous host:port (or -launch %d to fork the whole cluster over loopback)", n)
	}
	if c.rank >= n {
		return p, fmt.Errorf("-rank %d outside the %d-rank cluster (-rankgrid %dx%d)", c.rank, n, p.ranksY, p.ranksX)
	}
	if c.dieAt > 0 && c.buddy < 1 {
		return p, fmt.Errorf("-die-at drills a death mid-run; without -buddy checkpoints nothing can recover it")
	}
	if c.buddy > 0 && c.metricsAddr != "" {
		return p, fmt.Errorf("-metrics pins one cluster's counters to an address; a -buddy run rebuilds its cluster across recovery epochs (drop one of them)")
	}
	return p, nil
}

func kernelByName(name string) (*stencil.Stencil[float32], error) {
	switch name {
	case "laplace":
		return stencil.Laplace5[float32](0.2), nil
	case "jacobi4":
		return stencil.Jacobi4[float32](), nil
	case "blur":
		return stencil.BoxBlur[float32](), nil
	case "advect":
		return stencil.Advect2D[float32](0.3, 0.2), nil
	default:
		return nil, fmt.Errorf("unknown kernel %q (want laplace|jacobi4|blur|advect)", name)
	}
}

func boundaryByName(name string) (grid.Boundary, error) {
	switch name {
	case "clamp":
		return grid.Clamp, nil
	case "periodic":
		return grid.Periodic, nil
	case "mirror":
		return grid.Mirror, nil
	case "constant":
		return grid.Constant, nil
	case "zero":
		return grid.Zero, nil
	default:
		return 0, fmt.Errorf("unknown boundary %q (want clamp|periodic|mirror|constant|zero)", name)
	}
}

// domain builds the operator, the deterministically-seeded initial grid and
// the (optional) injection plan. Every process of a tcp cluster calls this
// with the same flags, so every process derives identical state — which is
// what lets each rank carve its tile locally and lets the whole cluster
// route one global injection plan without communicating it.
func (c config) domain() (*abft.Op2D[float32], *abft.Grid[float32], *fault.Plan, error) {
	st, err := kernelByName(c.kernel)
	if err != nil {
		return nil, nil, nil, err
	}
	bc, err := boundaryByName(c.bcName)
	if err != nil {
		return nil, nil, nil, err
	}
	op := &abft.Op2D[float32]{St: st, BC: bc, BCValue: float32(c.bcValue)}

	rng := rand.New(rand.NewSource(c.seed))
	init := abft.New[float32](c.nx, c.ny)
	init.FillFunc(func(x, y int) float32 { return 100 + 50*rng.Float32() })

	var plan *fault.Plan
	if c.inject {
		inj := fault.RandomSingle(rng, c.iters, c.nx, c.ny, 1, 32)
		plan = fault.NewPlan(inj)
		fmt.Printf("injection: %v\n", inj)
	}
	return op, init, plan, nil
}

// spec assembles the Build input for this process's protected run.
func (c config) spec(p plan, op *abft.Op2D[float32], init *abft.Grid[float32], injectPlan *fault.Plan) abft.Spec[float32] {
	spec := abft.Spec[float32]{
		Scheme:     p.scheme,
		Deployment: p.deployment,
		Op2D:       op,
		Init:       init,
		Detector:   abft.Detector[float32]{Epsilon: float32(c.epsilon), AbsFloor: 1},
		Pool:       abft.NewPool(),
		RanksX:     p.ranksX,
		RanksY:     p.ranksY,
		Inject:     injectPlan,
	}
	if p.deployment == abft.Clustered {
		spec.HaloDepth = c.haloDepth
	}
	if p.transport == abft.TransportTCP {
		spec.Transport = abft.TransportTCP
		spec.Rank = c.rank
		spec.Rendezvous = c.rendezvous
		spec.Bind = c.bind
	}
	if p.scheme == abft.Offline {
		spec.Period = c.period
	}
	if p.scheme == abft.Blocked {
		bs := c.blockSize
		if bs <= 0 {
			bs = 64
		}
		spec.BlockX, spec.BlockY = bs, bs
	}
	return spec
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
	flag.StringVar(&c.tileOut, "tileout", "", "write this rank's final tile to a file (set by the -launch parent)")
	flag.IntVar(&c.buddy, "buddy", 0, "mirror each rank's state to a buddy rank every j iterations (tcp clusters; enables fail-stop recovery)")
	flag.StringVar(&c.control, "control", "", "recovery coordinator address this tcp rank process reports faults to (requires -buddy)")
	flag.BoolVar(&c.recover, "recover", false, "host a recovery coordinator and respawn dead rank processes (-launch parent; requires -buddy)")
	flag.IntVar(&c.epoch, "epoch", 0, "cluster incarnation this rank process joins at; > 0 marks a respawned claimant that fetches its state from -control")
	flag.IntVar(&c.dieAt, "die-at", 0, "kill this rank's own process after completing iteration N — a fail-stop fault drill (tcp rank processes)")
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

	p, err := c.resolve()
	if err != nil {
		fail(err)
	}
	// Soak mode: the same run repeated with an advancing chaos seed, every
	// pass fully verified — the long-tail sieve for heal-path races.
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
			if err := runLaunch(cc, p); err != nil {
				fail(err)
			}
			continue
		}
		if err := runProcess(cc, p); err != nil {
			fail(err)
		}
	}
}

// runProcess runs this process's share of the computation: the whole
// domain for local and chan-cluster deployments, or one rank's tile for a
// tcp rank process.
func runProcess(c config, p plan) error {
	op, init, injectPlan, err := c.domain()
	if err != nil {
		return err
	}
	tcpRank := p.transport == abft.TransportTCP

	// Error-free reference for the arithmetic-error report. A tcp rank
	// process skips it: the -launch parent (or the operator) owns the
	// cross-process comparison, and a full-domain run per rank would
	// defeat the point of distributing.
	var ref abft.Protector[float32]
	if !tcpRank {
		ref, err = abft.Build(abft.Spec[float32]{Op2D: op, Init: init})
		if err != nil {
			return err
		}
		ref.Run(c.iters)
	}

	// Restoring resumes the same trajectory the checkpoint was cut from, so
	// the reference above (the full run from the seeded domain) is still the
	// right comparison: a bit-exact resume converges to the same state.
	startIter := 0
	runInit := init
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
		runInit = g
		startIter = iter
		fmt.Printf("restored iteration %d from %s\n", iter, c.restore)
	}

	// Profiling covers exactly the protected run (build through Finalize),
	// not the reference run above or the reporting below, so profiles
	// isolate the hot path under measurement. fail() flushes a started
	// profile before exiting so an error never leaves a truncated file.
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
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
	}

	// Telemetry rides along whenever an observability sink wants it; runs
	// without -trace/-metrics build with a nil collector and pay nothing.
	var tel *abft.Telemetry
	if c.trace != "" || c.metricsAddr != "" {
		tel = abft.NewTelemetry(0)
	}

	harness, err := newChaosHarness(c, p)
	if err != nil {
		return err
	}

	timer := metrics.StartTimer()
	var prot abft.Protector[float32]
	var extra abft.Stats
	if tcpRank && c.buddy > 0 {
		prot, extra, err = runResilient(c, p, op, init, injectPlan, tel, harness)
		if err != nil {
			return err
		}
	} else {
		spec := c.spec(p, op, runInit, injectPlan)
		spec.Telemetry = tel
		harness.apply(&spec)
		prot, err = abft.Build(spec)
		if err != nil {
			return err
		}
		if c.metricsAddr != "" {
			ln, err := serveMetrics(c.metricsAddr, tel, prot)
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
		if err := writeTraceFile(c.trace, tel); err != nil {
			return err
		}
	}

	if c.memProf != "" {
		f, err := os.Create(c.memProf)
		if err != nil {
			return err
		}
		runtime.GC() // settle allocations so the heap profile shows live + cumulative cleanly
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}

	fmt.Printf("stencilrun %s on %dx%d (%s boundaries), %d iterations, scheme=%s deployment=%s transport=%s\n",
		op.St.Name, c.nx, c.ny, op.BC, c.iters, p.scheme, p.deployment, p.transport)
	fmt.Printf("wall time:        %.4fs\n", timer.Seconds())
	if ref != nil {
		fmt.Printf("arithmetic error: %.6g\n", metrics.L2Error(prot.Grid(), ref.Grid()))
	}
	fmt.Printf("protector stats:  %v\n", stats)
	if harness != nil {
		fmt.Printf("chaos: injected %s (plan %s, seed %d)\n", harness.summary(), c.chaos, c.chaosSeed)
		if !tcpRank && ref != nil {
			// Transport chaos must be invisible in the result: every absorbed
			// or healed fault leaves the run bit-identical to the fault-free
			// reference. (A tcp rank process leaves this gate to its -launch
			// parent's cross-process gather comparison.)
			g, rg := prot.Grid(), ref.Grid()
			for y := 0; y < c.ny; y++ {
				for x := 0; x < c.nx; x++ {
					if g.At(x, y) != rg.At(x, y) {
						return fmt.Errorf("chaos run deviates from the fault-free reference at (%d,%d): %v != %v", x, y, g.At(x, y), rg.At(x, y))
					}
				}
			}
			fmt.Println("chaos: result is bit-identical to the fault-free reference")
		}
	}
	if cl, ok := prot.(*abft.Cluster[float32]); ok {
		ids := cl.LocalRanks()
		for i, s := range cl.RankStats() {
			fmt.Printf("  rank %d tile %v: %v\n", ids[i], cl.Tile(ids[i]), s)
		}
		if tcpRank {
			if c.tileOut != "" {
				if err := writeTile(c.tileOut, c.rank, cl.Tile(c.rank), prot.Grid()); err != nil {
					return err
				}
			}
			if err := printChildStats(c.rank, stats); err != nil {
				return err
			}
			if err := cl.Close(); err != nil {
				return err
			}
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

// runResilient is the tcp rank process's fault-tolerant path: the cluster is
// built through a factory so fail-stop recovery can rebuild it per epoch,
// buddy checkpoints flow every -buddy iterations, and with -control a peer
// process's death rolls the run back instead of killing it.
func runResilient(c config, p plan, op *abft.Op2D[float32], init *abft.Grid[float32], injectPlan *fault.Plan, tel *abft.Telemetry, harness *chaosHarness) (abft.Protector[float32], abft.Stats, error) {
	var extra abft.Stats
	// The live cluster, tracked across incarnations so progress lines can
	// report its transport's healing counters.
	var curMu sync.Mutex
	var cur *abft.Cluster[float32]
	factory := func(epoch int, rdv string, localRanks []int, after func(rank, iter int)) (*abft.Cluster[float32], error) {
		hook := after
		if c.dieAt > 0 && epoch == 0 {
			hook = func(r, it int) {
				after(r, it)
				if r == c.rank && it+1 == c.dieAt {
					killSelf()
				}
			}
		}
		spec := c.spec(p, op, init, injectPlan)
		spec.Telemetry = tel
		spec.Rendezvous = rdv
		spec.LocalRanks = localRanks
		spec.AfterStep = hook
		harness.apply(&spec)
		prot, err := abft.Build(spec)
		if err != nil {
			return nil, err
		}
		cl := prot.(*abft.Cluster[float32])
		curMu.Lock()
		cur = cl
		curMu.Unlock()
		return cl, nil
	}
	var genMu sync.Mutex
	cfg := resilience.Config[float32]{
		Total: c.iters, Period: c.buddy, Control: c.control,
		LocalRanks: []int{c.rank}, Factory: factory, Telemetry: tel,
		Rendezvous: c.rendezvous,
		DiskDir:    c.ckptDir,
		OnCheckpoint: func(rank, gen int) {
			// "CHILDGEN rank gen reconnects resends": the healing counters
			// ride each progress line, so a parent diagnosing a death can say
			// how hard the transport fought before losing the process.
			var reconnects, resends int64
			curMu.Lock()
			if cur != nil {
				tm := cur.TransportMetrics()
				reconnects, resends = tm.Reconnects, tm.Resends
			}
			curMu.Unlock()
			genMu.Lock()
			fmt.Printf("%s%d %d %d %d\n", childGenPrefix, rank, gen, reconnects, resends)
			genMu.Unlock()
		},
	}
	if c.epoch > 0 {
		adoption, state, err := resilience.RequestAdoption[float32](c.control, c.rank, 30*time.Second)
		if err != nil {
			return nil, extra, fmt.Errorf("claiming rank %d from the coordinator: %w", c.rank, err)
		}
		cfg.Epoch, cfg.Rendezvous, cfg.StartIter = adoption.Epoch, adoption.Rendezvous, adoption.RestartGen
		if state != nil {
			cfg.InitialState = map[int][]float32{c.rank: state}
		}
		fmt.Printf("respawned as rank %d at epoch %d, resuming from generation %d\n", c.rank, adoption.Epoch, adoption.RestartGen)
	}
	cl, extra, err := resilience.Run(cfg)
	if err != nil {
		return nil, extra, err
	}
	return cl, extra, nil
}

// killSelf delivers an unconditional SIGKILL to this process — the fault
// drill behind -die-at: no deferred cleanup, no goodbye on any socket;
// exactly how a crashed or OOM-killed rank process looks to its peers.
func killSelf() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		p.Kill()
	}
	select {} // unreachable: SIGKILL is not catchable
}

// stopCPUProfile is set while a CPU profile is being collected;
// flushCPUProfile runs it once (from the happy path or from fail).
var stopCPUProfile func()

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
