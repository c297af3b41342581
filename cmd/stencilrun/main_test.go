package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	abft "stencilabft"
	"stencilabft/internal/leakcheck"
	"stencilabft/internal/serve"
	"stencilabft/internal/telemetry"
)

// TestMain lets this test binary double as a -launch child: re-exec'd with
// STENCILRUN_WORKER=1 it serves the worker protocol on stdin/stdout, as
// stencilrun -worker does. Otherwise it runs the tests under leakcheck.
func TestMain(m *testing.M) {
	if os.Getenv("STENCILRUN_WORKER") == "1" {
		if err := serve.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	leakcheck.Main(m)
}

// TestLaunch drives the -launch parent over real rank processes on a 2x2
// grid. runLaunch's own gates are the assertions: it returns an error
// unless the gathered grid is bit-identical to the single-process
// reference — after an injected flip was detected and repaired, too — and
// a -die drill killed a process and the merged stats record a recovery.
func TestLaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("forks rank processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	start := serve.ProcessWorkers(exe, []string{"STENCILRUN_WORKER=1"})
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"clamp", func(c *config) {}},
		{"periodic advection", func(c *config) { c.bcName = "periodic"; c.kernel = "advect" }},
		{"constant boundary, depth-2 halos", func(c *config) { c.bcName = "constant"; c.bcValue = 25; c.haloDepth = 2 }},
		{"injected flip detected and repaired bit-identically", func(c *config) { c.inject = true; c.seed = 32 }},
		{"merged trace", func(c *config) { c.trace = tracePath }},
		{"rank 3 killed at iteration 20 and recovered", func(c *config) {
			c.iters = 48
			c.recover = true
			c.buddy = 8
			c.die = "3@20"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			c.nx, c.ny, c.iters = 96, 96, 40
			c.rankGrid, c.launch = "2x2", 4
			tc.mut(&c)
			p, err := c.resolve()
			if err != nil {
				t.Fatal(err)
			}
			if err := runLaunch(c, p, start); err != nil {
				t.Fatal(err)
			}
			if c.trace == "" {
				return
			}
			f, err := os.Open(c.trace)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tf, err := telemetry.ParseTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			if lanes := tf.RankLanes(); len(lanes) != 4 {
				t.Fatalf("merged trace carries rank lanes %v, want 4", lanes)
			}
		})
	}
}

// TestLaunchReportsAFailedRank: without -recover the first rank failure
// ends the launch with that rank's error.
func TestLaunchReportsAFailedRank(t *testing.T) {
	if testing.Short() {
		t.Skip("forks rank processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := base()
	c.nx, c.ny, c.iters = 6, 6, 4 // 3x3 tiles: too thin for the blur's halo exchange
	c.rankGrid, c.launch, c.kernel, c.haloDepth = "2x2", 4, "blur", 4
	p, err := c.resolve()
	if err != nil {
		t.Fatal(err)
	}
	err = runLaunch(c, p, serve.ProcessWorkers(exe, []string{"STENCILRUN_WORKER=1"}))
	if err == nil || !strings.Contains(err.Error(), "process failed") {
		t.Fatalf("launch over thin tiles: %v, want a rank failure", err)
	}
}

// TestWireMatchesTheFlags pins config.wire against what the flags have
// always meant: for every kernel and boundary condition the resolved
// document carries the kernel's historical coefficients and the domain
// filled row-major with 100 + 50*rng.Float32() from the -seed stream.
func TestWireMatchesTheFlags(t *testing.T) {
	kernels := map[string]*abft.Stencil[float32]{
		"laplace": abft.Laplace5[float32](0.2),
		"jacobi4": abft.Jacobi4[float32](),
		"blur":    abft.BoxBlur[float32](),
		"advect":  abft.Advect2D[float32](0.3, 0.2),
	}
	bcs := map[string]abft.Boundary{"clamp": abft.Clamp, "periodic": abft.Periodic, "mirror": abft.Mirror,
		"constant": abft.Constant, "zero": abft.Zero}
	for kernel, st := range kernels {
		for bcName, bc := range bcs {
			c := base()
			c.nx, c.ny, c.seed = 37, 23, 7
			c.kernel, c.bcName, c.bcValue = kernel, bcName, 25
			p, err := c.resolve()
			if err != nil {
				t.Fatal(err)
			}
			w, err := c.wire(p)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := abft.SpecFromWire[float32](w)
			if err != nil {
				t.Fatalf("%s/%s: %v", kernel, bcName, err)
			}
			op := spec.Op2D
			if op.BC != bc || op.BCValue != 25 || op.St.Name != st.Name || len(op.St.Points) != len(st.Points) {
				t.Fatalf("%s/%s resolved to %s with %v boundaries (value %v)", kernel, bcName, op.St.Name, op.BC, op.BCValue)
			}
			for i, pt := range st.Points {
				if got := op.St.Points[i]; got != pt {
					t.Fatalf("%s/%s point %d: %+v, want %+v", kernel, bcName, i, got, pt)
				}
			}
			rng := rand.New(rand.NewSource(c.seed))
			for i, v := range spec.Init.Data() {
				if want := 100 + 50*rng.Float32(); math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("%s/%s cell %d: %v, want %v", kernel, bcName, i, v, want)
				}
			}
			if spec.Detector.Epsilon != 1e-5 || spec.Detector.AbsFloor != 1 {
				t.Fatalf("%s/%s detector %+v", kernel, bcName, spec.Detector)
			}
		}
	}
	c := base()
	c.kernel = "sobel"
	if _, err := c.wire(plan{scheme: abft.Online, deployment: abft.Local}); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("unknown kernel: %v", err)
	}
}

// base returns the flag defaults, as flag.Parse would leave them with no
// arguments.
func base() config {
	return config{
		nx: 256, ny: 256, iters: 100, kernel: "laplace", bcName: "clamp",
		mode: "online", period: 16, epsilon: 1e-5, seed: 1, rank: -1,
		haloDepth: 1,
	}
}

// TestResolveValidCombinations pins the supported flag shapes and what
// they resolve to.
func TestResolveValidCombinations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config)
		want plan
	}{
		{"defaults: local online over chan", func(c *config) {},
			plan{scheme: abft.Online, deployment: abft.Local, transport: abft.TransportChan}},
		{"ranks shorthand: chan cluster", func(c *config) { c.ranks = 4 },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 1, ranksY: 4, transport: abft.TransportChan}},
		{"rank grid: chan cluster", func(c *config) { c.rankGrid = "2x3" },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 3, ranksY: 2, transport: abft.TransportChan}},
		{"depth-k ghost zones on a chan cluster", func(c *config) { c.rankGrid = "2x2"; c.haloDepth = 4 },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportChan}},
		{"blocksize implies blocked", func(c *config) { c.blockSize = 32 },
			plan{scheme: abft.Blocked, deployment: abft.Local, transport: abft.TransportChan}},
		{"tcp rank process", func(c *config) { c.rankGrid = "2x2"; c.transport = "tcp"; c.rank = 3; c.rendezvous = "127.0.0.1:9777" },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP}},
		{"tcp rank process with a bind address", func(c *config) {
			c.rankGrid = "2x2"
			c.rank = 1
			c.rendezvous = "10.0.0.5:9777"
			c.bind = "10.0.0.6:0"
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP}},
		{"rank+rendezvous imply tcp", func(c *config) { c.rankGrid = "2x2"; c.rank = 0; c.rendezvous = "127.0.0.1:9777" },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP}},
		{"launch implies tcp parent", func(c *config) { c.rankGrid = "2x2"; c.launch = 4 },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP, launch: true}},
		{"launch forwards profiles and trace", func(c *config) {
			c.rankGrid = "2x2"
			c.launch = 4
			c.cpuProf = "p.out"
			c.memProf = "m.out"
			c.trace = "t.json"
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP, launch: true}},
		{"tcp rank with buddy checkpointing", func(c *config) {
			c.rankGrid = "2x2"
			c.rank = 1
			c.rendezvous = "127.0.0.1:9777"
			c.buddy = 16
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP}},
		{"launch with recovery and a fault drill", func(c *config) {
			c.rankGrid = "2x2"
			c.launch = 4
			c.recover = true
			c.buddy = 8
			c.die = "3@50"
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP,
				launch: true, dieRank: 3, dieIter: 50}},
		{"local run with periodic disk checkpoints", func(c *config) { c.ckptPath = "ck/run"; c.ckptEach = 25 },
			plan{scheme: abft.Online, deployment: abft.Local, transport: abft.TransportChan}},
		{"local run restored from disk", func(c *config) { c.restore = "ck/run" },
			plan{scheme: abft.Online, deployment: abft.Local, transport: abft.TransportChan}},
		{"chaos plan on a chan cluster", func(c *config) { c.ranks = 4; c.chaos = "plan.json" },
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 1, ranksY: 4, transport: abft.TransportChan}},
		{"chaos soak on the launch parent", func(c *config) {
			c.rankGrid = "2x2"
			c.launch = 4
			c.chaos = "plan.json"
			c.soak = 3
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP, launch: true}},
		{"tcp rank with buddy and a disk checkpoint dir", func(c *config) {
			c.rankGrid = "2x2"
			c.rank = 1
			c.rendezvous = "127.0.0.1:9777"
			c.buddy = 8
			c.ckptDir = "ck"
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP}},
		{"launch with recovery and the double-death disk fallback", func(c *config) {
			c.rankGrid = "2x2"
			c.launch = 4
			c.recover = true
			c.buddy = 8
			c.ckptDir = "ck"
		},
			plan{scheme: abft.Online, deployment: abft.Clustered, ranksX: 2, ranksY: 2, transport: abft.TransportTCP, launch: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mut(&c)
			got, err := c.resolve()
			if err != nil {
				t.Fatalf("resolve: %v", err)
			}
			if got != tc.want {
				t.Fatalf("resolve = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestResolveRejectsBadCombinations pins the up-front validation of the
// transport flag combinations: every misconfiguration fails before any
// socket or child process exists, with a message naming the fix.
func TestResolveRejectsBadCombinations(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config)
		want string // substring of the error
	}{
		{"tcp without rank/rendezvous/launch",
			func(c *config) { c.rankGrid = "2x2"; c.transport = "tcp" }, "-rank K and -rendezvous"},
		{"tcp without a rank grid",
			func(c *config) { c.transport = "tcp"; c.rank = 0; c.rendezvous = "h:1" }, "-rankgrid"},
		{"tcp rank without rendezvous",
			func(c *config) { c.rankGrid = "2x2"; c.rank = 1 }, "-rendezvous"},
		{"tcp rank out of range",
			func(c *config) { c.rankGrid = "2x2"; c.rank = 4; c.rendezvous = "h:1" }, "outside the 4-rank cluster"},
		{"launch with chan transport",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.transport = "chan" }, "chan transport"},
		{"launch with rank",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.rank = 0; c.rendezvous = "h:1" }, "parent role"},
		{"launch count mismatching the grid",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 3 }, "must match the rank grid"},
		{"launch with metrics",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.metricsAddr = ":0" }, "-metrics"},
		{"rank with explicit chan",
			func(c *config) { c.rankGrid = "2x2"; c.transport = "chan"; c.rank = 1 }, "-rank"},
		{"rendezvous with explicit chan",
			func(c *config) { c.rankGrid = "2x2"; c.transport = "chan"; c.rendezvous = "h:1" }, "-rendezvous"},
		{"bind with explicit chan",
			func(c *config) { c.rankGrid = "2x2"; c.transport = "chan"; c.bind = "10.0.0.5:0" }, "-bind"},
		{"bind with launch",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.bind = "10.0.0.5:0" }, "-bind"},
		{"tcp with a non-online scheme",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.mode = "offline" }, "online scheme only"},
		{"unknown transport",
			func(c *config) { c.rankGrid = "2x2"; c.transport = "carrier-pigeon" }, "unknown transport"},
		{"ranks and rankgrid together",
			func(c *config) { c.ranks = 4; c.rankGrid = "2x2" }, "not both"},
		{"halodepth below one",
			func(c *config) { c.rankGrid = "2x2"; c.haloDepth = 0 }, "at least 1"},
		{"halodepth without a cluster",
			func(c *config) { c.haloDepth = 2 }, "-rankgrid RxC"},
		{"buddy period off the halo-exchange cadence",
			func(c *config) {
				c.rankGrid = "2x2"
				c.launch = 4
				c.haloDepth = 4
				c.buddy = 6
			}, "use -buddy 8"},
		{"malformed rankgrid",
			func(c *config) { c.rankGrid = "2by2" }, "invalid -rankgrid"},
		{"blocksize on offline",
			func(c *config) { c.mode = "offline"; c.blockSize = 32 }, "-blocksize"},
		{"ckptperiod without checkpoint",
			func(c *config) { c.ckptEach = 25 }, "-checkpoint"},
		{"restore with inject",
			func(c *config) { c.restore = "ck/run"; c.inject = true }, "-inject"},
		{"buddy on the chan transport",
			func(c *config) { c.rankGrid = "2x2"; c.buddy = 16 }, "-buddy"},
		{"recover without launch",
			func(c *config) { c.rankGrid = "2x2"; c.rank = 1; c.rendezvous = "h:1"; c.buddy = 8; c.recover = true }, "-launch"},
		{"recover without buddy",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.recover = true }, "-buddy"},
		{"malformed die",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.recover = true; c.buddy = 8; c.die = "3-50" }, "invalid -die"},
		{"die targeting a rank outside the grid",
			func(c *config) { c.rankGrid = "2x2"; c.launch = 4; c.recover = true; c.buddy = 8; c.die = "4@50" }, "outside the 4-rank cluster"},
		{"die on a rank process",
			func(c *config) { c.rankGrid = "2x2"; c.rank = 1; c.rendezvous = "h:1"; c.buddy = 8; c.die = "3@50" }, "-launch"},
		{"disk checkpoint on a tcp rank",
			func(c *config) { c.rankGrid = "2x2"; c.rank = 1; c.rendezvous = "h:1"; c.ckptPath = "ck/run" }, "-buddy"},
		{"metrics with buddy recovery",
			func(c *config) {
				c.rankGrid = "2x2"
				c.rank = 1
				c.rendezvous = "h:1"
				c.buddy = 8
				c.metricsAddr = ":0"
			}, "-metrics"},
		{"chaos on a local run",
			func(c *config) { c.chaos = "plan.json" }, "cluster's transport"},
		{"chaos with inject",
			func(c *config) { c.ranks = 4; c.chaos = "plan.json"; c.inject = true }, "each gate means something"},
		{"soak without chaos",
			func(c *config) { c.ranks = 4; c.soak = 3 }, "-chaos plan.json"},
		{"negative soak",
			func(c *config) { c.ranks = 4; c.chaos = "plan.json"; c.soak = -1 }, "must be positive"},
		{"soak on a tcp rank process",
			func(c *config) {
				c.rankGrid = "2x2"
				c.rank = 1
				c.rendezvous = "h:1"
				c.chaos = "plan.json"
				c.soak = 2
			}, "-launch parent"},
		{"ckptdir on the chan transport",
			func(c *config) { c.ranks = 4; c.ckptDir = "ck" }, "every rank in one process"},
		{"ckptdir without buddy",
			func(c *config) {
				c.rankGrid = "2x2"
				c.rank = 1
				c.rendezvous = "h:1"
				c.ckptDir = "ck"
			}, "set -buddy j"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := base()
			tc.mut(&c)
			_, err := c.resolve()
			if err == nil {
				t.Fatalf("invalid flag combination accepted: %+v", c)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDiskCheckpointRoundTrip drives the CLI's disk-checkpoint path end to
// end: checkpoint a run cut off at iteration 16, restore and finish it, and
// require the resumed run's final checkpoint file to be byte-identical to an
// uninterrupted run's — same iteration stamp, same IEEE-754 grid bits.
func TestDiskCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	run := func(mut func(*config)) {
		t.Helper()
		c := base()
		c.nx, c.ny, c.iters = 48, 40, 24
		mut(&c)
		p, err := c.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if err := runProcess(c, p); err != nil {
			t.Fatal(err)
		}
	}
	run(func(c *config) { c.ckptPath = filepath.Join(dir, "part"); c.ckptEach = 8; c.iters = 16 })
	run(func(c *config) { c.restore = filepath.Join(dir, "part"); c.ckptPath = filepath.Join(dir, "resumed") })
	run(func(c *config) { c.ckptPath = filepath.Join(dir, "full") })
	resumed, err := os.ReadFile(filepath.Join(dir, "resumed.a"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "full.a"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, full) {
		t.Fatal("the restored run's final checkpoint differs from the uninterrupted run's")
	}
}

// TestParseDie pins the R@I fault-drill syntax.
func TestParseDie(t *testing.T) {
	r, i, err := parseDie("3@50")
	if err != nil || r != 3 || i != 50 {
		t.Fatalf("parseDie(3@50) = %d, %d, %v", r, i, err)
	}
	for _, bad := range []string{"", "3", "@", "3@", "@50", "a@b", "3@50@7"} {
		if _, _, err := parseDie(bad); err == nil {
			t.Errorf("parseDie(%q) accepted", bad)
		}
	}
}

// scriptedWorker replays a fixed event stream, then reports exit as how its
// process ended.
type scriptedWorker struct {
	serve.Worker // Send and Kill are never reached by these scripts
	events       []serve.WorkerEvent
	exit         error
}

func (w *scriptedWorker) Send(serve.JobRequest) error { return nil }
func (w *scriptedWorker) Close() error                { return w.exit }
func (w *scriptedWorker) Recv() (serve.WorkerEvent, error) {
	if len(w.events) == 0 {
		return serve.WorkerEvent{}, io.EOF
	}
	ev := w.events[0]
	w.events = w.events[1:]
	return ev, nil
}

// idleWorker is a rank that never answers: its Recv blocks until Kill.
type idleWorker struct {
	serve.Worker // Close is never reached: the collapse kills the rank
	killed       chan struct{}
	once         sync.Once
}

func (w *idleWorker) Send(serve.JobRequest) error { return nil }
func (w *idleWorker) Kill()                       { w.once.Do(func() { close(w.killed) }) }
func (w *idleWorker) Recv() (serve.WorkerEvent, error) {
	<-w.killed
	return serve.WorkerEvent{}, io.EOF
}

// TestDeathReport pins the launcher's fail-stop diagnostic and the "ckpt"
// event bookkeeping behind it: the report names the rank, how its process
// exited, the last checkpoint generation the rank itself reported, and any
// transport healing it had done before it died. The scripted rank runs in
// a gang whose other ranks idle until its failure collapses the gang.
func TestDeathReport(t *testing.T) {
	ckpt := func(rank, gen int, reconnects, resends int64) serve.WorkerEvent {
		return serve.WorkerEvent{Event: "ckpt", Ckpt: &serve.Checkpoint{Rank: rank, Gen: gen, Reconnects: reconnects, Resends: resends}}
	}
	cases := []struct {
		name        string
		rank, epoch int
		events      []serve.WorkerEvent
		exit        error
		want, not   []string
	}{
		{"killed after two clean checkpoints", 3, 0,
			[]serve.WorkerEvent{ckpt(3, 8, 0, 0), ckpt(2, 40, 9, 9), ckpt(3, 24, 0, 0), {Event: "ckpt"}},
			errors.New("signal: killed"),
			[]string{"rank 3", "epoch 0", "signal: killed", "generation 24"}, []string{"reconnects", "generation 40"}},
		{"died before any checkpoint: the pipe's EOF stands in for a clean exit status", 1, 2, nil, nil,
			[]string{"rank 1", "epoch 2", "EOF", "no buddy checkpoint"}, nil},
		{"healed connections before dying", 2, 1,
			[]serve.WorkerEvent{ckpt(2, 40, 3, 17)}, errors.New("exit status 1"),
			[]string{"exit status 1", "generation 40", "3 reconnects", "17 resent frames"}, nil},
		{"a job error is the cause", 0, 0,
			[]serve.WorkerEvent{ckpt(0, 8, 0, 0), {Event: "error", Error: "rank 0 lost its Right neighbour"}}, nil,
			[]string{"lost its Right neighbour", "generation 8"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := serve.NewPool(tc.rank+1, func(slot int) (serve.Worker, error) {
				if slot == tc.rank {
					return &scriptedWorker{events: tc.events, exit: tc.exit}, nil
				}
				return &idleWorker{killed: make(chan struct{})}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			ranks := newRankLog(tc.rank + 1)
			_, err = pool.RunGang(serve.Gang{
				Rendezvous: "127.0.0.1:1", // no scripted or idle worker binds it
				Place:      func(int) serve.Placement { return serve.Placement{Epoch: tc.epoch} },
			}, ranks.observe)
			e, ok := err.(*serve.RankError)
			if !ok || e.Rank != tc.rank {
				t.Fatalf("a rank that never delivered a result ran clean: %v", err)
			}
			got := ranks.deathReport(e)
			for _, want := range tc.want {
				if !strings.Contains(got, want) {
					t.Errorf("report %q does not mention %q", got, want)
				}
			}
			for _, not := range tc.not {
				if strings.Contains(got, not) {
					t.Errorf("report %q mentions %q", got, not)
				}
			}
		})
	}
}

// TestResolveRejectsNegativeLaunch pins the negative -launch rejection.
func TestResolveRejectsNegativeLaunch(t *testing.T) {
	c := base()
	c.rankGrid = "2x2"
	c.launch = -4
	if _, err := c.resolve(); err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("negative -launch: %v", err)
	}
}
