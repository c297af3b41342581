package resilience_test

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stencilabft/internal/checksum"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/resilience"
	"stencilabft/internal/stats"
	"stencilabft/internal/stencil"
)

// TestBuddyGeometry pins the pairing: adjacent along the long axis, even
// indices leaning forward, the odd-length tail leaning back, and WardsOf
// exactly inverting BuddyOf.
func TestBuddyGeometry(t *testing.T) {
	cases := []struct {
		rx, ry int
		rank   int
		buddy  int
		dir    dist.Dir
	}{
		{2, 2, 0, 1, dist.Right},
		{2, 2, 1, 0, dist.Left},
		{2, 2, 2, 3, dist.Right},
		{2, 2, 3, 2, dist.Left},
		{3, 1, 0, 1, dist.Right},
		{3, 1, 1, 0, dist.Left},
		{3, 1, 2, 1, dist.Left}, // odd tail leans back
		{1, 4, 0, 1, dist.Down}, // RanksX == 1 pairs along y instead
		{1, 4, 1, 0, dist.Up},
		{1, 4, 2, 3, dist.Down},
		{1, 4, 3, 2, dist.Up},
	}
	for _, tc := range cases {
		d := dist.Decomp{RanksX: tc.rx, RanksY: tc.ry}
		b, dir, err := resilience.BuddyOf(d, tc.rank)
		if err != nil {
			t.Fatalf("%dx%d rank %d: %v", tc.rx, tc.ry, tc.rank, err)
		}
		if b != tc.buddy || dir != tc.dir {
			t.Errorf("%dx%d rank %d: buddy %d via %v, want %d via %v", tc.rx, tc.ry, tc.rank, b, dir, tc.buddy, tc.dir)
		}
	}

	// WardsOf inverts BuddyOf over every rank of a 3x3 grid.
	d := dist.Decomp{RanksX: 3, RanksY: 3}
	for id := 0; id < d.NumRanks(); id++ {
		for _, w := range resilience.WardsOf(d, id) {
			b, dir, err := resilience.BuddyOf(d, w.Rank)
			if err != nil || b != id {
				t.Fatalf("rank %d lists ward %d, but BuddyOf(%d) = %d, %v", id, w.Rank, w.Rank, b, err)
			}
			if nb, ok := d.Neighbor(id, w.Dir, false); !ok || nb != w.Rank {
				t.Fatalf("ward %d of rank %d claims direction %v, geometry disagrees", w.Rank, id, w.Dir)
			}
			_ = dir
		}
	}

	if _, _, err := resilience.BuddyOf(dist.Decomp{RanksX: 1, RanksY: 1}, 0); err == nil {
		t.Fatal("a single-rank grid produced a buddy")
	}
}

// TestDiskSaverRotation pins the alternating-file rotation and LoadLatest's
// newest-valid pick, including the corrupt-file fallback.
func TestDiskSaverRotation(t *testing.T) {
	base := filepath.Join(t.TempDir(), "ckpt")
	s := resilience.NewDiskSaver[float64](base)
	g := grid.New[float64](4, 3)
	g.FillFunc(func(x, y int) float64 { return float64(x*10 + y) })
	b := []float64{1, 2, 3}

	for _, iter := range []int{8, 16, 24} {
		if err := s.Save(iter, g, b); err != nil {
			t.Fatal(err)
		}
	}
	got, gb, iter, err := resilience.LoadLatest[float64](base)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 24 || got.MaxAbsDiff(g) != 0 || len(gb) != 3 || gb[2] != 3 {
		t.Fatalf("LoadLatest = iter %d", iter)
	}

	// Corrupt the newest file: LoadLatest must fall back to the older one.
	paths := resilience.Paths(base)
	newest := paths[0] // saves at 8,16,24 leave 24 in the .a slot
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, iter, err = resilience.LoadLatest[float64](base)
	if err != nil || iter != 16 {
		t.Fatalf("after corrupting the newest: iter %d, err %v (want 16, nil)", iter, err)
	}
}

// --- the end-to-end fail-stop harness -----------------------------------

func strictOpts() dist.Options[float64] {
	return dist.Options[float64]{Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}}
}

func testInit(nx, ny int) *grid.Grid[float64] {
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 80 + float64((x*31+y*17)%23) + 0.25*float64(y) })
	return g
}

// Every drill runs 24 iterations of a 40x36 domain on a 2x2 rank grid with
// buddy period 4 and kills its victims at generation 10 — so recovery must
// roll back to generation 8 and replay.
const (
	drillNx, drillNy                      = 40, 36
	drillTotal, drillPeriod, drillKillGen = 24, 4, 10
	drillRestartGen                       = 8
)

type runResult struct {
	rank    int
	cl      *dist.Cluster[float64]
	extra   stats.Stats
	err     error
	claimed *resilience.Plan // the plan a replacement claimed; nil for a survivor
}

// drill is one fail-stop scenario wired the way stencilrun -launch -recover
// wires it: one-rank virtual processes (goroutines) over real TCP, and a
// coordinator whose Respawn starts a fresh virtual process that claims the
// dead rank's plan — the only placement there is.
type drill struct {
	op      *stencil.Op2D[float64]
	init    *grid.Grid[float64]
	depth   int          // > 1 runs the depth-k ghost-zone schedule
	diskDir string       // also persist checkpoints here; "" keeps the memory banks only
	ctrl    string       // the coordinator's control address
	rdv     net.Listener // epoch 0's rendezvous, pre-bound: rank 0 serves it without a handover window
	results chan runResult

	mu    sync.Mutex
	plans []resilience.Plan // every decision the coordinator published
}

// startDrill builds the scenario and its coordinator. stallWait only matters
// with a diskDir (it arms the double-death escalation).
func startDrill(t *testing.T, bc grid.Boundary, depth int, diskDir string, stallWait time.Duration) *drill {
	t.Helper()
	// The control listener is bound first so Respawn can capture its address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rdv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rdv.Close() })
	d := &drill{
		op:    &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: bc, BCValue: 42},
		init:  testInit(drillNx, drillNy),
		depth: depth, diskDir: diskDir,
		ctrl: ln.Addr().String(), rdv: rdv,
		results: make(chan runResult, 8), // four ranks plus a replacement for each could report; none may block
	}
	co, err := resilience.StartCoordinator(resilience.CoordinatorConfig{
		RanksX: 2, RanksY: 2, Listener: ln, Timeout: 20 * time.Second,
		DiskDir: diskDir, StallWait: stallWait,
		Respawn: d.respawn,
		OnDecision: func(p resilience.Plan) {
			d.mu.Lock()
			d.plans = append(d.plans, p)
			d.mu.Unlock()
		},
	})
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return d
}

// config is rank's resilience.Run configuration at epoch 0: its cluster is
// built over a real TCP transport, exactly as a stencilrun rank process
// builds it.
func (d *drill) config(rank int) resilience.Config[float64] {
	factory := func(epoch int, rdv string, after func(int, int)) (*dist.Cluster[float64], error) {
		cfg := dist.TCPConfig{
			RanksX: 2, RanksY: 2, Ring: d.op.BC == grid.Periodic,
			LocalRanks: []int{rank}, Rendezvous: rdv,
			DialTimeout: 20 * time.Second, IOTimeout: 10 * time.Second,
		}
		if epoch == 0 && rank == 0 {
			cfg.RendezvousListener = d.rdv
		}
		tr, err := dist.NewTCPTransport[float64](cfg)
		if err != nil {
			return nil, err
		}
		opt := strictOpts()
		opt.LocalRanks = []int{rank}
		opt.AfterStep = after
		opt.HaloDepth = d.depth
		opt.NewTransport = func(int, int, bool) dist.Transport[float64] { return tr }
		cl, err := dist.NewClusterGrid(d.op, d.init, 2, 2, opt)
		if err != nil {
			tr.Close()
			return nil, err
		}
		return cl, nil
	}
	return resilience.Config[float64]{
		Total: drillTotal, Period: drillPeriod, Control: d.ctrl, Rank: rank,
		Factory: factory, Rendezvous: d.rdv.Addr().String(), Timeout: 20 * time.Second, DiskDir: d.diskDir,
	}
}

// launch starts rank's virtual process. A victim drops dead — transport
// torn down, goroutine gone, no goodbye to anyone — once it completes
// iteration drillKillGen, and like any dead process reports nothing: it gets
// no control address, so even if a sibling victim's closed transport faults
// it before its own kill lands it cannot pose as a survivor.
func (d *drill) launch(rank int, victim bool) {
	cfg := d.config(rank)
	if victim {
		cfg.Control = ""
		inner := cfg.Factory
		cfg.Factory = func(epoch int, rdv string, after func(int, int)) (*dist.Cluster[float64], error) {
			var cl *dist.Cluster[float64]
			var once sync.Once
			c, err := inner(epoch, rdv, func(r, it int) {
				after(r, it)
				if it+1 == drillKillGen {
					once.Do(func() {
						cl.Close()
						runtime.Goexit()
					})
				}
			})
			cl = c
			return c, err
		}
	}
	go func() {
		cl, extra, err := resilience.Run(cfg)
		if victim {
			// Goexit unwound the rank goroutine, so Run returns "success" at
			// the kill generation (or a fault on the closed transport). Either
			// way this incarnation is dead; drop it.
			if cl != nil {
				cl.Close()
			}
			return
		}
		d.results <- runResult{rank: rank, cl: cl, extra: extra, err: err}
	}()
}

// respawn is the coordinator's Respawn: a fresh virtual process claims the
// dead rank's plan (and relayed snapshot) and rejoins the lockstep, as a
// stencilrun replacement child does through serve.RunResilient.
func (d *drill) respawn(plan resilience.Plan) error {
	go func() {
		p, st, err := resilience.RequestClaim[float64](d.ctrl, plan.Dead, 20*time.Second)
		if err != nil {
			d.results <- runResult{rank: plan.Dead, err: err}
			return
		}
		cfg := d.config(plan.Dead)
		cfg.Epoch, cfg.Rendezvous = p.Epoch, p.Rendezvous
		cfg.StartIter, cfg.InitialState = p.RestartGen, st
		cl, extra, err := resilience.Run(cfg)
		d.results <- runResult{rank: plan.Dead, cl: cl, extra: extra, err: err, claimed: &p}
	}()
	return nil
}

// finish waits for all four ranks' terminal processes, requires the
// assembled domain to be bit-identical to an undisturbed in-process run
// (itself pinned to the single-process sweep by the dist tests; always the
// classic depth-1 schedule, so a depth-k drill is a depth-k bit-identity
// pin too) and non-zero recovery counters, and returns the results by rank
// and the decision that was published.
func (d *drill) finish(t *testing.T) ([4]runResult, resilience.Plan) {
	t.Helper()
	ref, err := dist.NewClusterGrid(d.op, d.init, 2, 2, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Run(drillTotal)
	want := ref.Gather()

	got := grid.New[float64](drillNx, drillNy)
	var byRank [4]runResult
	var merged stats.Stats
	deadline := time.After(90 * time.Second)
	for n := 0; n < 4; n++ {
		select {
		case r := <-d.results:
			if r.err != nil {
				t.Fatalf("rank %d: %v", r.rank, r.err)
			}
			if byRank[r.rank].cl != nil {
				t.Fatalf("rank %d finished twice", r.rank)
			}
			g := r.cl.Gather()
			tile := r.cl.Tile(r.rank)
			for y := tile.Y0; y < tile.Y1; y++ {
				copy(got.Row(y)[tile.X0:tile.X1], g.Row(y)[tile.X0:tile.X1])
			}
			merged = merged.Merge(r.extra)
			r.cl.Close()
			byRank[r.rank] = r
		case <-deadline:
			t.Fatalf("recovery did not complete; %d of 4 ranks finished", n)
		}
	}
	if diff := got.MaxAbsDiff(want); diff != 0 {
		t.Fatalf("recovered run deviates from the undisturbed run by %g", diff)
	}
	if merged.Recoveries == 0 || merged.Rollbacks == 0 {
		t.Fatalf("recovery counters empty: %+v", merged)
	}
	if merged.RecomputedIters == 0 {
		t.Fatalf("rollback recorded no recomputed iterations: %+v", merged)
	}
	if merged.Checkpoint.Saves == 0 {
		t.Fatalf("no buddy checkpoints counted: %+v", merged.Checkpoint)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.plans) != 1 {
		t.Fatalf("coordinator published %d decisions, want 1: %+v", len(d.plans), d.plans)
	}
	plan := d.plans[0]
	if plan.Err != "" {
		t.Fatalf("recovery plan aborted: %s", plan.Err)
	}
	if plan.RestartGen != drillRestartGen {
		t.Fatalf("recovery restarts at generation %d, want %d (the newest common checkpoint before the kill)", plan.RestartGen, drillRestartGen)
	}
	return byRank, plan
}

// runFailStop kills rank 3 of a live 2x2 TCP cluster mid-run and checks the
// recovery end to end: the survivors report, the coordinator relays the
// guard's buddy snapshot to a freshly started replacement which claims the
// dead rank, every rank rolls back to the newest common buddy checkpoint,
// and the finished run is bit-identical to an undisturbed in-process run.
func runFailStop(t *testing.T, bc grid.Boundary, depth int) {
	const victim = 3
	d := startDrill(t, bc, depth, "", 0)
	for rank := 0; rank < 4; rank++ {
		d.launch(rank, rank == victim)
	}
	byRank, plan := d.finish(t)
	if plan.Dead != victim || len(plan.DeadRanks) != 0 || plan.Disk != "" {
		t.Fatalf("decision %+v, want the lone rank %d declared dead and restored from its guard's bank", plan, victim)
	}
	for rank, r := range byRank {
		if (r.claimed != nil) != (rank == victim) {
			t.Fatalf("rank %d: claimed plan %+v; only rank %d's terminal process is a replacement", rank, r.claimed, victim)
		}
	}
	if c := byRank[victim].claimed; c.Dead != victim || c.RestartGen != drillRestartGen || c.Epoch != plan.Epoch {
		t.Fatalf("the replacement claimed %+v, want rank %d at generation %d of epoch %d", *c, victim, drillRestartGen, plan.Epoch)
	}
}

// TestFailStopRecovery runs the single-death drill for three boundary
// conditions (the periodic one closes the rank grid into a torus) and under
// depth-2 ghost zones. There rank 3 dies mid-cycle (generation 10, between
// exchange rounds), and because the buddy period 4 is a multiple of the
// depth, the rollback generation 8 lands on a halo-exchange boundary — the
// restored ranks resume at the top of a depth-k cycle.
func TestFailStopRecovery(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bc    grid.Boundary
		depth int
	}{
		{"clamp", grid.Clamp, 1},
		{"periodic", grid.Periodic, 1},
		{"mirror", grid.Mirror, 1},
		{"clamp-depth2", grid.Clamp, 2},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runFailStop(t, tc.bc, tc.depth)
		})
	}
}

// TestDoubleDeathDiskEscalation kills a whole buddy pair at once: the
// one-rank processes of ranks 2 and 3 — each other's guard on a 2x2 grid —
// both drop dead at generation 10. Neither rank's snapshot survives in any
// memory bank, so the round can never complete by elimination (it stalls at
// two reports). The coordinator's stall timer must escalate: declare both
// ranks dead, respawn each, and restart the whole cluster at generation 8 —
// the replacements from the per-rank disk rotations — finishing
// bit-identical to an undisturbed run.
func TestDoubleDeathDiskEscalation(t *testing.T) {
	dir := t.TempDir()
	d := startDrill(t, grid.Clamp, 1, dir, 3*time.Second)
	for rank := 0; rank < 4; rank++ {
		d.launch(rank, rank >= 2)
	}
	byRank, esc := d.finish(t)
	if esc.Dead != -1 || len(esc.DeadRanks) != 2 || esc.DeadRanks[0] != 2 || esc.DeadRanks[1] != 3 {
		t.Fatalf("escalation declared %d / %v dead, want -1 / [2 3]", esc.Dead, esc.DeadRanks)
	}
	if esc.Disk != dir {
		t.Fatalf("escalation plan names disk %q, want %q", esc.Disk, dir)
	}
	for rank, r := range byRank {
		if rank < 2 {
			if r.claimed != nil {
				t.Fatalf("survivor rank %d finished as a replacement: %+v", rank, *r.claimed)
			}
			continue
		}
		c := r.claimed
		if c == nil {
			t.Fatalf("rank %d finished without a replacement claiming its plan", rank)
		}
		if c.Dead != rank || c.Disk != dir || c.RestartGen != drillRestartGen || c.Epoch != esc.Epoch || c.Rendezvous != esc.Rendezvous {
			t.Fatalf("rank %d's replacement claimed %+v, want its own rank at generation %d of the escalation %+v", rank, *c, drillRestartGen, esc)
		}
		if r.extra.Checkpoint.Restores == 0 {
			t.Fatalf("rank %d's replacement counted no disk restore — its tile did not come from the rotations: %+v", rank, r.extra.Checkpoint)
		}
	}
}

// TestRunRejectsWrongSizeState plants a CRC-valid rotation file of the
// right generation but another run's size under the checkpoint directory —
// what a reused -ckptdir leaves behind. The restore must refuse it by
// length, naming rank, generation, got and want, instead of slicing the
// tile out of it (a short vector panicked, a long one was accepted).
func TestRunRejectsWrongSizeState(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(8, 6)
	for _, n := range []int{3, 8*6 + 6 + 100} { // the tile packs 8*6 cells + 6 checksums
		dir := t.TempDir()
		if err := resilience.NewDiskSaver[float64](resilience.RankBase(dir, 0)).Save(8, grid.New[float64](n, 1), nil); err != nil {
			t.Fatal(err)
		}
		cl, _, err := resilience.Run(resilience.Config[float64]{
			Total: 12, Period: 4, Rank: 0, StartIter: 8, DiskDir: dir,
			Factory: func(_ int, _ string, after func(int, int)) (*dist.Cluster[float64], error) {
				opt := strictOpts()
				opt.AfterStep = after
				return dist.NewClusterGrid(op, init, 1, 1, opt)
			},
		})
		if err == nil {
			cl.Close()
			t.Fatalf("a %d-value rotation file restored into a 54-value tile", n)
		}
		for _, want := range []string{"rank 0", "generation 8", fmt.Sprintf("holds %d values", n), "packs 54"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		}
	}
}

// TestCoordinatorRequiresRespawn pins the one placement: there is no mode
// in which a dead rank is not replaced by a fresh process.
func TestCoordinatorRequiresRespawn(t *testing.T) {
	if co, err := resilience.StartCoordinator(resilience.CoordinatorConfig{RanksX: 2, RanksY: 2}); err == nil {
		co.Close()
		t.Fatal("StartCoordinator accepted a nil Respawn")
	}
}

// TestBuddyAttachRejectsOffCadencePeriod pins the period/depth coupling:
// a checkpoint period that is not a multiple of the cluster's halo depth
// would bank generations a restore cannot resume from (mid-cycle, no
// valid boundary shells), so Attach must refuse it and name the nearest
// usable period.
func TestBuddyAttachRejectsOffCadencePeriod(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	opt := strictOpts()
	opt.HaloDepth = 3
	cl, err := dist.NewClusterGrid(op, testInit(40, 36), 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := resilience.NewBuddy[float64](4, nil).Attach(cl); err == nil || !strings.Contains(err.Error(), "use period 6") {
		t.Fatalf("Attach with period 4 over depth 3 = %v, want the cadence error suggesting period 6", err)
	}
	if err := resilience.NewBuddy[float64](6, nil).Attach(cl); err != nil {
		t.Fatalf("Attach with the aligned period 6: %v", err)
	}
}
