package resilience_test

import (
	"fmt"
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

func reserveAddr(t *testing.T) string {
	t.Helper()
	addr, err := resilience.ReserveAddr("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// tcpFactory builds one process's cluster incarnation over a real TCP
// transport, exactly as a stencilrun child would. depth > 1 runs the
// communication-avoiding depth-k ghost-zone schedule.
func tcpFactory(op *stencil.Op2D[float64], init *grid.Grid[float64], rx, ry, depth int) resilience.Factory[float64] {
	return func(epoch int, rdv string, localRanks []int, after func(int, int)) (*dist.Cluster[float64], error) {
		tr, err := dist.NewTCPTransport[float64](dist.TCPConfig{
			RanksX: rx, RanksY: ry, Ring: op.BC == grid.Periodic,
			LocalRanks: localRanks, Rendezvous: rdv,
			DialTimeout: 20 * time.Second, IOTimeout: 10 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		opt := strictOpts()
		opt.LocalRanks = localRanks
		opt.AfterStep = after
		opt.HaloDepth = depth
		opt.NewTransport = func(int, int, bool) dist.Transport[float64] { return tr }
		cl, err := dist.NewClusterGrid(op, init, rx, ry, opt)
		if err != nil {
			tr.Close()
			return nil, err
		}
		return cl, nil
	}
}

// tcpFactoryHealing is tcpFactory with the transport's failure detector
// tightened: a short death deadline so a vanished peer is classified
// permanent (and reported) quickly instead of after the default grace.
func tcpFactoryHealing(op *stencil.Op2D[float64], init *grid.Grid[float64], rx, ry int, deathDeadline time.Duration) resilience.Factory[float64] {
	return func(epoch int, rdv string, localRanks []int, after func(int, int)) (*dist.Cluster[float64], error) {
		tr, err := dist.NewTCPTransport[float64](dist.TCPConfig{
			RanksX: rx, RanksY: ry, Ring: op.BC == grid.Periodic,
			LocalRanks: localRanks, Rendezvous: rdv,
			DialTimeout: 20 * time.Second, IOTimeout: 10 * time.Second,
			DeathDeadline: deathDeadline,
		})
		if err != nil {
			return nil, err
		}
		opt := strictOpts()
		opt.LocalRanks = localRanks
		opt.AfterStep = after
		opt.NewTransport = func(int, int, bool) dist.Transport[float64] { return tr }
		cl, err := dist.NewClusterGrid(op, init, rx, ry, opt)
		if err != nil {
			tr.Close()
			return nil, err
		}
		return cl, nil
	}
}

// killAtFactory wraps a factory so the hosting "virtual process" drops
// dead — transport torn down, goroutine gone, no goodbye to anyone — once
// the rank completes the given absolute iteration count.
func killAtFactory(inner resilience.Factory[float64], killGen int) resilience.Factory[float64] {
	return func(epoch int, rdv string, localRanks []int, after func(int, int)) (*dist.Cluster[float64], error) {
		var cl *dist.Cluster[float64]
		var once sync.Once
		wrapped := func(r, it int) {
			after(r, it)
			if it+1 == killGen {
				once.Do(func() {
					cl.Close()
					runtime.Goexit()
				})
			}
		}
		c, err := inner(epoch, rdv, localRanks, wrapped)
		cl = c
		return c, err
	}
}

type runResult struct {
	rank  int
	cl    *dist.Cluster[float64]
	extra stats.Stats
	err   error
}

// TestFailStopRecoveryAdopt kills one rank of a live 2x2 TCP cluster
// mid-run and checks the adopt-mode recovery end to end: the survivors
// report, the dead rank's guard absorbs it, every rank rolls back to the
// newest common buddy checkpoint, and the finished run is bit-identical to
// an undisturbed in-process run — for several boundary conditions.
func TestFailStopRecoveryAdopt(t *testing.T) {
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic} {
		bc := bc
		t.Run(fmt.Sprint(bc), func(t *testing.T) {
			t.Parallel()
			runFailStop(t, bc, 1, nil)
		})
	}
}

// TestFailStopRecoveryRespawn runs the same kill but in respawn mode: the
// coordinator relays the buddy snapshot to a freshly started replacement
// process which claims the dead rank and rejoins the lockstep.
func TestFailStopRecoveryRespawn(t *testing.T) {
	runFailStop(t, grid.Mirror, 1, func(ctrl string, op *stencil.Op2D[float64], init *grid.Grid[float64], total, period int, results chan<- runResult) func(resilience.Plan) error {
		return func(plan resilience.Plan) error {
			go func() {
				p, st, err := resilience.RequestAdoption[float64](ctrl, plan.Dead, 20*time.Second)
				if err != nil {
					results <- runResult{rank: plan.Dead, err: err}
					return
				}
				var initial map[int][]float64
				if st != nil {
					initial = map[int][]float64{plan.Dead: st}
				}
				cl, extra, err := resilience.Run(resilience.Config[float64]{
					Total: total, Period: period, Control: ctrl,
					LocalRanks: []int{plan.Dead},
					Factory:    tcpFactory(op, init, 2, 2, 1),
					Epoch:      p.Epoch, Rendezvous: p.Rendezvous,
					StartIter: p.RestartGen, InitialState: initial,
					Timeout: 20 * time.Second,
				})
				results <- runResult{rank: plan.Dead, cl: cl, extra: extra, err: err}
			}()
			return nil
		}
	})
}

// TestFailStopRecoveryDepthK runs the adopt-mode kill under depth-2 ghost
// zones: rank 3 dies mid-cycle (generation 10, between exchange rounds),
// and because the buddy period 4 is a multiple of the depth, the rollback
// generation 8 lands on a halo-exchange boundary — the restored ranks
// resume at the top of a depth-k cycle and the replayed run must finish
// bit-identical to an undisturbed classic depth-1 run.
func TestFailStopRecoveryDepthK(t *testing.T) {
	runFailStop(t, grid.Clamp, 2, nil)
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

// runFailStop is the shared harness: 4 virtual processes (goroutines) on a
// 2x2 grid, rank 3 killed at generation 10, buddy period 4, 24 total
// iterations — so recovery must roll back to generation 8 and replay.
// depth > 1 runs the cluster under depth-k ghost zones (period 4 stays a
// multiple, so the rollback generation lands on an exchange boundary); the
// reference stays the classic depth-1 cluster, making the comparison also
// a depth-k bit-identity pin.
func runFailStop(t *testing.T, bc grid.Boundary, depth int, respawn func(ctrl string, op *stencil.Op2D[float64], init *grid.Grid[float64], total, period int, results chan<- runResult) func(resilience.Plan) error) {
	const nx, ny, total, period, killGen, victim = 40, 36, 24, 4, 10, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: bc, BCValue: 42}
	init := testInit(nx, ny)

	// Undisturbed reference: the in-process channel cluster (itself pinned
	// bit-identical to the single-process sweep by the dist tests).
	ref, err := dist.NewClusterGrid(op, init, 2, 2, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(total)
	want := ref.Gather()

	results := make(chan runResult, 5)
	ccfg := resilience.CoordinatorConfig{RanksX: 2, RanksY: 2, Timeout: 20 * time.Second}
	if respawn != nil {
		// The coordinator's respawn callback is built after the coordinator
		// so it can capture the control address; wire it via indirection.
		var mu sync.Mutex
		var cb func(resilience.Plan) error
		ccfg.Respawn = func(p resilience.Plan) error {
			mu.Lock()
			f := cb
			mu.Unlock()
			return f(p)
		}
		defer func() { mu.Lock(); cb = nil; mu.Unlock() }()
		co, err := resilience.StartCoordinator(ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer co.Close()
		mu.Lock()
		cb = respawn(co.Addr(), op, init, total, period, results)
		mu.Unlock()
		launchRanks(t, co.Addr(), op, init, total, period, killGen, victim, depth, results)
		collectAndCompare(t, want, results, 4, victim)
		return
	}
	co, err := resilience.StartCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	launchRanks(t, co.Addr(), op, init, total, period, killGen, victim, depth, results)
	collectAndCompare(t, want, results, 3, victim)
}

// launchRanks starts the four virtual processes.
func launchRanks(t *testing.T, ctrl string, op *stencil.Op2D[float64], init *grid.Grid[float64], total, period, killGen, victim, depth int, results chan<- runResult) {
	t.Helper()
	rdv := reserveAddr(t)
	for rank := 0; rank < 4; rank++ {
		rank := rank
		factory := tcpFactory(op, init, 2, 2, depth)
		if rank == victim {
			factory = killAtFactory(factory, killGen)
		}
		go func() {
			cl, extra, err := resilience.Run(resilience.Config[float64]{
				Total: total, Period: period, Control: ctrl,
				LocalRanks: []int{rank},
				Factory:    factory,
				Rendezvous: rdv,
				Timeout:    20 * time.Second,
			})
			if rank == victim && err == nil {
				// The killed virtual process: Goexit unwound its rank
				// goroutine, so its Run returns "success" at the kill
				// generation. That incarnation is dead; drop it.
				if cl != nil {
					cl.Close()
				}
				return
			}
			results <- runResult{rank: rank, cl: cl, extra: extra, err: err}
		}()
	}
}

// TestDoubleDeathDiskEscalation kills a whole buddy pair at once: one
// virtual process hosts ranks 2 and 3 — each other's guard on a 2x2 grid —
// and drops dead at generation 10 of a 24-iteration run. Neither rank's
// snapshot survives in any memory bank, so the single-death protocol can
// never complete (the recovery round stalls at two reports). The
// coordinator's stall timer must escalate: declare both ranks dead, deal
// them to the survivors, and restart the whole cluster from the per-rank
// disk rotations at generation 8, finishing bit-identical to an
// undisturbed run.
func TestDoubleDeathDiskEscalation(t *testing.T) {
	const nx, ny, total, period, killGen = 40, 36, 24, 4, 10
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp, BCValue: 42}
	init := testInit(nx, ny)
	dir := t.TempDir()

	ref, err := dist.NewClusterGrid(op, init, 2, 2, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(total)
	want := ref.Gather()

	var decisions struct {
		sync.Mutex
		plans []resilience.Plan
	}
	co, err := resilience.StartCoordinator(resilience.CoordinatorConfig{
		RanksX: 2, RanksY: 2, Timeout: 20 * time.Second,
		DiskDir: dir, StallWait: 3 * time.Second,
		OnDecision: func(p resilience.Plan) {
			decisions.Lock()
			decisions.plans = append(decisions.plans, p)
			decisions.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	rdv := reserveAddr(t)
	results := make(chan runResult, 3)
	launch := func(localRanks []int, control string, factory resilience.Factory[float64], victim bool) {
		go func() {
			cl, extra, err := resilience.Run(resilience.Config[float64]{
				Total: total, Period: period, Control: control,
				LocalRanks: localRanks,
				Factory:    factory,
				Rendezvous: rdv,
				Timeout:    20 * time.Second,
				DiskDir:    dir,
			})
			if victim {
				// The killed virtual process: whether its ranks unwound via
				// Goexit (err == nil) or faulted on the closed transport, it
				// is dead and reports nothing.
				if cl != nil {
					cl.Close()
				}
				return
			}
			results <- runResult{rank: localRanks[0], cl: cl, extra: extra, err: err}
		}()
	}
	launch([]int{0}, co.Addr(), tcpFactoryHealing(op, init, 2, 2, 2*time.Second), false)
	launch([]int{1}, co.Addr(), tcpFactoryHealing(op, init, 2, 2, 2*time.Second), false)
	// The doomed pair gets no control address: a dead process makes no
	// fault reports (Goexit only unwinds one rank's goroutine; the hosted
	// sibling rank faults on the closed transport and must not "survive").
	launch([]int{2, 3}, "", killAtFactory(tcpFactoryHealing(op, init, 2, 2, 2*time.Second), killGen), true)

	got := grid.New[float64](nx, ny)
	covered := map[int]bool{}
	var merged stats.Stats
	deadline := time.After(90 * time.Second)
	for n := 0; n < 2; {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("survivor hosting rank %d: %v", r.rank, r.err)
			}
			g := r.cl.Gather()
			for _, id := range r.cl.LocalRanks() {
				tile := r.cl.Tile(id)
				for y := tile.Y0; y < tile.Y1; y++ {
					copy(got.Row(y)[tile.X0:tile.X1], g.Row(y)[tile.X0:tile.X1])
				}
				covered[id] = true
			}
			merged = merged.Merge(r.extra)
			r.cl.Close()
			n++
		case <-deadline:
			t.Fatalf("escalation did not complete; tiles %v", covered)
		}
	}
	for id := 0; id < 4; id++ {
		if !covered[id] {
			t.Fatalf("no survivor hosts rank %d's tile (covered %v)", id, covered)
		}
	}
	if diff := got.MaxAbsDiff(want); diff != 0 {
		t.Fatalf("disk-restored run deviates from the undisturbed run by %g", diff)
	}
	if merged.Recoveries == 0 {
		t.Fatalf("no recoveries counted: %+v", merged)
	}
	if merged.Checkpoint.Restores == 0 {
		t.Fatalf("no disk restores counted — the adopted tiles did not come from the rotations: %+v", merged.Checkpoint)
	}

	decisions.Lock()
	plans := append([]resilience.Plan(nil), decisions.plans...)
	decisions.Unlock()
	var esc *resilience.Plan
	for i := range plans {
		if len(plans[i].DeadRanks) > 0 {
			esc = &plans[i]
		}
	}
	if esc == nil {
		t.Fatalf("no escalation plan was published (decisions: %+v)", plans)
	}
	if len(esc.DeadRanks) != 2 || esc.DeadRanks[0] != 2 || esc.DeadRanks[1] != 3 {
		t.Fatalf("escalation declared %v dead, want [2 3]", esc.DeadRanks)
	}
	if esc.Disk != dir {
		t.Fatalf("escalation plan names disk %q, want %q", esc.Disk, dir)
	}
	if esc.RestartGen != 8 {
		t.Fatalf("escalation restarts at generation %d, want 8 (newest common disk checkpoint before the kill)", esc.RestartGen)
	}
	if esc.Err != "" {
		t.Fatalf("escalation plan aborted: %s", esc.Err)
	}
}

// collectAndCompare waits for the expected finishers, assembles the global
// domain from their hosted tiles, and requires bit-identity plus non-zero
// recovery counters.
func collectAndCompare(t *testing.T, want *grid.Grid[float64], results <-chan runResult, finishers, victim int) {
	t.Helper()
	got := grid.New[float64](want.Nx(), want.Ny())
	covered := map[int]bool{}
	var merged stats.Stats
	deadline := time.After(90 * time.Second)
	for n := 0; n < finishers; {
		select {
		case r := <-results:
			if r.rank == victim && r.cl == nil && r.err == nil {
				continue // the killed virtual process's own (ignored) exit
			}
			if r.err != nil {
				t.Fatalf("rank %d: %v", r.rank, r.err)
			}
			g := r.cl.Gather()
			for _, id := range r.cl.LocalRanks() {
				tile := r.cl.Tile(id)
				for y := tile.Y0; y < tile.Y1; y++ {
					copy(got.Row(y)[tile.X0:tile.X1], g.Row(y)[tile.X0:tile.X1])
				}
				covered[id] = true
			}
			merged = merged.Merge(r.extra)
			r.cl.Close()
			n++
		case <-deadline:
			t.Fatalf("recovery did not complete; %d of %d finishers, tiles %v", len(covered), finishers, covered)
		}
	}
	for id := 0; id < 4; id++ {
		if !covered[id] {
			t.Fatalf("no finisher hosts rank %d's tile (covered %v)", id, covered)
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
}
