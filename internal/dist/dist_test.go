package dist

import (
	"fmt"
	"sync"
	"testing"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

func testInit(nx, ny int) *grid.Grid[float64] {
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 80 + float64((x*31+y*17)%23) + 0.25*float64(y) })
	return g
}

func strictOpts() Options[float64] {
	return Options[float64]{Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}}
}

// reference runs the unprotected single-process baseline.
func reference(t *testing.T, op *stencil.Op2D[float64], init *grid.Grid[float64], iters int) *grid.Grid[float64] {
	t.Helper()
	ref, err := core.NewNone2D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	return ref.Grid()
}

// injectedCluster builds a row-band cluster with the injections configured
// up front (absolute iterations) and closes it with the test.
func injectedCluster(t *testing.T, op *stencil.Op2D[float64], init *grid.Grid[float64], ranks int, injs ...fault.Injection) *Cluster[float64] {
	t.Helper()
	opt := strictOpts()
	opt.Inject = fault.NewPlan(injs...)
	c, err := NewClusterGrid(op, init, 1, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClusterMatchesReference: an error-free cluster run must reproduce the
// single-process sweep bit for bit, for every boundary condition and for
// rank counts that divide the domain evenly and unevenly. The halo rows
// feed each rank exactly the values the global sweep would read, in the
// same accumulation order, so not even floating-point noise may differ.
func TestClusterMatchesReference(t *testing.T) {
	const nx, ny, iters = 33, 40, 12
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		for _, ranks := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("%s/ranks%d", bc, ranks), func(t *testing.T) {
				op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: bc, BCValue: 42}
				init := testInit(nx, ny)
				want := reference(t, op, init, iters)

				c, err := NewClusterGrid(op, init, 1, ranks, strictOpts())
				if err != nil {
					t.Fatal(err)
				}
				c.Run(iters)
				if ts := c.Stats(); ts.Detections != 0 {
					t.Fatalf("false positive: %+v", ts)
				}
				if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
					t.Fatalf("cluster deviates from reference by %g", diff)
				}
			})
		}
	}
}

// TestClusterAsymmetricStencil exercises the band seam with a stencil whose
// boundary terms do not cancel (Advect2D), the case the paper's simplified
// listings cannot handle: exact beta terms plus halo-fed y-shifts must keep
// the run detection-free and bitwise equal to the reference.
func TestClusterAsymmetricStencil(t *testing.T) {
	const nx, ny, iters = 24, 30, 10
	op := &stencil.Op2D[float64]{St: stencil.Advect2D(0.3, 0.15), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	c, err := NewClusterGrid(op, init, 1, 4, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(iters)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("false positive: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("cluster deviates from reference by %g", diff)
	}
}

// TestClusterConstantField verifies the per-rank slicing of the constant
// field C (Equation 1's c term) in both the sweep and the interpolator.
func TestClusterConstantField(t *testing.T) {
	const nx, ny, iters = 20, 28, 8
	cfield := grid.New[float64](nx, ny)
	cfield.FillFunc(func(x, y int) float64 { return 0.01 * float64(x-y) })
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.15), BC: grid.Clamp, C: cfield}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	c, err := NewClusterGrid(op, init, 1, 3, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	c.Run(iters)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("false positive: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("cluster deviates from reference by %g", diff)
	}
}

// TestClusterInjectionRouting: a global-coordinate injection must reach
// exactly the rank owning its row, be detected and corrected there, and
// leave every other rank untouched.
func TestClusterInjectionRouting(t *testing.T) {
	const nx, ny, iters, ranks = 16, 24, 12, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	// Row 12 lies in rank 1's band (rows 8..15).
	c := injectedCluster(t, op, init, ranks, fault.Injection{Iteration: 4, X: 8, Y: 12, Bit: 60})
	c.Run(iters)

	for i, s := range c.RankStats() {
		if i == 1 {
			if s.Detections != 1 || s.CorrectedPoints != 1 {
				t.Fatalf("owning rank 1: %+v", s)
			}
		} else if s.Detections != 0 || s.CorrectedPoints != 0 {
			t.Fatalf("bystander rank %d saw the error: %+v", i, s)
		}
	}
	if diff := c.Gather().MaxAbsDiff(want); diff > 1e-6 {
		t.Fatalf("residual after correction too large: %g", diff)
	}
}

// TestClusterBandBoundaryInjection corrupts the first row of an interior
// band — the row that becomes the upper neighbour's halo. Correction runs
// before the next exchange, so the neighbour must never see (or flag) the
// corruption.
func TestClusterBandBoundaryInjection(t *testing.T) {
	const nx, ny, iters, ranks = 16, 24, 12, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	// Row 8 is rank 1's first row, exchanged into rank 0's halo.
	c := injectedCluster(t, op, init, ranks, fault.Injection{Iteration: 5, X: 3, Y: 8, Bit: 58})
	c.Run(iters)

	st := c.RankStats()
	if st[1].Detections != 1 || st[1].CorrectedPoints != 1 {
		t.Fatalf("owning rank 1: %+v", st[1])
	}
	if st[0].Detections != 0 || st[2].Detections != 0 {
		t.Fatalf("corruption leaked across the band seam: %+v / %+v", st[0], st[2])
	}
	if diff := c.Gather().MaxAbsDiff(want); diff > 1e-6 {
		t.Fatalf("residual after correction too large: %g", diff)
	}
}

// TestClusterPeriodicInjection exercises the ring wiring: with periodic
// boundaries the top rank's halo is the bottom rank's data, and an error in
// either must stay a local affair.
func TestClusterPeriodicInjection(t *testing.T) {
	const nx, ny, iters, ranks = 16, 24, 10, 4
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Periodic}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	// Row 0 is rank 0's first row, wrapped into rank 3's halo.
	c := injectedCluster(t, op, init, ranks, fault.Injection{Iteration: 3, X: 5, Y: 0, Bit: 59})
	c.Run(iters)

	st := c.RankStats()
	if st[0].Detections != 1 || st[0].CorrectedPoints != 1 {
		t.Fatalf("owning rank 0: %+v", st[0])
	}
	for i := 1; i < ranks; i++ {
		if st[i].Detections != 0 {
			t.Fatalf("rank %d flagged a remote error: %+v", i, st[i])
		}
	}
	if diff := c.Gather().MaxAbsDiff(want); diff > 1e-6 {
		t.Fatalf("residual after correction too large: %g", diff)
	}
}

// TestClusterMultiRankInjections lands one flip in each of two different
// ranks during the same iteration; both must repair independently.
func TestClusterMultiRankInjections(t *testing.T) {
	const nx, ny, iters, ranks = 20, 32, 10, 4
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)

	c := injectedCluster(t, op, init, ranks,
		fault.Injection{Iteration: 2, X: 4, Y: 2, Bit: 60},   // rank 0
		fault.Injection{Iteration: 2, X: 15, Y: 27, Bit: 59}, // rank 3
	)
	c.Run(iters)
	st := c.RankStats()
	for _, i := range []int{0, 3} {
		if st[i].Detections != 1 || st[i].CorrectedPoints != 1 {
			t.Fatalf("rank %d: %+v", i, st[i])
		}
	}
	for _, i := range []int{1, 2} {
		if st[i].Detections != 0 {
			t.Fatalf("bystander rank %d: %+v", i, st[i])
		}
	}
	ts := c.Stats()
	if ts.Detections != 2 || ts.CorrectedPoints != 2 {
		t.Fatalf("total: %+v", ts)
	}
}

// TestClusterUnevenBands checks the remainder-row distribution: band
// heights differ by at most one, cover the domain exactly, and the run
// still matches the reference.
func TestClusterUnevenBands(t *testing.T) {
	const nx, ny, iters, ranks = 16, 23, 8, 4
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	c, err := NewClusterGrid(op, init, 1, ranks, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := 0
	for i := 0; i < c.Ranks(); i++ {
		tile := c.Tile(i)
		if tile.X0 != 0 || tile.X1 != nx {
			t.Fatalf("band %d spans columns [%d,%d), want the full width", i, tile.X0, tile.X1)
		}
		y0, y1 := tile.Y0, tile.Y1
		if y0 != prevEnd {
			t.Fatalf("band %d starts at %d, want %d", i, y0, prevEnd)
		}
		if h := y1 - y0; h != ny/ranks && h != ny/ranks+1 {
			t.Fatalf("band %d height %d", i, h)
		}
		prevEnd = y1
	}
	if prevEnd != ny {
		t.Fatalf("bands cover %d rows, want %d", prevEnd, ny)
	}
	c.Run(iters)
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("cluster deviates from reference by %g", diff)
	}
}

// TestClusterValidation covers the constructor's error paths.
func TestClusterValidation(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(16, 8)

	if _, err := NewClusterGrid(op, init, 1, 0, Options[float64]{}); err == nil {
		t.Fatal("nRanks=0 accepted")
	}
	if _, err := NewClusterGrid(op, init, 1, -2, Options[float64]{}); err == nil {
		t.Fatal("negative nRanks accepted")
	}
	// 8 rows over 8 ranks leaves 1-row bands, not taller than radius 1.
	if _, err := NewClusterGrid(op, init, 1, 8, Options[float64]{}); err == nil {
		t.Fatal("bands at stencil radius accepted")
	}
	if _, err := NewClusterGrid(op, init, 1, 9, Options[float64]{}); err == nil {
		t.Fatal("more ranks than rows accepted")
	}
	// 4 ranks over 8 rows leaves 2-row bands: the tallest radius-1 fit.
	if _, err := NewClusterGrid(op, init, 1, 4, Options[float64]{}); err != nil {
		t.Fatalf("4 ranks over 8 rows rejected: %v", err)
	}
	// Operator errors surface before decomposition.
	bad := &stencil.Op2D[float64]{St: &stencil.Stencil[float64]{Name: "empty"}, BC: grid.Clamp}
	if _, err := NewClusterGrid(bad, init, 1, 2, Options[float64]{}); err == nil {
		t.Fatal("invalid stencil accepted")
	}
}

// TestClusterPool runs the per-rank sweeps over a shared worker pool; the
// partitioned sweep must stay bitwise identical to the sequential one.
func TestClusterPool(t *testing.T) {
	const nx, ny, iters, ranks = 32, 36, 10, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	opt := strictOpts()
	opt.Pool = &stencil.Pool{Workers: 4}
	c, err := NewClusterGrid(op, init, 1, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(iters)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("false positive: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("cluster deviates from reference by %g", diff)
	}
}

// TestClusterPoolInjection lands two flips in the same rank during the
// same iteration while that rank's sweep is chunked over a worker pool:
// the shared injection hook fires from concurrent workers (the scenario
// that races if the injector's hit log is unsynchronised — run with
// -race), and both corruptions must still be located and repaired.
func TestClusterPoolInjection(t *testing.T) {
	const nx, ny, iters = 64, 32, 8
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)

	opt := strictOpts()
	opt.Pool = &stencil.Pool{Workers: 8}
	opt.Inject = fault.NewPlan(
		fault.Injection{Iteration: 3, X: 5, Y: 2, Bit: 60},
		fault.Injection{Iteration: 3, X: 60, Y: 29, Bit: 59},
	)
	c, err := NewClusterGrid(op, init, 1, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(iters)
	ts := c.Stats()
	if ts.CorrectedPoints != 2 {
		t.Fatalf("expected both flips repaired: %+v", ts)
	}
}

// TestClusterRunResume: Run may be called repeatedly; iterations and stats
// accumulate, and injection iterations stay absolute across the calls.
func TestClusterRunResume(t *testing.T) {
	const nx, ny, ranks = 16, 24, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, 10)

	// Absolute iteration 6 is iteration 2 of the second call.
	c := injectedCluster(t, op, init, ranks, fault.Injection{Iteration: 6, X: 8, Y: 4, Bit: 60})
	c.Run(4)
	c.Run(6)
	if c.Iter() != 10 {
		t.Fatalf("iteration count %d, want 10", c.Iter())
	}
	ts := c.Stats()
	if ts.Detections != 1 || ts.CorrectedPoints != 1 {
		t.Fatalf("total stats: %+v", ts)
	}
	if ts.Iterations != 10 {
		t.Fatalf("cluster iterations %d, want lockstep sweeps (10), not rank-iterations", ts.Iterations)
	}
	summed := 0
	for _, s := range c.RankStats() {
		summed += s.Iterations
	}
	if summed != 10*ranks {
		t.Fatalf("summed rank iterations %d, want %d", summed, 10*ranks)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff > 1e-6 {
		t.Fatalf("residual after correction too large: %g", diff)
	}

	// Run(0) is a no-op.
	c.Run(0)
	if c.Iter() != 10 {
		t.Fatal("Run(0) advanced the cluster")
	}
}

// TestClusterHaloCounters: every rank refreshes its halos exactly once per
// iteration, and out-of-domain injections are dropped by the router.
func TestClusterHaloCounters(t *testing.T) {
	const nx, ny, iters, ranks = 16, 20, 7, 2
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	// Neither injection can land: one outside the domain, one in 3-D.
	c := injectedCluster(t, op, testInit(nx, ny), ranks,
		fault.Injection{Iteration: 1, X: nx + 5, Y: 3, Bit: 60},
		fault.Injection{Iteration: 1, X: 3, Y: 3, Z: 1, Bit: 60},
	)
	c.Run(iters)
	for i, s := range c.RankStats() {
		if s.HaloExchanges != iters {
			t.Fatalf("rank %d halo exchanges %d, want %d", i, s.HaloExchanges, iters)
		}
		if s.Iterations != iters || s.Verifications != iters {
			t.Fatalf("rank %d counters: %+v", i, s)
		}
		if s.Detections != 0 {
			t.Fatalf("dropped injection still detected: %+v", s)
		}
	}
}

// countingTransport wraps another Transport and counts traffic — a stand-in
// for a tracing wrapper that proves the cluster runs all its communication
// through the seam. It embeds the wrapped Transport and overrides only what
// it counts; every form of receive counts as one.
type countingTransport struct {
	Transport[float64]
	mu       sync.Mutex
	sends    int
	recvs    int
	barriers int
}

func (t *countingTransport) count(n *int) {
	t.mu.Lock()
	*n++
	t.mu.Unlock()
}

func (t *countingTransport) Send(from int, d Dir, data []float64) {
	t.count(&t.sends)
	t.Transport.Send(from, d, data)
}

func (t *countingTransport) Recv(to int, d Dir) []float64 {
	t.count(&t.recvs)
	return t.Transport.Recv(to, d)
}

func (t *countingTransport) TryRecv(to int, d Dir) ([]float64, bool) {
	data, ok := t.Transport.TryRecv(to, d)
	if ok {
		t.count(&t.recvs)
	}
	return data, ok
}

func (t *countingTransport) Barrier() {
	t.count(&t.barriers)
	t.Transport.Barrier()
}

// TestClusterCustomTransport swaps the default channel transport for a
// wrapped one and checks every halo message and barrier goes through it,
// with results still bit-identical to the reference.
func TestClusterCustomTransport(t *testing.T) {
	const nx, ny, iters, ranks = 16, 24, 9, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	var ct *countingTransport
	opt := strictOpts()
	opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
		if rx != 1 || ry != ranks || ring {
			t.Errorf("NewTransport called with grid %dx%d ring=%v", rx, ry, ring)
		}
		ct = &countingTransport{Transport: NewChanTransport[float64](rx, ry, ring)}
		return ct
	}
	c, err := NewClusterGrid(op, init, 1, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(iters)
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("custom transport deviates from reference by %g", diff)
	}
	// 3 ranks, non-periodic: 4 interior edges send+recv per iteration.
	if ct.sends != 4*iters || ct.recvs != 4*iters {
		t.Fatalf("transport saw %d sends / %d recvs, want %d each", ct.sends, ct.recvs, 4*iters)
	}
	if ct.barriers != ranks*iters {
		t.Fatalf("transport saw %d barrier arrivals, want %d", ct.barriers, ranks*iters)
	}
}

// TestClusterOptionsInject: a plan configured up front is applied by Run
// with absolute iteration indexing, so it survives split Run calls and
// Step-by-Step driving.
func TestClusterOptionsInject(t *testing.T) {
	const nx, ny, iters, ranks = 16, 24, 12, 3
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	opt := strictOpts()
	// Absolute iteration 7: lands inside the second Run call below.
	opt.Inject = fault.NewPlan(fault.Injection{Iteration: 7, X: 8, Y: 12, Bit: 60})
	c, err := NewClusterGrid(op, init, 1, ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("injection fired early: %+v", ts)
	}
	c.Run(5)
	for c.Iter() < iters {
		c.Step()
	}
	ts := c.Stats()
	if ts.Detections != 1 || ts.CorrectedPoints != 1 {
		t.Fatalf("absolute-iteration injection not handled exactly once: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff > 1e-6 {
		t.Fatalf("residual after correction too large: %g", diff)
	}
}
