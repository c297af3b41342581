package dist

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// TestClusterDepthKMatchesReference is the depth-k pin: with HaloDepth
// k > 1 the cluster exchanges wide halos every k iterations and
// redundantly recomputes shrinking boundary shells in between, and the
// result must STILL be bit-identical to the single-process reference —
// for every boundary condition, for row-band / column-band / 2-D grid
// topologies, for star and full-box kernels (the box exercises the corner
// threading through the two-phase exchange), with a constant field (which
// the shells read beyond the tile), and for iteration counts
// both on and off an exchange boundary (a gather mid-cycle reads tiles
// whose shells are valid but unexchanged).
func TestClusterDepthKMatchesReference(t *testing.T) {
	const nx, ny = 33, 40
	kernels := []struct {
		name  string
		st    *stencil.Stencil[float64]
		withC bool // a constant field, which the shells sweep too
	}{
		{"laplace5", stencil.Laplace5[float64](0.2), false},
		{"boxblur", stencil.BoxBlur[float64](), false},
		{"laplace5+C", stencil.Laplace5[float64](0.15), true},
	}
	topos := []struct{ rx, ry int }{{1, 4}, {4, 1}, {2, 2}}
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		for _, kr := range kernels {
			for _, topo := range topos {
				for _, depth := range []int{2, 4} {
					for _, iters := range []int{8, 9} {
						name := fmt.Sprintf("%s/%s/%dx%d/k%d/iters%d", bc, kr.name, topo.ry, topo.rx, depth, iters)
						t.Run(name, func(t *testing.T) {
							op := &stencil.Op2D[float64]{St: kr.st, BC: bc, BCValue: 42}
							if kr.withC {
								op.C = grid.New[float64](nx, ny)
								op.C.FillFunc(func(x, y int) float64 { return 0.01 * float64(x-y) })
							}
							init := testInit(nx, ny)
							want := reference(t, op, init, iters)

							opt := strictOpts()
							opt.HaloDepth = depth
							c, err := NewClusterGrid(op, init, topo.rx, topo.ry, opt)
							if err != nil {
								t.Fatal(err)
							}
							defer c.Close()
							c.Run(iters)
							if ts := c.Stats(); ts.Detections != 0 {
								t.Fatalf("false positive under depth-%d: %+v", depth, ts)
							}
							if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
								t.Fatalf("depth-%d cluster deviates from reference by %g", depth, diff)
							}
						})
					}
				}
			}
		}
	}
}

// TestClusterDepthKSplitRuns verifies the depth-k cycle position is keyed
// on the absolute iteration: a run split at a non-exchange boundary must
// resume mid-cycle and stay bit-identical to the unsplit run.
func TestClusterDepthKSplitRuns(t *testing.T) {
	const nx, ny, iters = 33, 40, 10
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Mirror}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	opt := strictOpts()
	opt.HaloDepth = 4
	c, err := NewClusterGrid(op, init, 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(3) // stops at sub-iteration 3 of the first depth-4 cycle
	c.Run(iters - 3)
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("split depth-4 run deviates from reference by %g", diff)
	}
}

// TestClusterDepthKTCP runs the depth-k schedule over the real TCP
// backend (single-process loopback) and demands bit-identity with the
// reference.
func TestClusterDepthKTCP(t *testing.T) {
	const nx, ny, iters = 33, 40, 8
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	opt := strictOpts()
	opt.HaloDepth = 2
	opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
		tr, err := NewTCPTransport[float64](TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
		if err != nil {
			t.Fatalf("NewTCPTransport: %v", err)
		}
		return tr
	}
	c, err := NewClusterGrid(op, init, 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(iters)
	if ts := c.Stats(); ts.Detections != 0 {
		t.Fatalf("false positive over TCP: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("depth-2 TCP cluster deviates from reference by %g", diff)
	}
}

// TestClusterDepthKCounters pins the communication-avoiding arithmetic:
// with depth k, halo exchange rounds and barriers happen once every k
// iterations instead of every iteration. It also pins what the pipelined
// x-phase leaves between Run calls: at depth 1 every rank has posted the
// next iteration's strip to its one x neighbour ahead of the last barrier,
// so the transport has seen exactly that many more sends than receives; at
// depth k > 1 nothing is pre-posted and the two agree. The ranks' own
// HaloByDir counters charge a strip to the iteration that consumes it and
// stay exact either way.
func TestClusterDepthKCounters(t *testing.T) {
	const nx, ny, iters, ranks = 33, 40, 8, 4
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	for _, tc := range []struct{ depth, inFlight int }{{1, ranks}, {2, 0}} {
		ct := &countingTransport{}
		opt := strictOpts()
		opt.HaloDepth = tc.depth
		opt.WrapTransport = func(tr Transport[float64], rx, ry int, ring bool) Transport[float64] {
			ct.Transport = tr
			return ct
		}
		c, err := NewClusterGrid(op, testInit(nx, ny), 2, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Run(iters)

		rounds := iters / tc.depth // every iteration with iter%depth == 0
		if wantB := ranks * rounds; ct.barriers != wantB {
			t.Errorf("depth %d: barriers = %d, want %d (one per rank per exchange round)", tc.depth, ct.barriers, wantB)
		}
		// Each rank of a 2x2 grid has exactly two neighbours.
		wantR := 2 * ranks * rounds
		if ct.sends != wantR+tc.inFlight || ct.recvs != wantR {
			t.Errorf("depth %d: sends/recvs = %d/%d, want %d/%d (%d strips in flight between Runs)",
				tc.depth, ct.sends, ct.recvs, wantR+tc.inFlight, wantR, tc.inFlight)
		}
		byDir := 0
		for _, n := range c.Stats().HaloByDir {
			byDir += n
		}
		if byDir != wantR {
			t.Errorf("depth %d: HaloByDir sums to %d, want the %d strips consumed", tc.depth, byDir, wantR)
		}
		for _, s := range c.RankStats() {
			if s.HaloExchanges != rounds {
				t.Errorf("depth %d: rank HaloExchanges = %d, want %d", tc.depth, s.HaloExchanges, rounds)
			}
			if s.Iterations != iters {
				t.Errorf("depth %d: rank Iterations = %d, want %d", tc.depth, s.Iterations, iters)
			}
		}
	}
}

// TestClusterThinTileStrips runs a radius-2 star kernel over tiles only 3
// points wide, narrower than the two halo strips that feed them. Still
// bit-exact.
func TestClusterThinTileStrips(t *testing.T) {
	st := &stencil.Stencil[float64]{Name: "star-r2", Points: []stencil.Point[float64]{
		{DX: 0, DY: 0, W: 0.4},
		{DX: -1, DY: 0, W: 0.1}, {DX: 1, DY: 0, W: 0.1},
		{DX: -2, DY: 0, W: 0.05}, {DX: 2, DY: 0, W: 0.05},
		{DX: 0, DY: -1, W: 0.1}, {DX: 0, DY: 1, W: 0.1},
		{DX: 0, DY: -2, W: 0.05}, {DX: 0, DY: 2, W: 0.05},
	}}
	const nx, ny, iters = 12, 12, 6
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic} {
		t.Run(bc.String(), func(t *testing.T) {
			op := &stencil.Op2D[float64]{St: st, BC: bc}
			init := testInit(nx, ny)
			want := reference(t, op, init, iters)

			// 4 columns x 4 rows of 3-wide, 3-tall tiles: 3 < 2*radius.
			c, err := NewClusterGrid(op, init, 4, 4, strictOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Run(iters)
			if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
				t.Fatalf("thin-tile cluster deviates from reference by %g", diff)
			}
		})
	}
}

// lateRecv delays every halo receive before it reaches the backend, so
// senders run ahead of their receivers.
type lateRecv struct{ Transport[float64] }

func (l lateRecv) Recv(to int, d Dir) []float64 {
	time.Sleep(200 * time.Microsecond)
	return l.Transport.Recv(to, d)
}

// TestClusterLateStrips runs a 2x2 box-kernel grid whose tiles are one
// column wider than the halo, so a tile's two x strips overlap in all but
// one column, with each receive held back: the gathered grid must be bit-identical to
// the single-process reference and every counter equal to the prompt run's,
// at depth 1 and 2, on both backends.
func TestClusterLateStrips(t *testing.T) {
	const ny, iters = 10, 9
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Clamp}
	for _, tcp := range []bool{false, true} {
		for _, depth := range []int{1, 2} {
			t.Run(fmt.Sprintf("tcp=%v/depth=%d", tcp, depth), func(t *testing.T) {
				init := testInit(2*(depth*op.St.RadiusX()+1), ny)
				want := reference(t, op, init, iters)
				run := func(late bool) Stats {
					opt := strictOpts()
					opt.HaloDepth = depth
					if tcp {
						opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
							return newLoopbackTCP(t, rx, ry, ring)
						}
					}
					if late {
						opt.WrapTransport = func(tr Transport[float64], _, _ int, _ bool) Transport[float64] {
							return lateRecv{tr}
						}
					}
					c, err := NewClusterGrid(op, init, 2, 2, opt)
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					c.Run(iters)
					if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
						t.Fatalf("late=%v: cluster deviates from the reference by %g", late, diff)
					}
					return c.Stats()
				}
				if prompt, late := run(false), run(true); !reflect.DeepEqual(prompt, late) {
					t.Fatalf("late strips changed the counters:\nprompt %+v\nlate   %+v", prompt, late)
				}
			})
		}
	}
}

// TestClusterDepthKFaultCorrected injects a bit flip mid-tile under
// depth-2 ghost zones: the owning rank must detect and correct it with
// the depth-k interpolators. The corrupted row is re-evaluated from the
// read buffer before the neighbours' shells or the next exchange can see
// it, so the run ends bit-identical to the reference
// (TestClusterGridRepairIsBitwise covers every bit position).
func TestClusterDepthKFaultCorrected(t *testing.T) {
	const nx, ny, iters = 33, 40, 8
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	init := testInit(nx, ny)
	want := reference(t, op, init, iters)

	opt := strictOpts()
	opt.HaloDepth = 2
	opt.Inject = fault.NewPlan(fault.Injection{Iteration: 3, X: 8, Y: 10, Bit: 35})
	c, err := NewClusterGrid(op, init, 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(iters)

	ts := c.Stats()
	if ts.Detections == 0 {
		t.Fatalf("injected fault not detected under depth-2: %+v", ts)
	}
	if ts.CorrectedPoints == 0 && ts.ChecksumRepairs == 0 {
		t.Fatalf("injected fault not corrected under depth-2: %+v", ts)
	}
	if diff := c.Gather().MaxAbsDiff(want); diff != 0 {
		t.Fatalf("corrected depth-2 run deviates from reference by %g", diff)
	}
}

// TestClusterRunAllocs pins the tentpole allocation property: once a
// cluster is warm, a steady-state Run performs zero heap allocations per
// iteration — persistent rank goroutines, preallocated pack buffers,
// site-free sweep paths.
func TestClusterRunAllocs(t *testing.T) {
	const nx, ny = 64, 64
	op := &stencil.Op2D[float64]{St: stencil.Laplace5[float64](0.2), BC: grid.Clamp}
	c, err := NewClusterGrid(op, testInit(nx, ny), 2, 2, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(2) // warm-up: plan caches, goroutine stacks

	if avg := testing.AllocsPerRun(10, func() { c.Run(1) }); avg != 0 {
		t.Errorf("steady-state Run(1) allocates %.1f times per call, want 0", avg)
	}

	// With a receive timeout set, a Recv whose strip has already arrived
	// arms no timer, and one that waits re-arms its rank's.
	opt := strictOpts()
	opt.RecvTimeout = time.Minute
	cto, err := NewClusterGrid(op, testInit(nx, ny), 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cto.Close()
	cto.Run(2)
	if avg := testing.AllocsPerRun(10, func() { cto.Run(1) }); avg != 0 {
		t.Errorf("steady-state Run(1) with a receive timeout allocates %.1f times per call, want 0", avg)
	}

	// The same cluster over loopback sockets: every frame of an edge is
	// serialised into the edge's one wire buffer, decoded strips rotate
	// through the reader's buffers (so the warm-up must fill that rotation:
	// six strips an edge), receive deadlines run on one timer a box. The
	// target is 0; the bound leaves room for a timer the runtime
	// re-allocates.
	opt = strictOpts()
	opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
		tr, err := NewTCPTransport[float64](TCPConfig{RanksX: rx, RanksY: ry, Ring: ring})
		if err != nil {
			t.Fatalf("NewTCPTransport: %v", err)
		}
		return tr
	}
	ct, err := NewClusterGrid(op, testInit(nx, ny), 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	ct.Run(8)
	if avg := testing.AllocsPerRun(10, func() { ct.Run(1) }); avg > 2 {
		t.Errorf("steady-state Run(1) over tcp allocates %.1f times per call, want 0 and at most 2", avg)
	}

	// The slab cluster runs on the same shell and on the chunk's step, as
	// core.Online3D does.
	op3 := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	s, err := NewCluster3D(op3, testInit3D(16, 16, 9), 3, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Run(2)
	if avg := testing.AllocsPerRun(10, func() { s.Run(1) }); avg != 0 {
		t.Errorf("steady-state slab Run(1) allocates %.1f times per call, want 0", avg)
	}
}
