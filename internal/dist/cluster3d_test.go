package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"stencilabft/internal/core"
	"stencilabft/internal/errs"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

func testInit3D(nx, ny, nz int) *grid.Grid3D[float64] {
	g := grid.New3D[float64](nx, ny, nz)
	g.FillFunc(func(x, y, z int) float64 {
		return 300 + float64((x*31+y*17+z*11)%23) + 0.25*float64(z)
	})
	return g
}

func star7() *stencil.Stencil[float64] {
	return stencil.SevenPoint3D[float64](0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10)
}

// online3DRef runs the single-process protector the slab ranks are built
// from, on the same spec, detector and injection plan.
func online3DRef(t *testing.T, op *stencil.Op3D[float64], init *grid.Grid3D[float64], iters int, plan *fault.Plan) *core.Online3D[float64] {
	t.Helper()
	opt := core.Options[float64]{Detector: strictOpts().Detector}
	if plan != nil {
		opt.Inject = fault.NewInjector[float64](plan)
	}
	ref, err := core.NewOnline3D(op, init, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)
	return ref
}

// requireSameBits fails unless the two grids agree in every bit.
func requireSameBits(t *testing.T, got, want *grid.Grid3D[float64], what string) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape differs from the reference", what)
	}
	for i, v := range got.Data() {
		if w := want.Data()[i]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: cell %d is %v, the single-process Online3D has %v", what, i, v, w)
		}
	}
}

// slabCase is one generated slab-cluster configuration.
type slabCase struct {
	nx, ny, nz, iters, ranks int
	st                       *stencil.Stencil[float64]
	bc                       grid.Boundary
	withC, pool              bool
	flips                    []fault.Injection
}

func (c slabCase) String() string {
	return fmt.Sprintf("%dx%dx%d %s rz=%d bc=%s C=%v ranks=%d pool=%v iters=%d flips=%v",
		c.nx, c.ny, c.nz, c.st.Name, c.st.RadiusZ(), c.bc, c.withC, c.ranks, c.pool, c.iters, c.flips)
}

// genSlabCase draws one configuration: odd and even sizes, z-radius 1 or 2
// (the canonical star7 kernel or a random generic stencil), every boundary
// condition, with and without a constant field, rank counts from one slab
// down to the thinnest the z-radius allows, a shared pool or none, and up
// to two high-exponent flips in distinct iterations.
func genSlabCase(rng *rand.Rand, i int) slabCase {
	c := slabCase{
		nx: 5 + rng.Intn(9), ny: 5 + rng.Intn(8), iters: 6 + rng.Intn(4),
		bc:    []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}[i%5],
		withC: rng.Intn(2) == 0, pool: rng.Intn(2) == 0,
	}
	rz := 1 + rng.Intn(2)
	c.nz = (rz+1)*(1+rng.Intn(4)) + rng.Intn(3)
	if rz == 1 && rng.Intn(2) == 0 {
		c.st = star7()
	} else {
		// Centre, one point at each z extreme, a few more anywhere; the
		// weights sum to one so values keep their magnitude.
		pts := []stencil.Point[float64]{{}, {DZ: -rz, DX: rng.Intn(3) - 1}, {DZ: rz, DY: rng.Intn(3) - 1}}
		for k := rng.Intn(4); k > 0; k-- {
			p := stencil.Point[float64]{DX: rng.Intn(5) - 2, DY: rng.Intn(3) - 1, DZ: rng.Intn(2*rz+1) - rz}
			if !slices.Contains(pts, p) {
				pts = append(pts, p)
			}
		}
		var sum float64
		for k := range pts {
			pts[k].W = 0.2 + rng.Float64()
			sum += pts[k].W
		}
		for k := range pts {
			pts[k].W /= sum
		}
		c.st = &stencil.Stencil[float64]{Name: fmt.Sprintf("gen%d", i), Points: pts}
	}
	switch most := maxParts(c.nz, rz); i % 3 {
	case 0:
		c.ranks = most // the thinnest legal slabs
	case 1:
		c.ranks = 1
	default:
		c.ranks = 1 + rng.Intn(most)
	}
	for _, it := range rng.Perm(c.iters - 2)[:rng.Intn(3)] {
		c.flips = append(c.flips, fault.Injection{Iteration: it + 1,
			X: rng.Intn(c.nx), Y: rng.Intn(c.ny), Z: rng.Intn(c.nz), Bit: 55 + rng.Intn(7)})
	}
	return c
}

// TestCluster3DMatchesOnline3D is the differential test of the slab
// deployment: over generated configurations, the gathered grid of a slab
// cluster equals the single-process core.Online3D on the same spec bit for
// bit — error-free and with injected flips alike, since a slab rank is
// that protector plus an exchange — and every flip is detected and
// repaired by the rank owning its layer and by no other. The sub-test name
// carries the seed that reproduces a failure.
func TestCluster3DMatchesOnline3D(t *testing.T) {
	const base, cases = 20261002, 150
	for i := 0; i < cases; i++ {
		seed := int64(base + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tc := genSlabCase(rand.New(rand.NewSource(seed)), i)
			t.Logf("case: %v", tc) // shown when the sub-test fails
			op := &stencil.Op3D[float64]{St: tc.st, BC: tc.bc, BCValue: 42}
			if tc.withC {
				op.C = grid.New3D[float64](tc.nx, tc.ny, tc.nz)
				op.C.FillFunc(func(x, y, z int) float64 { return 0.01 * float64(x-y+2*z) })
			}
			init := testInit3D(tc.nx, tc.ny, tc.nz)
			opt := strictOpts()
			if len(tc.flips) > 0 {
				opt.Inject = fault.NewPlan(tc.flips...)
			}
			if tc.pool {
				opt.Pool = &stencil.Pool{Workers: 3}
				defer opt.Pool.Close()
			}
			ref := online3DRef(t, op, init, tc.iters, opt.Inject)
			if s := ref.Stats(); s.Detections != len(tc.flips) || s.CorrectedPoints != len(tc.flips) {
				t.Fatalf("the reference handled %d flips as %+v", len(tc.flips), s)
			}

			c, err := NewCluster3D(op, init, tc.ranks, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Run(tc.iters)
			requireSameBits(t, c.Gather(), ref.Grid3D(), "gathered slabs")

			owned := make([]int, tc.ranks)
			for _, f := range tc.flips {
				for r := range owned {
					if s := c.decomp.TileOf(r); s.Y0 <= f.Z && f.Z < s.Y1 {
						owned[r]++
					}
				}
			}
			for r, s := range c.RankStats() {
				if s.Detections != owned[r] || s.CorrectedPoints != owned[r] || s.ChecksumRepairs != 0 {
					t.Fatalf("rank %d owns %d flip(s) and reports %+v", r, owned[r], s)
				}
			}
		})
	}
}

// TestCluster3DSlabsAndStats checks the slab partition, iteration
// accounting, topology tag and per-direction counters of the z chain.
func TestCluster3DSlabsAndStats(t *testing.T) {
	const nx, ny, nz, iters, ranks = 10, 8, 11, 7, 3
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	c, err := NewCluster3D(op, testInit3D(nx, ny, nz), ranks, strictOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prevEnd := 0
	for i := 0; i < c.Ranks(); i++ {
		s := c.decomp.TileOf(i) // the Y axis carries the layer range
		z0, z1 := s.Y0, s.Y1
		if z0 != prevEnd {
			t.Fatalf("slab %d starts at %d, want %d", i, z0, prevEnd)
		}
		if d := z1 - z0; d != nz/ranks && d != nz/ranks+1 {
			t.Fatalf("slab %d depth %d", i, d)
		}
		prevEnd = z1
	}
	if prevEnd != nz {
		t.Fatalf("slabs cover %d layers, want %d", prevEnd, nz)
	}
	c.Run(iters)
	if c.Iter() != iters {
		t.Fatalf("iterations %d, want %d", c.Iter(), iters)
	}
	for i, s := range c.RankStats() {
		if s.Topology != "layers 3" {
			t.Fatalf("rank %d topology %q", i, s.Topology)
		}
		if s.HaloExchanges != iters || s.Verifications != iters {
			t.Fatalf("rank %d counters: %+v", i, s)
		}
		wantDir := [4]int{}
		if i > 0 {
			wantDir[Up] = iters
		}
		if i < ranks-1 {
			wantDir[Down] = iters
		}
		if s.HaloByDir != wantDir {
			t.Fatalf("rank %d per-direction counters %v, want %v", i, s.HaloByDir, wantDir)
		}
	}
	ts := c.Stats()
	if ts.Iterations != iters || ts.Topology != "layers 3" {
		t.Fatalf("merged stats: %+v", ts)
	}
}

// TestCluster3DValidation covers the constructor's error paths. A slab no
// thicker than the z-radius is a thin tile, the client's mistake.
func TestCluster3DValidation(t *testing.T) {
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	init := testInit3D(10, 8, 6)

	if _, err := NewCluster3D(op, init, 0, Options[float64]{}); err == nil {
		t.Fatal("nRanks=0 accepted")
	}
	if _, err := NewCluster3D(op, init, -2, Options[float64]{}); err == nil {
		t.Fatal("negative nRanks accepted")
	}
	// 6 layers over 6 ranks leaves 1-layer slabs at z-radius 1.
	if _, err := NewCluster3D(op, init, 6, Options[float64]{}); !errors.Is(err, ErrThinTile) || !errors.Is(err, errs.ErrInvalidSpec) {
		t.Fatalf("slabs at the stencil z-radius: error %v is not a thin tile", err)
	}
	if _, err := NewCluster3D(op, init, 7, Options[float64]{}); !errors.Is(err, ErrThinTile) || !errors.Is(err, errs.ErrInvalidSpec) {
		t.Fatalf("more ranks than layers: error %v is not a thin tile", err)
	}
	// 3 ranks over 6 layers leaves 2-layer slabs: the thinnest radius-1 fit.
	c, err := NewCluster3D(op, init, 3, Options[float64]{})
	if err != nil {
		t.Fatalf("3 ranks over 6 layers rejected: %v", err)
	}
	c.Close()
}

// TestCluster3DStateRoundTrip: the shell's snapshot calls reach the slab
// ranks. A run rolled back to a PackState snapshot with RestoreState +
// SetIter and resumed must end on the bits of the uninterrupted run, an
// injection after the snapshot point replayed included.
func TestCluster3DStateRoundTrip(t *testing.T) {
	const nx, ny, nz, ranks, at, iters = 9, 7, 10, 3, 3, 9
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Mirror}
	opt := strictOpts()
	opt.Inject = fault.NewPlan(fault.Injection{Iteration: 5, X: 4, Y: 3, Z: 6, Bit: 58})
	c, err := NewCluster3D(op, testInit3D(nx, ny, nz), ranks, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(at)
	snaps := make([][]float64, ranks)
	for r := range snaps {
		snaps[r] = make([]float64, c.StateLen(r))
		c.PackState(r, snaps[r])
	}
	c.Run(iters - at)
	want := c.Gather()

	for r, s := range snaps {
		c.RestoreState(r, s)
	}
	c.SetIter(at)
	c.Run(iters - at)
	requireSameBits(t, c.Gather(), want, "resumed from the snapshot")
	if s := c.Stats(); s.CorrectedPoints != 2 {
		t.Fatalf("the flip at iteration 5 was repaired %d time(s) over the original and the replayed run, want 2: %+v", s.CorrectedPoints, s)
	}
}

// TestCluster3DOverTCP runs a 1x3 slab chain over real loopback sockets.
// The gathered grid must equal the single-process Online3D bit for bit,
// and Stats().Transport must equal the transport's own totals. A second
// chain has one connection failure induced on its 1->0 edge: the run ends
// in a classified fault, and the totals still agree — the transport-global
// counters (the poisoned edge) included, which have no owning rank and ride
// on rank 0's entry.
func TestCluster3DOverTCP(t *testing.T) {
	const nx, ny, nz, iters = 12, 9, 10, 12
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	init := testInit3D(nx, ny, nz)
	build := func(wrap func(conn net.Conn, from, to int, d Dir) net.Conn) *Cluster3D[float64] {
		opt := strictOpts()
		opt.NewTransport = func(rx, ry int, ring bool) Transport[float64] {
			tr, err := NewTCPTransport[float64](TCPConfig{RanksX: rx, RanksY: ry, Ring: ring, WrapConn: wrap})
			if err != nil {
				t.Fatalf("NewTCPTransport: %v", err)
			}
			return tr
		}
		c, err := NewCluster3D(op, init, 3, opt)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c := build(nil)
	c.Run(iters)
	requireSameBits(t, c.Gather(), online3DRef(t, op, init, iters, nil).Grid3D(), "slabs over tcp")
	got, want := c.Stats().Transport, c.TransportMetrics().Totals()
	if got != want {
		t.Fatalf("Stats().Transport = %+v, the transport's totals are %+v", got, want)
	}
	if want.FramesSent != 4*iters || want.PoisonEvents != 0 {
		t.Fatalf("totals %+v: want %d halo frames and no poisoned edge", want, 4*iters)
	}

	var countdown atomic.Int32
	countdown.Store(6) // fail the 6th write on the wrapped edge, once
	f := build(func(conn net.Conn, from, to int, d Dir) net.Conn {
		if from == 1 && to == 0 {
			return &flakyConn{Conn: conn, countdown: &countdown}
		}
		return conn
	})
	var fault *Fault
	if err := f.RunRecover(iters); !errors.As(err, &fault) || fault.Class != ClassPermanent {
		t.Fatalf("a broken connection ended the run with %v, want a ClassPermanent *Fault", err)
	}
	got, want = f.Stats().Transport, f.TransportMetrics().Totals()
	if got != want {
		t.Fatalf("after the fault, Stats().Transport = %+v, the transport's totals are %+v", got, want)
	}
	if want.PoisonEvents < 1 {
		t.Fatalf("totals %+v: want the broken edge counted as poisoned", want)
	}
}
