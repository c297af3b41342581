package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// TestClusterBuildGenerated holds the concurrent rank build to the serial
// one. Over generated 2-D rank grids and 3-D slab counts — every boundary
// condition, with and without a constant field, halo depth 1 and 2, both
// element types, one pool, detector and telemetry collector shared by all
// ranks — a cluster just built gathers its initial grid bit for bit, and
// every rank's packed state (its points and initial checksums) equals the
// one a second build of the same spec gives: for a 2-D grid, a build
// hosting that rank alone, which builds it inline on the caller. The
// sub-test name carries the seed that reproduces a failure.
func TestClusterBuildGenerated(t *testing.T) {
	const base, cases = 20261020, 120
	for i := 0; i < cases; i++ {
		seed := int64(base + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			switch i % 4 {
			case 0:
				clusterGridBuild(t, genGridCase[float32](rng, i))
			case 1:
				clusterGridBuild(t, genGridCase[float64](rng, i))
			case 2:
				clusterSlabBuild[float32](t, genSlabCase(rng, i))
			default:
				clusterSlabBuild[float64](t, genSlabCase(rng, i))
			}
		})
	}
}

// TestClusterBuildOwnsInit: a 2×1 cluster built from a generated init, with
// no pool and with a pool of 2, owns copies of its tiles. Once init is
// overwritten, the cluster still gathers the saved copy bit for bit, and each
// rank's verified column checksums (its PackState tail) are its tile's rows
// of that copy summed left to right from zero.
func TestClusterBuildOwnsInit(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%d/workers%d", seed, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				var pool *stencil.Pool
				if workers > 0 {
					pool = &stencil.Pool{Workers: workers}
					t.Cleanup(pool.Close)
				}
				if seed%2 == 0 {
					clusterOwnsInit[float32](t, rng, pool)
				} else {
					clusterOwnsInit[float64](t, rng, pool)
				}
			})
		}
	}
}

func clusterOwnsInit[T num.Float](t *testing.T, rng *rand.Rand, pool *stencil.Pool) {
	nx, ny := 8+rng.Intn(30), 5+rng.Intn(20)
	bcs := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}
	op := &stencil.Op2D[T]{St: stencil.Laplace5[T](0.2), BC: bcs[rng.Intn(len(bcs))], BCValue: 3}
	init := grid.New[T](nx, ny)
	init.FillFunc(func(int, int) T { return T(rng.Float64()*200 - 100) })
	want := append([]T(nil), init.Data()...)
	c, err := NewClusterGrid(op, init, 2, 1, Options[T]{Detector: checksum.NewDetector[T](), Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	init.Fill(-1)
	requireSameData(t, c.Gather().Data(), want)
	for id := range c.Ranks() {
		tl := c.decomp.TileOf(id)
		st := make([]T, c.StateLen(id))
		c.PackState(id, st)
		sums := st[tl.Nx()*tl.Ny():]
		for y := tl.Y0; y < tl.Y1; y++ {
			var s T
			for x := tl.X0; x < tl.X1; x++ {
				s += want[x+y*nx]
			}
			if got := sums[y-tl.Y0]; !num.SameBits(got, s) {
				t.Fatalf("rank %d: verified checksum of row %d = %v, want %v", id, y, got, s)
			}
		}
	}
}

// sharedBuildOpts returns options whose pool, detector and telemetry
// collector every rank of a build shares.
func sharedBuildOpts[T num.Float](t *testing.T, depth int) Options[T] {
	pool := &stencil.Pool{Workers: 2}
	t.Cleanup(pool.Close)
	return Options[T]{Detector: checksum.NewDetector[T](), Pool: pool, Telemetry: telemetry.New(0), HaloDepth: depth}
}

func clusterGridBuild[T num.Float](t *testing.T, tc gridCase[T]) {
	t.Logf("case: %v", tc) // shown when the sub-test fails
	op := &stencil.Op2D[T]{St: tc.st, BC: tc.bc, BCValue: 42, ForceGeneric: tc.generic}
	if tc.withC {
		op.C = grid.New[T](tc.nx, tc.ny)
		op.C.FillFunc(func(x, y int) T { return T(0.01 * float64(x-y)) })
	}
	init := grid.New[T](tc.nx, tc.ny)
	init.FillFunc(func(x, y int) T { return T(80 + float64((x*31+y*17)%23) + 0.25*float64(y)) })

	opt := sharedBuildOpts[T](t, tc.depth)
	c, err := NewClusterGrid(op, init, tc.ranksX, tc.ranksY, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	requireSameData(t, c.Gather().Data(), init.Data())
	if n := len(opt.Telemetry.Recorders()); n != c.Ranks() {
		t.Fatalf("%d ranks built %d telemetry recorders", c.Ranks(), n)
	}
	if ids := c.LocalRanks(); len(ids) != c.Ranks() || !slices.IsSorted(ids) {
		t.Fatalf("hosted ranks %v, want 0..%d in order", ids, c.Ranks()-1)
	}
	for id := range c.Ranks() {
		alone := opt
		alone.LocalRanks = []int{id}
		alone.NewTransport = func(rx, ry int, ring bool) Transport[T] { return NewChanTransport[T](rx, ry, ring) }
		one, err := NewClusterGrid(op, init, tc.ranksX, tc.ranksY, alone)
		if err != nil {
			t.Fatal(err)
		}
		requireSameState(t, id, &c.shell, &one.shell)
		one.Close()
	}
}

func clusterSlabBuild[T num.Float](t *testing.T, sc slabCase) {
	t.Logf("case: float%d %v", num.BitWidth[T](), sc)
	st := &stencil.Stencil[T]{Name: sc.st.Name}
	for _, p := range sc.st.Points {
		st.Points = append(st.Points, stencil.Point[T]{DX: p.DX, DY: p.DY, DZ: p.DZ, W: T(p.W)})
	}
	op := &stencil.Op3D[T]{St: st, BC: sc.bc, BCValue: 42}
	if sc.withC {
		op.C = grid.New3D[T](sc.nx, sc.ny, sc.nz)
		op.C.FillFunc(func(x, y, z int) T { return T(0.01 * float64(x-y+z)) })
	}
	init := grid.New3D[T](sc.nx, sc.ny, sc.nz)
	init.FillFunc(func(x, y, z int) T { return T(300 + float64((x*31+y*17+z*11)%23) + 0.25*float64(z)) })

	build := func() *Cluster3D[T] {
		c, err := NewCluster3D(op, init, sc.ranks, sharedBuildOpts[T](t, 1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c, again := build(), build()
	requireSameData(t, c.Gather().Data(), init.Data())
	for id := range c.Ranks() {
		requireSameState(t, id, &c.shell, &again.shell)
	}
}

// requireSameData fails unless got and want agree in every bit.
func requireSameData[T num.Float](t *testing.T, got, want []T) {
	t.Helper()
	for k, v := range got {
		if !num.SameBits(v, want[k]) {
			t.Fatalf("gathered cell %d is %v, the initial grid has %v", k, v, want[k])
		}
	}
}

// requireSameState fails unless rank id packs the same state in a and b.
func requireSameState[T num.Float](t *testing.T, id int, a, b *shell[T]) {
	t.Helper()
	sa, sb := make([]T, a.StateLen(id)), make([]T, b.StateLen(id))
	a.PackState(id, sa)
	b.PackState(id, sb)
	if !slices.EqualFunc(sa, sb, num.SameBits[T]) {
		t.Fatalf("rank %d packs a different state in a second build of the same spec", id)
	}
}
