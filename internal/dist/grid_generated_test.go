package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// gridCase is one generated tile-cluster configuration.
type gridCase[T num.Float] struct {
	nx, ny, iters, ranksX, ranksY, depth int
	st                                   *stencil.Stencil[T]
	bc                                   grid.Boundary
	generic, withC, pool                 bool
	flips                                []fault.Injection
}

func (c gridCase[T]) String() string {
	return fmt.Sprintf("float%d %dx%d %s (%d points, radius %d/%d) generic=%v bc=%s C=%v ranks %dx%d depth=%d pool=%v iters=%d flips=%v",
		num.BitWidth[T](), c.nx, c.ny, c.st.Name, len(c.st.Points), c.st.RadiusX(), c.st.RadiusY(), c.generic, c.bc, c.withC,
		c.ranksY, c.ranksX, c.depth, c.pool, c.iters, c.flips)
}

// genGridCase draws one configuration: odd and even sizes, the star5 and
// box9 kernels or a random generic stencil of radius 1 or 2 in each axis
// (the canonical ones also under ForceGeneric), every boundary condition,
// halo depth 1 or 2, with and without a constant field, rank grids from one
// rank down to the thinnest tiles the depth allows, a shared pool or none,
// and up to two high-exponent flips in distinct iterations.
func genGridCase[T num.Float](rng *rand.Rand, i int) gridCase[T] {
	c := gridCase[T]{
		nx: 5 + rng.Intn(14), ny: 5 + rng.Intn(12), iters: 6 + rng.Intn(4), depth: 1 + rng.Intn(2),
		bc:      []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}[i%5],
		generic: rng.Intn(4) == 0, withC: rng.Intn(2) == 0, pool: rng.Intn(2) == 0,
	}
	// weights draws n weights in (0, 1) summing to one, so values keep
	// their magnitude.
	weights := func(n int) []T {
		raw, sum := make([]float64, n), 0.0
		for k := range raw {
			raw[k] = 0.2 + rng.Float64()
			sum += raw[k]
		}
		w := make([]T, n)
		for k, v := range raw {
			w[k] = T(v / sum)
		}
		return w
	}
	switch rng.Intn(4) {
	case 0:
		w := weights(5)
		c.st = stencil.FivePoint(w[0], w[1], w[2], w[3], w[4])
	case 1:
		c.st = stencil.NinePoint([9]T(weights(9)))
	default:
		// The reach of each axis, in a random order with random others.
		r := [2]int{1 + rng.Intn(2), 1 + rng.Intn(2)}
		reach := [][2]int{{0, 0}, {r[0] * (1 - 2*rng.Intn(2)), 0}, {0, r[1] * (1 - 2*rng.Intn(2))}}
		for k := rng.Intn(5); k > 0; k-- {
			reach = append(reach, [2]int{rng.Intn(2*r[0]+1) - r[0], rng.Intn(2*r[1]+1) - r[1]})
		}
		rng.Shuffle(len(reach), func(a, b int) { reach[a], reach[b] = reach[b], reach[a] })
		var offs [][2]int
		for _, d := range reach {
			if !slices.Contains(offs, d) {
				offs = append(offs, d)
			}
		}
		c.st = &stencil.Stencil[T]{Name: fmt.Sprintf("gen%d", i)}
		for k, w := range weights(len(offs)) {
			c.st.Points = append(c.st.Points, stencil.Point[T]{DX: offs[k][0], DY: offs[k][1], W: w})
		}
	}
	mostX := maxParts(c.nx, c.depth*c.st.RadiusX())
	mostY := maxParts(c.ny, c.depth*c.st.RadiusY())
	switch i % 3 {
	case 0:
		c.ranksX, c.ranksY = mostX, mostY // the thinnest legal tiles
	case 1:
		c.ranksX, c.ranksY = 1+rng.Intn(mostX), 1
	default:
		c.ranksX, c.ranksY = 1+rng.Intn(mostX), 1+rng.Intn(mostY)
	}
	bit := 55 // exponent bits, so every flip is detected
	if num.BitWidth[T]() == 32 {
		bit = 24
	}
	for _, it := range rng.Perm(c.iters - 2)[:rng.Intn(3)] {
		c.flips = append(c.flips, fault.Injection{Iteration: it + 1,
			X: rng.Intn(c.nx), Y: rng.Intn(c.ny), Bit: bit + rng.Intn(7)})
	}
	return c
}

// TestClusterGridMatchesOnline2D is the differential test of the tile
// deployment: over generated configurations, the gathered grid of a tile
// cluster equals the single-process core.Online2D on the same spec bit for
// bit — error-free and with injected flips alike, since each flip is
// repaired by re-evaluating its row — and every flip is detected and
// repaired by the rank owning its cell and by no other. The sub-test name
// carries the seed that reproduces a failure.
func TestClusterGridMatchesOnline2D(t *testing.T) {
	const base, cases = 20261019, 150
	for i := 0; i < cases; i++ {
		seed := int64(base + i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			if i%2 == 0 {
				clusterGridMatchesOnline2D(t, genGridCase[float32](rng, i))
			} else {
				clusterGridMatchesOnline2D(t, genGridCase[float64](rng, i))
			}
		})
	}
}

// TestClusterGridMatchesOnline2DAboveGrain: tiles large enough that their
// box sweeps split over the shared pool (the generated cases' tiles all
// sweep on their rank's goroutine, under the pool's grain) match the
// single-process run too, a flip in each of two ranks' tiles included.
func TestClusterGridMatchesOnline2DAboveGrain(t *testing.T) {
	clusterGridMatchesOnline2D(t, gridCase[float32]{nx: 512, ny: 208, iters: 4, ranksX: 2, ranksY: 1, depth: 1,
		st: stencil.Laplace5[float32](0.2), bc: grid.Clamp, pool: true,
		flips: []fault.Injection{{Iteration: 1, X: 17, Y: 100, Bit: 27}, {Iteration: 2, X: 400, Y: 5, Bit: 28}}})
	clusterGridMatchesOnline2D(t, gridCase[float64]{nx: 200, ny: 520, iters: 3, ranksX: 1, ranksY: 2, depth: 2,
		st: stencil.BoxBlur[float64](), bc: grid.Periodic, pool: true,
		flips: []fault.Injection{{Iteration: 1, X: 150, Y: 300, Bit: 58}}})
}

func clusterGridMatchesOnline2D[T num.Float](t *testing.T, tc gridCase[T]) {
	t.Logf("case: %v", tc) // shown when the sub-test fails
	op := &stencil.Op2D[T]{St: tc.st, BC: tc.bc, BCValue: 42, ForceGeneric: tc.generic}
	if tc.withC {
		op.C = grid.New[T](tc.nx, tc.ny)
		op.C.FillFunc(func(x, y int) T { return T(0.01 * float64(x-y)) })
	}
	init := grid.New[T](tc.nx, tc.ny)
	init.FillFunc(func(x, y int) T { return T(80 + float64((x*31+y*17)%23) + 0.25*float64(y)) })
	det := checksum.NewDetector[T]()

	refOpt := core.Options[T]{Detector: det}
	opt := Options[T]{Detector: det, HaloDepth: tc.depth}
	if len(tc.flips) > 0 {
		opt.Inject = fault.NewPlan(tc.flips...)
		refOpt.Inject = fault.NewInjector[T](opt.Inject)
	}
	if tc.pool {
		opt.Pool = &stencil.Pool{Workers: 3}
		defer opt.Pool.Close()
	}
	ref, err := core.NewOnline2D(op, init, refOpt)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(tc.iters)
	if s := ref.Stats(); s.Detections != len(tc.flips) || s.CorrectedPoints != len(tc.flips) {
		t.Fatalf("the reference handled %d flips as %+v", len(tc.flips), s)
	}

	c, err := NewClusterGrid(op, init, tc.ranksX, tc.ranksY, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(tc.iters)
	got, want := c.Gather(), ref.Grid()
	for k, v := range got.Data() {
		if w := want.Data()[k]; !num.SameBits(v, w) {
			x, y := got.Coords(k)
			t.Fatalf("gathered tiles: (%d,%d) is %v, the single-process Online2D has %v", x, y, v, w)
		}
	}

	owned := make([]int, c.Ranks())
	for _, f := range tc.flips {
		owned[c.decomp.OwnerOf(f.X, f.Y)]++
	}
	for r, s := range c.RankStats() {
		if s.Detections != owned[r] || s.CorrectedPoints != owned[r] || s.ChecksumRepairs != 0 {
			t.Fatalf("rank %d owns %d flip(s) and reports %+v", r, owned[r], s)
		}
	}
}
