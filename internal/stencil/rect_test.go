package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// TestSweepRectFusedMatchesFullSweep: tiling the domain with rectangles and
// sweeping each must reproduce the full sweep bitwise, and the per-block
// fused checksums must equal the direct partial sums.
func TestSweepRectFusedMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nx, ny := 10+rng.Intn(20), 10+rng.Intn(20)
		bcs := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Zero}
		op := &Op2D[float64]{St: Laplace5(0.15 + 0.1*rng.Float64()), BC: bcs[rng.Intn(len(bcs))]}
		src := grid.New[float64](nx, ny)
		src.FillFunc(func(x, y int) float64 { return rng.Float64() * 10 })

		want := grid.New[float64](nx, ny)
		op.Sweep(want, src)

		got := grid.New[float64](nx, ny)
		bw, bh := 1+rng.Intn(nx), 1+rng.Intn(ny)
		for y0 := 0; y0 < ny; y0 += bh {
			for x0 := 0; x0 < nx; x0 += bw {
				x1, y1 := min(x0+bw, nx), min(y0+bh, ny)
				b := make([]float64, y1-y0)
				op.SweepRectFused(got, src, x0, y0, x1, y1, b, nil)
				direct := make([]float64, y1-y0)
				ChecksumBRect(got, x0, y0, x1, y1, direct)
				for j := range b {
					if b[j] != direct[j] {
						t.Fatalf("trial %d: block (%d,%d) fused b[%d]=%.17g direct %.17g",
							trial, x0, y0, j, b[j], direct[j])
					}
				}
			}
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: tiled sweep diverged by %g (blocks %dx%d)", trial, d, bw, bh)
		}
	}
}

func TestSweepRectFusedSite(t *testing.T) {
	nx, ny := 8, 8
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	src := grid.New[float64](nx, ny)
	src.Fill(1)
	dst := grid.New[float64](nx, ny)
	b := make([]float64, 4)
	hit := false
	sites := []Site[float64]{{X: 5, Y: 3, Mutate: func(v float64) float64 {
		hit = true
		return v + 7
	}}}
	op.SweepRectFused(dst, src, 4, 2, 8, 6, b, sites)
	if !hit {
		t.Fatal("site not applied inside the rectangle")
	}
	if dst.At(5, 3) != 1+7 {
		t.Fatalf("injected value %g", dst.At(5, 3))
	}
	// Fused checksum includes the corruption.
	direct := make([]float64, 4)
	ChecksumBRect(dst, 4, 2, 8, 6, direct)
	if b[1] != direct[1] {
		t.Fatal("fused checksum missed the injected value")
	}
}

func TestSweepRectFusedValidation(t *testing.T) {
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	g := grid.New[float64](8, 8)
	h := grid.New[float64](8, 8)
	for _, r := range [][4]int{{-1, 0, 4, 4}, {0, 0, 9, 4}, {4, 4, 2, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rect %v did not panic", r)
				}
			}()
			op.SweepRectFused(h, g, r[0], r[1], r[2], r[3], nil, nil)
		}()
	}
}

func TestChecksumARect(t *testing.T) {
	g := grid.New[float64](4, 3)
	g.FillFunc(func(x, y int) float64 { return float64(x + 10*y) })
	a := make([]float64, 2)
	ChecksumARect(g, 1, 1, 3, 3, a)
	// Columns 1,2 over rows 1,2: (11+21)=32, (12+22)=34.
	if a[0] != 32 || a[1] != 34 {
		t.Fatalf("ARect = %v", a)
	}
}

// TestChecksumBRectGenerated holds ChecksumBRect, which sums four rows a
// trip, to a plain left-to-right sum from zero of each row, bit for bit, over
// generated boxes of both element types: x0/y0 offsets, widths from 0 to the
// whole row, heights 1–9 (four-row trips and every tail length), and cells
// drawn from ±0, subnormals, ±Inf, NaN and magnitudes 1e-30…1e30 of either
// sign, so an entry that is not the row's own ordered sum — two partial sums
// of a row, a row added to its neighbour's accumulator — shows in its bits.
// The entries of b past the box's height must be left alone. A failing case
// is named by its seed.
func TestChecksumBRectGenerated(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			if seed%2 == 0 {
				checksumBRectGenerated[float32](t, rng)
			} else {
				checksumBRectGenerated[float64](t, rng)
			}
		})
	}
}

func checksumBRectGenerated[T num.Float](t *testing.T, rng *rand.Rand) {
	nx, ny := 1+rng.Intn(40), 1+rng.Intn(24)
	x0, y0 := rng.Intn(nx), rng.Intn(ny)
	x1 := x0 + rng.Intn(nx-x0+1)
	if rng.Intn(4) == 0 {
		x0, x1 = 0, nx
	}
	h := min(1+rng.Intn(9), ny-y0)
	y1 := y0 + h
	inf := T(math.Inf(1))
	// The one NaN in play is the one the hardware makes, so that the
	// payload of a sum does not depend on which operand carried it.
	nan := inf - inf
	// One row in a few carries a non-finite cell in most cases; in a third
	// of them none does, so most sums are finite and order-sensitive.
	nonFinite := []int{0, 1, 4}[rng.Intn(3)]
	// Finite magnitudes come from a decade window of the case inside
	// 1e-30…1e30: a narrow one keeps a row's cells comparable, so that a
	// sum in another order rounds differently; the widest spans it all.
	span := []float64{0.5, 3, 60}[rng.Intn(3)]
	lo := -30 + (60-span)*rng.Float64()
	g := grid.New[T](nx, ny)
	g.FillFunc(func(x, y int) T {
		switch k := rng.Intn(100); {
		case k < 5:
			return T(math.Copysign(0, -1))
		case k < 10:
			// Subnormal in either type: float32's smallest normal is ≈ 1.2e-38.
			return T(float64(1+rng.Intn(1<<20)) * 1e-45)
		case k < 10+nonFinite:
			switch rng.Intn(3) {
			case 0:
				return -inf
			case 1:
				return inf
			}
			return nan
		}
		v := T(math.Pow(10, lo+span*rng.Float64()))
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	})
	const sentinel = -12345
	b := make([]T, h+3)
	for j := range b {
		b[j] = sentinel
	}
	ChecksumBRect(g, x0, y0, x1, y1, b)
	for j := range h {
		var want T
		for x := x0; x < x1; x++ {
			want += g.At(x, y0+j)
		}
		if !num.SameBits(b[j], want) {
			t.Fatalf("%dx%d grid, box [%d,%d)x[%d,%d): b[%d] = %v (%#x), want %v (%#x)",
				nx, ny, x0, x1, y0, y1, j, b[j], bitsOf(b[j]), want, bitsOf(want))
		}
	}
	for j := h; j < len(b); j++ {
		if b[j] != sentinel {
			t.Fatalf("%dx%d grid, box [%d,%d)x[%d,%d): b[%d] = %v past the box's %d rows", nx, ny, x0, x1, y0, y1, j, b[j], h)
		}
	}
}

// bitsOf is v's IEEE-754 representation, for failure messages.
func bitsOf[T num.Float](v T) uint64 {
	if num.BitWidth[T]() == 32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// TestSweepRectGenerated holds SweepRectFused, the 2-D row sweep, to the
// per-point reference (naiveSweepRect) bit for bit, grid and fused checksums,
// over generated cases: star5, box9 and generic stencils (radius 1 or 2, the
// canonical ones also under ForceGeneric), all five boundaries, both element
// types, with and without a constant field and sites, and rectangles whose
// interior segment is empty or one cell wide — edge columns and edge rows
// alone, nx = 3 — beside whole domains and arbitrary ones. Cells outside the
// rectangle must be left as they were. A failing case is named by its seed.
func TestSweepRectGenerated(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			if seed%2 == 0 {
				sweepRectGenerated[float32](t, rng)
			} else {
				sweepRectGenerated[float64](t, rng)
			}
		})
	}
}

func sweepRectGenerated[T num.Float](t *testing.T, rng *rand.Rand) {
	rc := genRectCase[T](t, rng)
	op, src, x0, y0, x1, y1, sites, what := rc.op, rc.src, rc.x0, rc.y0, rc.x1, rc.y1, rc.sites, rc.what
	nx, ny := src.Nx(), src.Ny()
	ref, got := grid.New[T](nx, ny), grid.New[T](nx, ny)
	ref.Fill(-7)
	got.Fill(-7)
	bRef, bGot := make([]T, y1-y0), make([]T, y1-y0)
	naiveSweepRect(op, ref, src, x0, y0, x1, y1, bRef, hookOf(sites))
	op.SweepRectFused(got, src, x0, y0, x1, y1, bGot, sites)
	sameRect(t, what, got, ref, 0, y0, nx, y1, bGot, bRef)
	for i, v := range ref.Data() {
		if !num.SameBits(got.Data()[i], v) {
			t.Fatalf("%s: cell %d = %v outside the rectangle, want %v", what, i, got.Data()[i], v)
		}
	}
}

// rectCase is one generated rectangle sweep: the operator, its source grid,
// the rectangle, the sites and a description of the case.
type rectCase[T num.Float] struct {
	op             *Op2D[T]
	src            *grid.Grid[T]
	x0, y0, x1, y1 int
	sites          []Site[T]
	what           string
}

// genRectCase draws the cases TestSweepRectGenerated describes.
func genRectCase[T num.Float](t *testing.T, rng *rand.Rand) rectCase[T] {
	w := func() T { return T(0.02 + 0.2*rng.Float64() - 0.1*float64(rng.Intn(2))) }
	var st *Stencil[T]
	want := kernGeneric
	switch rng.Intn(4) {
	case 0:
		st, want = FivePoint(w(), w(), w(), w(), w()), kernStar5
	case 1:
		st, want = NinePoint([9]T{w(), w(), w(), w(), w(), w(), w(), w(), w()}), kernBox9
	default:
		r := [2]int{1 + rng.Intn(2), 1 + rng.Intn(2)}
		st = &Stencil[T]{Name: "generated"}
		used := map[[2]int]bool{}
		// The reach of each axis, in a random order with random others.
		reach := [][2]int{{0, 0}, {r[0] * (1 - 2*rng.Intn(2)), 0}, {0, r[1] * (1 - 2*rng.Intn(2))}}
		for k := 2 + rng.Intn(6); k > 0; k-- {
			reach = append(reach, [2]int{rng.Intn(2*r[0]+1) - r[0], rng.Intn(2*r[1]+1) - r[1]})
		}
		rng.Shuffle(len(reach), func(i, j int) { reach[i], reach[j] = reach[j], reach[i] })
		for _, d := range reach {
			if !used[d] {
				used[d] = true
				st.Points = append(st.Points, Point[T]{DX: d[0], DY: d[1], W: w()})
			}
		}
	}
	rx, ry := st.RadiusX(), st.RadiusY()
	bc := grid.Boundary(rng.Intn(5))
	nx, ny := rx+1+rng.Intn(9), ry+1+rng.Intn(8)
	if rng.Intn(4) == 0 {
		nx = 3 // one interior column at radius 1, none at radius 2
	}
	op := &Op2D[T]{St: st, BC: bc, BCValue: T(-2.5 + rng.Float64()), ForceGeneric: rng.Intn(4) == 0}
	if op.ForceGeneric {
		want = kernGeneric
	}
	if rng.Intn(2) == 0 {
		op.C = grid.New[T](nx, ny)
		op.C.FillFunc(func(x, y int) T { return T(rng.Float64() - 0.5) })
	}
	if err := op.Validate(nx, ny); err != nil {
		t.Fatal(err)
	}
	if got := op.plan(nx, ny).kern; got != want {
		t.Fatalf("%q dispatched %v, want %v", st.Name, got, want)
	}

	// spanOf draws a non-empty [lo, hi) of n cells.
	spanOf := func(n int) (lo, hi int) {
		lo = rng.Intn(n)
		return lo, lo + 1 + rng.Intn(n-lo)
	}
	x0, x1 := spanOf(nx)
	y0, y1 := spanOf(ny)
	shape := "rectangle"
	switch rng.Intn(5) {
	case 0:
		shape, x0, y0, x1, y1 = "domain", 0, 0, nx, ny
	case 1:
		shape = "edge column"
		x0 = (nx - 1) * rng.Intn(2)
		x1 = x0 + 1
	case 2:
		shape = "edge row"
		y0 = (ny - 1) * rng.Intn(2)
		y1 = y0 + 1
	case 3:
		if nx <= 2*rx {
			break // no interior column
		}
		// The rows' interior segment is the one column xi.
		shape = "one interior column"
		xi := rx + rng.Intn(nx-2*rx)
		x0, x1 = xi, xi+1
		if xi == rx {
			x0 = rng.Intn(rx + 1)
		}
		if xi == nx-rx-1 {
			x1 = nx - rng.Intn(rx+1)
		}
	}
	var sites []Site[T]
	mantissa := 23
	if num.BitWidth[T]() == 64 {
		mantissa = 52
	}
	for k := rng.Intn(4); k > 0; k-- { // anywhere in the domain: those outside the rectangle are ignored
		bit := rng.Intn(mantissa)
		sites = append(sites, Site[T]{X: rng.Intn(nx), Y: rng.Intn(ny), Mutate: func(v T) T { return num.FlipBit(v, bit) }})
	}
	what := fmt.Sprintf("%q (%d points, radius %d/%d) generic=%v %s %dx%d C=%v %s [%d,%d)x[%d,%d) %d sites",
		st.Name, len(st.Points), rx, ry, op.ForceGeneric, bc, nx, ny, op.C != nil, shape, x0, x1, y0, y1, len(sites))

	src := grid.New[T](nx, ny)
	fillRandom2D(src, rng)
	return rectCase[T]{op: op, src: src, x0: x0, y0: y0, x1: x1, y1: y1, sites: sites, what: what}
}

// TestSweepBoxGenerated pins Op3D's box sweep, the one a 2-D tile rank runs
// over its extended frame: on a one-layer stack (Op2D.Stack, grid.Stack) a
// box [x0,x1) x [y0,y1) x [0,1) equals Op2D.SweepRectFused of the rectangle
// bit for bit — its cells, the cells outside it left as they were, and b,
// whose entries outside the rectangle's rows are left alone too — over
// TestSweepRectGenerated's cases: star5, box9 and generic stencils, the
// canonical ones also under ForceGeneric, all five boundaries, both element
// types, with and without a constant field and sites, rectangles touching
// the row ends, edge columns alone and one-cell interior segments; on the
// calling goroutine and split over a pool of 2. The star7 kernel, which no
// 2-D sweep has, is held on a three-layer stack to the whole-layer sweep
// over the same box. A failing case is named by its seed.
func TestSweepBoxGenerated(t *testing.T) {
	pool := &Pool{Workers: 2}
	t.Cleanup(pool.Close)
	for seed := int64(1); seed <= 400; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var p *Pool
			if seed%3 == 0 {
				p = pool
			}
			if seed%2 == 0 {
				sweepBoxGenerated[float32](t, rng, p)
			} else {
				sweepBoxGenerated[float64](t, rng, p)
			}
		})
	}
}

func sweepBoxGenerated[T num.Float](t *testing.T, rng *rand.Rand, p *Pool) {
	rc := genRectCase[T](t, rng)
	op, src, x0, y0, x1, y1 := rc.op, rc.src, rc.x0, rc.y0, rc.x1, rc.y1
	nx, ny := src.Nx(), src.Ny()
	want, got := grid.New[T](nx, ny), grid.New[T](nx, ny)
	want.Fill(-7)
	got.Fill(-7)
	bWant, bGot := make([]T, y1-y0), make([]T, ny)
	for y := range bGot {
		bGot[y] = -7
	}
	op.SweepRectFused(want, src, x0, y0, x1, y1, bWant, rc.sites)
	op.Stack().SweepLayersInject(p, grid.Stack(got), grid.Stack(src), x0, y0, 0, x1, y1, 1, [][]T{bGot}, rc.sites)
	what := fmt.Sprintf("%s pool=%v", rc.what, p != nil)
	for i, v := range want.Data() {
		if g := got.Data()[i]; !num.SameBits(g, v) {
			x, y := want.Coords(i)
			t.Fatalf("%s: box cell (%d,%d) = %v, SweepRectFused %v", what, x, y, g, v)
		}
	}
	for y, v := range bGot {
		w := T(-7)
		if y >= y0 && y < y1 {
			w = bWant[y-y0]
		}
		if !num.SameBits(v, w) {
			t.Fatalf("%s: b[%d] = %v, want %v", what, y, v, w)
		}
	}
	sweepBoxStar7[T](t, rng, p, x0, y0, x1, y1, nx, ny)
}

// sweepBoxStar7 holds a star7 box over the middle layer of a three-layer
// stack, from x0 to x1 and y0 to y1, to the whole-layer sweep: the box's
// cells equal it, the rest keep their old value, and b[y] is the box's
// share of each row summed in x order.
func sweepBoxStar7[T num.Float](t *testing.T, rng *rand.Rand, p *Pool, x0, y0, x1, y1, nx, ny int) {
	w := func() T { return T(0.02 + 0.2*rng.Float64()) }
	op := &Op3D[T]{St: SevenPoint3D(w(), w(), w(), w(), w(), w(), w()), BC: grid.Boundary(rng.Intn(5)), BCValue: 1.5}
	if rng.Intn(2) == 0 {
		op.C = grid.New3D[T](nx, ny, 3)
		op.C.FillFunc(func(x, y, z int) T { return T(rng.Float64() - 0.5) })
	}
	src := grid.New3D[T](nx, ny, 3)
	src.FillFunc(func(x, y, z int) T { return T(rng.Float64()*200 - 100) })
	full, got := grid.New3D[T](nx, ny, 3), grid.New3D[T](nx, ny, 3)
	got.Fill(-7)
	op.SweepLayer(full, src, 1, nil, nil)
	bs := [][]T{nil, make([]T, ny), nil}
	op.SweepLayersInject(p, got, src, x0, y0, 1, x1, y1, 2, bs, nil)
	for z := range 3 {
		for y := range ny {
			for x := range nx {
				want := T(-7)
				if z == 1 && x >= x0 && x < x1 && y >= y0 && y < y1 {
					want = full.At(x, y, z)
				}
				if g := got.At(x, y, z); !num.SameBits(g, want) {
					t.Fatalf("star7 %s %dx%dx3 box [%d,%d)x[%d,%d): (%d,%d,%d) = %v, want %v", op.BC, nx, ny, x0, x1, y0, y1, x, y, z, g, want)
				}
			}
		}
	}
	for y := y0; y < y1; y++ {
		if want := num.Sum(full.Layer(1).Row(y)[x0:x1]); !num.SameBits(bs[1][y], want) {
			t.Fatalf("star7 %s box [%d,%d)x[%d,%d): b[%d] = %v, the row sums to %v", op.BC, x0, x1, y0, y1, y, bs[1][y], want)
		}
	}
}
