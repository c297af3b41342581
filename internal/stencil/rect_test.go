package stencil

import (
	"fmt"
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
