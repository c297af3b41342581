package stencil

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// The pin tests: every specialized kernel must be bit-identical to the
// generic SweepRange across all five boundary conditions, odd and tiny
// sizes (down to 2*radius+1), a non-nil constant field C, and injection
// sites. Specialization must never change results — the README's
// guarantee points here. The 3-D sweep, whose boundary rows run through the
// same kernels as its interior, is pinned against a naive per-point sweep
// instead, down to the smallest domain Validate allows.

var pinBoundaries = []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}

// asymmetric weights so no accidental cancellation can mask an
// order-of-operations difference.
func pinStencils2D[T num.Float]() []struct {
	name string
	st   *Stencil[T]
	want kernel
} {
	return []struct {
		name string
		st   *Stencil[T]
		want kernel
	}{
		{"star5", FivePoint[T](0.37, 0.11, -0.13, 0.21, 0.29), kernStar5},
		{"laplace5", Laplace5[T](0.2), kernStar5},
		{"box9", NinePoint[T]([9]T{0.01, -0.02, 0.03, 0.05, 0.81, -0.07, 0.11, 0.13, -0.17}), kernBox9},
		{"jacobi4-generic", Jacobi4[T](), kernGeneric}, // 4 points: no fast kernel, pins the fallback
	}
}

func fillRandom2D[T num.Float](g *grid.Grid[T], rng *rand.Rand) {
	g.FillFunc(func(x, y int) T { return T(rng.Float64()*200 - 100) })
}

// sweepPair runs the same fused sweep through the specialized op and a
// ForceGeneric clone and reports the first bitwise difference.
func sweepPair2D[T num.Float](t *testing.T, st *Stencil[T], bc grid.Boundary, nx, ny int, withC, withHook bool, rng *rand.Rand) {
	t.Helper()
	var c *grid.Grid[T]
	if withC {
		c = grid.New[T](nx, ny)
		fillRandom2D(c, rng)
	}
	fast := &Op2D[T]{St: st, BC: bc, BCValue: 2.5, C: c}
	gen := &Op2D[T]{St: st, BC: bc, BCValue: 2.5, C: c, ForceGeneric: true}
	if got := gen.plan(nx, ny).kern; got != kernGeneric {
		t.Fatalf("ForceGeneric plan dispatched %v", got)
	}

	src := grid.New[T](nx, ny)
	fillRandom2D(src, rng)
	dstFast := grid.New[T](nx, ny)
	dstGen := grid.New[T](nx, ny)
	bFast := make([]T, ny)
	bGen := make([]T, ny)

	var sites []Site[T]
	if withHook {
		sites = []Site[T]{{X: nx / 2, Y: ny / 2, Mutate: func(v T) T { return num.FlipBit(v, 12) }}}
	}
	fast.SweepRange(dstFast, src, 0, ny, bFast, sites)
	gen.SweepRange(dstGen, src, 0, ny, bGen, sites)

	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if dstFast.At(x, y) != dstGen.At(x, y) {
				t.Fatalf("(%d,%d): fast %v != generic %v", x, y, dstFast.At(x, y), dstGen.At(x, y))
			}
		}
		if bFast[y] != bGen[y] {
			t.Fatalf("b[%d]: fast %v != generic %v", y, bFast[y], bGen[y])
		}
	}
}

func pinKernels2D[T num.Float](t *testing.T, typ string) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range pinStencils2D[T]() {
		r := max(k.st.RadiusX(), k.st.RadiusY())
		minN := 2*r + 1
		sizes := [][2]int{{minN, minN}, {minN, minN + 4}, {minN + 2, minN}, {5, 7}, {16, 17}, {17, 16}}
		for _, bc := range pinBoundaries {
			for _, sz := range sizes {
				nx, ny := sz[0], sz[1]
				if nx <= r || ny <= r {
					continue
				}
				for _, withC := range []bool{false, true} {
					for _, withHook := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/%dx%d/C=%v/hook=%v", typ, k.name, bc, nx, ny, withC, withHook)
						t.Run(name, func(t *testing.T) {
							op := &Op2D[T]{St: k.st, BC: bc}
							if got := op.plan(nx, ny).kern; got != k.want {
								t.Fatalf("dispatched %v, want %v", got, k.want)
							}
							sweepPair2D(t, k.st, bc, nx, ny, withC, withHook, rng)
						})
					}
				}
			}
		}
	}
}

func TestKernelPin2DFloat32(t *testing.T) { pinKernels2D[float32](t, "float32") }
func TestKernelPin2DFloat64(t *testing.T) { pinKernels2D[float64](t, "float64") }

// naiveSweepLayer is the reference the row-folded 3-D sweep is pinned
// against, and shares no code with it: BoundedGrid3D.At per stencil point in
// declaration order, C first, hook before the store, b accumulated in x
// order — with the hook, the per-point injection loop the sweeps ran before
// an injection became a site list (inject_test.go holds the 2-D one). Until the sweep folded boundaries per row, this was its own border
// path (Op3D.pointSlow), which is why fast-against-ForceGeneric alone would
// now compare the new code with itself.
func naiveSweepLayer[T num.Float](op *Op3D[T], dst, src *grid.Grid3D[T], z int, b []T, hook pointHook[T]) {
	bg := grid.BoundedGrid3D[T]{G: src, Cond: op.BC, ConstVal: op.BCValue}
	for y := 0; y < src.Ny(); y++ {
		var acc T
		for x := 0; x < src.Nx(); x++ {
			var v T
			if op.C != nil {
				v = op.C.At(x, y, z)
			}
			for _, p := range op.St.Points {
				v += p.W * bg.At(x+p.DX, y+p.DY, z+p.DZ)
			}
			if hook != nil {
				v = hook(x, y, z, v)
			}
			dst.Set(x, y, z, v)
			acc += v
		}
		b[y] = acc
	}
}

func pinKernels3D[T num.Float](t *testing.T, typ string) {
	rng := rand.New(rand.NewSource(13))
	stencils := []struct {
		name string
		st   *Stencil[T]
		want kernel
	}{
		{"star7", SevenPoint3D[T](0.31, 0.07, -0.05, 0.11, 0.13, 0.17, -0.19), kernStar7},
		{"star5-per-layer", FivePoint[T](0.37, 0.11, -0.13, 0.21, 0.29), kernStar5}, // 2-D stencil swept layer-wise still specializes
		{"box9-per-layer", NinePoint[T]([9]T{0.01, -0.02, 0.03, 0.05, 0.81, -0.07, 0.11, 0.13, -0.17}), kernBox9},
		{"far3d", &Stencil[T]{Name: "far3d", Points: []Point[T]{ // radius 2/1/2, nothing symmetric
			{DX: 0, DY: 0, DZ: 0, W: 0.41}, {DX: -2, DY: 0, DZ: 0, W: 0.07}, {DX: 1, DY: -1, DZ: 0, W: -0.05},
			{DX: 0, DY: 1, DZ: -2, W: 0.11}, {DX: 2, DY: 0, DZ: 1, W: 0.13}, {DX: -1, DY: 1, DZ: 2, W: -0.17},
			{DX: 0, DY: 0, DZ: -1, W: 0.19},
		}}, kernGeneric},
	}
	for _, k := range stencils {
		rx, ry, rz := k.st.RadiusX(), k.st.RadiusY(), k.st.RadiusZ()
		// The smallest domain Validate allows in every axis (periodic nz = 2
		// makes z-1 and z+1 the same layer, mirror reflects at n = 2), each
		// axis at its minimum alone, odd extents, and the paper's depth 8.
		sizes := [][3]int{
			{rx + 1, ry + 1, rz + 1}, {rx + 1, 5, 3}, {6, ry + 1, rz + 1},
			{2*rx + 1, 2*ry + 1, 2*rz + 1}, {7, 5, 3}, {9, 8, 8},
		}
		for _, bc := range pinBoundaries {
			for _, sz := range sizes {
				nx, ny, nz := sz[0], sz[1], sz[2]
				if nz <= rz {
					continue
				}
				for _, withC := range []bool{false, true} {
					for _, withHook := range []bool{false, true} {
						name := fmt.Sprintf("%s/%s/%s/%dx%dx%d/C=%v/hook=%v", typ, k.name, bc, nx, ny, nz, withC, withHook)
						t.Run(name, func(t *testing.T) {
							var c *grid.Grid3D[T]
							if withC {
								c = grid.New3D[T](nx, ny, nz)
								c.FillFunc(func(x, y, z int) T { return T(rng.Float64()*20 - 10) })
							}
							fast := &Op3D[T]{St: k.st, BC: bc, BCValue: -1.5, C: c}
							gen := &Op3D[T]{St: k.st, BC: bc, BCValue: -1.5, C: c, ForceGeneric: true}
							if err := fast.Validate(nx, ny, nz); err != nil {
								t.Fatal(err)
							}
							if got := fast.plan(nx, ny, nz).kern; got != k.want {
								t.Fatalf("dispatched %v, want %v", got, k.want)
							}
							if got := gen.plan(nx, ny, nz).kern; got != kernGeneric {
								t.Fatalf("ForceGeneric plan dispatched %v", got)
							}

							src := grid.New3D[T](nx, ny, nz)
							src.FillFunc(func(x, y, z int) T { return T(rng.Float64()*200 - 100) })
							var sites []Site[T]
							if withHook {
								flip := func(v T) T { return num.FlipBit(v, 9) }
								sites = []Site[T]{{X: nx / 2, Y: ny / 2, Z: nz / 2, Mutate: flip}, {X: 0, Y: ny / 2, Z: nz / 2, Mutate: flip}}
							}
							hook := hookOf(sites)
							want := grid.New3D[T](nx, ny, nz)
							bWant := make([]T, ny)
							for _, op := range []*Op3D[T]{fast, gen} {
								got := grid.New3D[T](nx, ny, nz)
								bGot := make([]T, ny)
								for z := 0; z < nz; z++ {
									op.SweepLayer(got, src, z, bGot, sites)
									naiveSweepLayer(op, want, src, z, bWant, hook)
									for y := 0; y < ny; y++ {
										sameRow3D(t, op, got, want, bGot, bWant, y, z)
									}
								}
								// Single-row calls, the way Online3D's repair re-evaluates a
								// flagged row, on the corner rows of the domain.
								got = grid.New3D[T](nx, ny, nz)
								clear(bGot)
								for _, z := range []int{0, nz - 1} {
									naiveSweepLayer(op, want, src, z, bWant, nil)
									for _, y := range []int{0, ny - 1} {
										op.SweepRows(got, src, z, 0, y, nx, y+1, bGot)
										sameRow3D(t, op, got, want, bGot, bWant, y, z)
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestSweepLayersGenerated holds the row-table sources and the pool's
// row partition to the per-point reference, seeded and generated: all five
// boundaries (Constant with a non-zero ghost), radius 1 or 2 on each axis or
// a specialised kernel's radius 1, odd and even extents, nz from 2*RadiusZ+1
// up, whole stacks and slabs between ghost layers, no pool and a pool of 2,
// with and without a constant field, and injection sites on the z-face rows.
func TestSweepLayersGenerated(t *testing.T) {
	pool := &Pool{Workers: 2}
	defer pool.Close()
	for seed := int64(1); seed <= 160; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { sweepLayersGenerated(t, seed, pool) })
	}
}

func sweepLayersGenerated(t *testing.T, seed int64, pool *Pool) {
	rng := rand.New(rand.NewSource(seed))
	w := func() float64 { return 0.02 + 0.2*rng.Float64() }
	var st *Stencil[float64]
	switch rng.Intn(8) {
	case 0:
		st = SevenPoint3D(w(), w(), w(), w(), w(), w(), w())
	case 1:
		st = FivePoint(w(), w(), w(), w(), w())
	case 2:
		st = NinePoint([9]float64{w(), w(), w(), w(), w(), w(), w(), w(), w()})
	default:
		r := [3]int{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(2)}
		used := map[[3]int]bool{}
		st = &Stencil[float64]{Name: "generated"}
		add := func(d [3]int) {
			if !used[d] {
				used[d] = true
				st.Points = append(st.Points, Point[float64]{DX: d[0], DY: d[1], DZ: d[2], W: w()})
			}
		}
		// The reach of each axis, in a random order with random others.
		reach := [][3]int{{0, 0, 0}, {r[0] * (1 - 2*rng.Intn(2)), 0, 0}, {0, r[1] * (1 - 2*rng.Intn(2)), 0}, {0, 0, r[2] * (1 - 2*rng.Intn(2))}}
		for k := 3 + rng.Intn(6); k > 0; k-- {
			reach = append(reach, [3]int{rng.Intn(2*r[0]+1) - r[0], rng.Intn(2*r[1]+1) - r[1], rng.Intn(2*r[2]+1) - r[2]})
		}
		rng.Shuffle(len(reach), func(i, j int) { reach[i], reach[j] = reach[j], reach[i] })
		for _, d := range reach {
			add(d)
		}
	}
	rx, ry, rz := st.RadiusX(), st.RadiusY(), st.RadiusZ()
	bc := grid.Boundary(rng.Intn(5))
	nx, ny := rx+1+rng.Intn(8), ry+1+rng.Intn(8)
	// A slab sweeps the layers between rz ghost layers each side.
	slab := rng.Intn(3) == 0
	nz := 2*rz + 1 + rng.Intn(4)
	z0, z1 := 0, nz
	if slab {
		nz += 2 * rz
		z0, z1 = rz, nz-rz
	}
	var c *grid.Grid3D[float64]
	if rng.Intn(2) == 0 {
		c = grid.New3D[float64](nx, ny, nz)
		c.FillFunc(func(x, y, z int) float64 { return rng.Float64() - 0.5 })
	}
	op := &Op3D[float64]{St: st, BC: bc, BCValue: -2.5 + rng.Float64(), C: c}
	var p *Pool
	if rng.Intn(2) == 0 {
		p = pool
	}
	what := fmt.Sprintf("seed %d: %q (%d points, radius %d/%d/%d) %s %dx%dx%d layers [%d,%d) pool=%v",
		seed, st.Name, len(st.Points), rx, ry, rz, bc, nx, ny, nz, z0, z1, p != nil)
	if err := op.Validate(nx, ny, nz); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer func() {
		if t.Failed() {
			t.Log(what)
		}
	}()

	src := grid.New3D[float64](nx, ny, nz)
	src.FillFunc(func(x, y, z int) float64 { return 50 + 100*rng.Float64() })
	var sites []Site[float64]
	for _, z := range []int{z0, z1 - 1, z0 + rng.Intn(z1-z0)} {
		bit := 40 + rng.Intn(20)
		sites = append(sites, Site[float64]{X: rng.Intn(nx), Y: rng.Intn(ny), Z: z,
			Mutate: func(v float64) float64 { return num.FlipBit(v, bit) }})
	}
	hook := hookOf(sites)
	want := grid.New3D[float64](nx, ny, nz)
	bWant := make([][]float64, nz)
	for z := z0; z < z1; z++ {
		bWant[z] = make([]float64, ny)
		naiveSweepLayer(op, want, src, z, bWant[z], hook)
	}

	got := grid.New3D[float64](nx, ny, nz)
	bs := make([][]float64, nz)
	for z := range bs {
		bs[z] = make([]float64, ny)
	}
	op.SweepLayersInject(p, got, src, 0, 0, z0, nx, ny, z1, bs, sites)
	for z := z0; z < z1; z++ {
		for y := 0; y < ny; y++ {
			sameRow3D(t, op, got, want, bs[z], bWant[z], y, z)
		}
	}
}

// sameRow3D fails the test unless row (y, z) and its checksum b[y] match the
// naive sweep's bit for bit.
func sameRow3D[T num.Float](t *testing.T, op *Op3D[T], got, want *grid.Grid3D[T], bGot, bWant []T, y, z int) {
	t.Helper()
	if !num.SameBits(bGot[y], bWant[y]) {
		t.Fatalf("generic=%v z=%d b[%d]: got %v, naive %v", op.ForceGeneric, z, y, bGot[y], bWant[y])
	}
	for x := 0; x < got.Nx(); x++ {
		if g, w := got.At(x, y, z), want.At(x, y, z); !num.SameBits(g, w) {
			t.Fatalf("generic=%v (%d,%d,%d): got %v, naive %v", op.ForceGeneric, x, y, z, g, w)
		}
	}
}

func TestKernelPin3DFloat32(t *testing.T) { pinKernels3D[float32](t, "float32") }
func TestKernelPin3DFloat64(t *testing.T) { pinKernels3D[float64](t, "float64") }

// pinStack pins the fact a 2-D domain protected as the one-layer stack rests
// on: Op2D.Stack's sweep of grid.Stack's view equals the 2-D sweep bit for
// bit, grid and fused column checksum, sweep after sweep — on one goroutine
// and with the stack's rows split over a pool.
func pinStack[T num.Float](t *testing.T, typ string) {
	rng := rand.New(rand.NewSource(31))
	stencils := []struct {
		name string
		st   *Stencil[T]
	}{
		{"star5", Laplace5[T](0.2)},
		{"box9", BoxBlur[T]()},
		{"jacobi4", Jacobi4[T]()},
		{"advect2d", Advect2D[T](0.25, 0.1)},
		{"r2asym", &Stencil[T]{Name: "r2asym", Points: []Point[T]{
			{DX: 0, DY: 0, W: 0.41}, {DX: -2, DY: 0, W: 0.07}, {DX: 1, DY: -1, W: -0.05},
			{DX: 0, DY: 2, W: 0.11}, {DX: 2, DY: 1, W: 0.13},
		}}},
	}
	pool := &Pool{Workers: 3}
	defer pool.Close()
	for _, k := range stencils {
		for _, bc := range pinBoundaries {
			for _, sz := range [][2]int{{5, 4}, {7, 6}, {16, 11}} {
				for _, withC := range []bool{false, true} {
					for _, generic := range []bool{false, true} {
						nx, ny := sz[0], sz[1]
						t.Run(fmt.Sprintf("%s/%s/%s/%dx%d/C=%v/generic=%v", typ, k.name, bc, nx, ny, withC, generic), func(t *testing.T) {
							op := &Op2D[T]{St: k.st, BC: bc, BCValue: 2.5, ForceGeneric: generic}
							if withC {
								op.C = grid.New[T](nx, ny)
								fillRandom2D(op.C, rng)
							}
							if err := op.Validate(nx, ny); err != nil {
								t.Fatal(err)
							}
							stack := op.Stack()
							want := grid.NewBuffer[T](nx, ny)
							fillRandom2D(want.Read, rng)
							seq, par := grid.BufferFrom(want.Read), grid.BufferFrom(want.Read)
							bWant, bSeq, bPar := make([]T, ny), [][]T{make([]T, ny)}, [][]T{make([]T, ny)}
							for sweep := 0; sweep < 5; sweep++ {
								op.SweepFused(want.Write, want.Read, bWant)
								stack.SweepLayer(grid.Stack(seq.Write), grid.Stack(seq.Read), 0, bSeq[0], nil)
								stack.SweepParallel(pool, grid.Stack(par.Write), grid.Stack(par.Read), bPar)
								want.Swap()
								seq.Swap()
								par.Swap()
								for _, got := range []struct {
									g *grid.Grid[T]
									b []T
								}{{seq.Read, bSeq[0]}, {par.Read, bPar[0]}} {
									for i, v := range want.Read.Data() {
										if !num.SameBits(got.g.Data()[i], v) {
											t.Fatalf("sweep %d cell %d: stack %v, 2-D %v", sweep, i, got.g.Data()[i], v)
										}
									}
									for y, v := range bWant {
										if !num.SameBits(got.b[y], v) {
											t.Fatalf("sweep %d b[%d]: stack %v, 2-D %v", sweep, y, got.b[y], v)
										}
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

func TestStackSweepMatches2DFloat32(t *testing.T) { pinStack[float32](t, "float32") }
func TestStackSweepMatches2DFloat64(t *testing.T) { pinStack[float64](t, "float64") }

// TestKernelPinRect pins SweepRectFused's specialized interior against the
// generic one over an interior tile, a border-straddling tile and the full
// domain — the blocked deployment's unit.
func TestKernelPinRect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	st := NinePoint([9]float64{0.01, -0.02, 0.03, 0.05, 0.81, -0.07, 0.11, 0.13, -0.17})
	for _, bc := range pinBoundaries {
		for _, rect := range [][4]int{{0, 0, 16, 12}, {3, 2, 9, 11}, {0, 5, 4, 12}} {
			fast := &Op2D[float64]{St: st, BC: bc, BCValue: 1.25}
			gen := &Op2D[float64]{St: st, BC: bc, BCValue: 1.25, ForceGeneric: true}
			src := grid.New[float64](16, 12)
			fillRandom2D(src, rng)
			dstFast := grid.New[float64](16, 12)
			dstGen := grid.New[float64](16, 12)
			x0, y0, x1, y1 := rect[0], rect[1], rect[2], rect[3]
			bFast := make([]float64, y1-y0)
			bGen := make([]float64, y1-y0)
			fast.SweepRectFused(dstFast, src, x0, y0, x1, y1, bFast, nil)
			gen.SweepRectFused(dstGen, src, x0, y0, x1, y1, bGen, nil)
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					if dstFast.At(x, y) != dstGen.At(x, y) {
						t.Fatalf("bc=%s rect=%v (%d,%d): fast %v != generic %v", bc, rect, x, y, dstFast.At(x, y), dstGen.At(x, y))
					}
				}
				if bFast[y-y0] != bGen[y-y0] {
					t.Fatalf("bc=%s rect=%v b[%d] differs", bc, rect, y-y0)
				}
			}
		}
	}
}

// TestPlanInvalidatedOnShapeChange reuses one operator across two domain
// shapes; the cached plan must be rebuilt, not reused with stale offsets.
func TestPlanInvalidatedOnShapeChange(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	for _, n := range []int{16, 8, 12} {
		src := grid.New[float64](n, n)
		fillRandom2D(src, rng)
		got := grid.New[float64](n, n)
		op.Sweep(got, src)

		fresh := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
		want := grid.New[float64](n, n)
		fresh.Sweep(want, src)
		if got.MaxAbsDiff(want) != 0 {
			t.Fatalf("n=%d: plan reuse across shapes corrupted the sweep", n)
		}
	}
}

// TestPlanInvalidatedOnWeightEdit mutates a stencil weight in place between
// sweeps; the plan cache validates points, so the second sweep must see the
// new weight.
func TestPlanInvalidatedOnWeightEdit(t *testing.T) {
	src := grid.New[float64](8, 8)
	src.Fill(1)
	dst := grid.New[float64](8, 8)
	st := Laplace5(0.2)
	op := &Op2D[float64]{St: st, BC: grid.Clamp}
	op.Sweep(dst, src)
	st.Points[0].W = 0.5 // centre weight: 1-4*0.2 = 0.2 -> 0.5
	op.Sweep(dst, src)
	// A fresh operator built from the already-edited stencil never saw the
	// old weight; a stale plan would keep sweeping with it.
	fresh := &Op2D[float64]{St: st, BC: grid.Clamp}
	want := grid.New[float64](8, 8)
	fresh.Sweep(want, src)
	if dst.MaxAbsDiff(want) != 0 {
		t.Fatalf("stale plan after weight edit: got %v want %v", dst.At(4, 4), want.At(4, 4))
	}
}

// TestPlanInvalidatedOnBoundaryEdit edits a 3-D operator's boundary
// condition, ghost value and constant field in place between sweeps. The 3-D
// plan holds BC-resolved tables and a ghost row, so each edit must reach the
// next sweep exactly as it reaches a fresh operator.
func TestPlanInvalidatedOnBoundaryEdit(t *testing.T) {
	const nx, ny, nz = 6, 5, 4
	rng := rand.New(rand.NewSource(29))
	src := grid.New3D[float64](nx, ny, nz)
	src.FillFunc(func(x, y, z int) float64 { return rng.Float64()*200 - 100 })
	c := grid.New3D[float64](nx, ny, nz)
	c.Fill(0.75)
	st := SevenPoint3D(0.31, 0.07, -0.05, 0.11, 0.13, 0.17, -0.19)
	op := &Op3D[float64]{St: st, BC: grid.Clamp}
	got := grid.New3D[float64](nx, ny, nz)
	want := grid.New3D[float64](nx, ny, nz)
	for _, edit := range []struct {
		name string
		do   func()
	}{
		{"none", func() {}},
		{"BC", func() { op.BC = grid.Constant }},
		{"BCValue", func() { op.BCValue = 3.5 }},
		{"BC again", func() { op.BC = grid.Mirror }},
		{"C", func() { op.C = c }},
	} {
		edit.do()
		op.Sweep(got, src)
		fresh := &Op3D[float64]{St: st, BC: op.BC, BCValue: op.BCValue, C: op.C}
		fresh.Sweep(want, src)
		if got.MaxAbsDiff(want) != 0 {
			t.Fatalf("stale plan after editing %s", edit.name)
		}
	}
}

// TestSweepParallel3DAllocFree pins the steady-state parallel 3-D sweep at
// zero allocations: no per-call closure, no escaping WaitGroup.
func TestSweepParallel3DAllocFree(t *testing.T) {
	const nx, ny, nz = 16, 12, 6
	src := grid.New3D[float32](nx, ny, nz)
	dst := grid.New3D[float32](nx, ny, nz)
	op := &Op3D[float32]{St: SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), BC: grid.Clamp}
	bs := make([][]float32, nz)
	for z := range bs {
		bs[z] = make([]float32, ny)
	}
	pool := &Pool{Workers: 2}
	defer pool.Close()
	if n := testing.AllocsPerRun(20, func() { op.SweepParallel(pool, dst, src, bs) }); n != 0 {
		t.Fatalf("parallel 3-D sweep allocates %v times a call", n)
	}
}

// TestPlanConcurrentFirstUse hammers a cold operator from many goroutines —
// the plan cache must be race-free (run under -race) and every goroutine's
// result identical.
func TestPlanConcurrentFirstUse(t *testing.T) {
	const n, workers = 32, 8
	rng := rand.New(rand.NewSource(23))
	src := grid.New[float64](n, n)
	fillRandom2D(src, rng)
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	want := grid.New[float64](n, n)
	(&Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}).Sweep(want, src)

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := grid.New[float64](n, n)
			op.Sweep(dst, src)
			if dst.MaxAbsDiff(want) != 0 {
				errs <- "concurrent first-use sweep differs"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
