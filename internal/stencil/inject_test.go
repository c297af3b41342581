package stencil

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// The injection oracle. Until an injection became a site list the sweeps
// took a per-point callback, applied to each value after it was computed and
// before it was stored and accumulated, and a non-nil callback pinned the
// whole sweep to a per-point loop. That loop is kept here (and, for 3-D, as
// naiveSweepLayer in kernels_test.go) as the reference: applying a site
// after the compiled kernel and re-summing its row segment must leave the
// same bits in dst and in b.

// pointHook is that callback.
type pointHook[T num.Float] func(x, y, z int, v T) T

// hookOf turns a site list into the callback that injects the same faults.
func hookOf[T num.Float](sites []Site[T]) pointHook[T] {
	if len(sites) == 0 {
		return nil
	}
	return func(x, y, z int, v T) T {
		for _, s := range sites {
			if s.X == x && s.Y == y && s.Z == z {
				v = s.Mutate(v)
			}
		}
		return v
	}
}

// naiveSweepRect is the per-point hooked loop over a rectangle: BoundedGrid.At
// per stencil point in declaration order, C first, hook before the store, b
// accumulated from zero in x order.
func naiveSweepRect[T num.Float](op *Op2D[T], dst, src *grid.Grid[T], x0, y0, x1, y1 int, b []T, hook pointHook[T]) {
	bg := grid.BoundedGrid[T]{G: src, Cond: op.BC, ConstVal: op.BCValue}
	for y := y0; y < y1; y++ {
		var acc T
		for x := x0; x < x1; x++ {
			var v T
			if op.C != nil {
				v = op.C.At(x, y)
			}
			for _, p := range op.St.Points {
				v += p.W * bg.At(x+p.DX, y+p.DY)
			}
			if hook != nil {
				v = hook(x, y, 0, v)
			}
			dst.Set(x, y, v)
			acc += v
		}
		b[y-y0] = acc
	}
}

// oracleSites places faults where the drivers differ: the four corners, an
// edge of each side, the interior, and two more in the interior cell's row.
// The mutations cover a low fraction bit, an additive error, an exponent
// bit drawn per site, and exponent flips that yield ±Inf and NaN (each
// non-finite value in a row of its own: what the sum of two NaNs carries as
// payload is the one thing the order of an addition's operands decides).
// hits[i] counts how often site i was applied.
func oracleSites[T num.Float](nx, ny, z int, rng *rand.Rand) (sites []Site[T], hits []int) {
	top := num.BitWidth[T]() - 2 // the exponent's most significant bit
	expLo := 23
	if top == 62 {
		expLo = 52
	}
	flip := func(bit int) func(v T) T { return func(v T) T { return num.FlipBit(v, bit) } }
	muts := []func() func(v T) T{
		func() func(v T) T { return flip(rng.Intn(8)) },
		func() func(v T) T { return func(v T) T { return v + 100 } },
		func() func(v T) T { return flip(expLo + rng.Intn(top-expLo+1)) },
	}
	cells := [][2]int{
		{0, 0}, {nx - 1, 0}, {0, ny - 1}, {nx - 1, ny - 1},
		{nx / 2, 0}, {0, ny / 2}, {nx - 1, ny / 2}, {nx / 2, ny - 1},
		{nx / 2, ny / 2}, {nx/2 - 1, ny / 2}, {nx/2 + 1, ny / 2},
	}
	seen := map[[2]int]bool{}
	add := func(c [2]int, m func(v T) T) {
		if seen[c] || c[0] < 0 || c[0] >= nx || c[1] < 0 || c[1] >= ny {
			return
		}
		seen[c] = true
		i := len(sites)
		hits = append(hits, 0)
		sites = append(sites, Site[T]{X: c[0], Y: c[1], Z: z, Mutate: func(v T) T {
			hits[i]++
			return m(v)
		}})
	}
	for i, c := range cells {
		add(c, muts[i%len(muts)]())
	}
	// 1+|v|/256 lies in [1, 1.5): flipping its top exponent bit sets the
	// exponent to all ones — NaN, or +Inf when v is zero.
	nonFinite := []func(v T) T{
		func(v T) T { return num.FlipBit(1+num.Abs(v)/256, top) },
		func(T) T { return num.FlipBit(T(1), top) },
		func(T) T { return -num.FlipBit(T(1), top) },
	}
	for i, m := range nonFinite {
		if y := 1 + i; y < ny-1 && y != ny/2 {
			add([2]int{rng.Intn(nx), y}, m)
		}
	}
	return sites, hits
}

func oracleStencils2D[T num.Float]() []*Stencil[T] {
	return []*Stencil[T]{
		FivePoint[T](0.37, 0.11, -0.13, 0.21, 0.29),
		NinePoint[T]([9]T{0.01, -0.02, 0.03, 0.05, 0.81, -0.07, 0.11, 0.13, -0.17}),
		{Name: "far2d", Points: []Point[T]{ // radius 2/1, nothing symmetric
			{DX: 0, DY: 0, W: 0.41}, {DX: -2, DY: 0, W: 0.07}, {DX: 1, DY: -1, W: -0.05},
			{DX: 2, DY: 1, W: 0.13}, {DX: -1, DY: 1, W: -0.17},
		}},
	}
}

func sameRect[T num.Float](t *testing.T, what string, got, want *grid.Grid[T], x0, y0, x1, y1 int, bGot, bWant []T) {
	t.Helper()
	for y := y0; y < y1; y++ {
		if !num.SameBits(bGot[y-y0], bWant[y-y0]) {
			t.Fatalf("%s: b[%d] = %v, per-point loop %v", what, y, bGot[y-y0], bWant[y-y0])
		}
		for x := x0; x < x1; x++ {
			if g, w := got.At(x, y), want.At(x, y); !num.SameBits(g, w) {
				t.Fatalf("%s: (%d,%d) = %v, per-point loop %v", what, x, y, g, w)
			}
		}
	}
}

func oracle2D[T num.Float](t *testing.T, typ string) {
	rng := rand.New(rand.NewSource(41))
	for _, st := range oracleStencils2D[T]() {
		r := max(st.RadiusX(), st.RadiusY())
		for _, bc := range pinBoundaries {
			for _, sz := range [][2]int{{2*r + 1, 2*r + 1}, {7, 5}, {16, 17}, {33, 9}} {
				nx, ny := sz[0], sz[1]
				t.Run(fmt.Sprintf("%s/%s/%s/%dx%d", typ, st.Name, bc, nx, ny), func(t *testing.T) {
					c := grid.New[T](nx, ny)
					fillRandom2D(c, rng)
					op := &Op2D[T]{St: st, BC: bc, BCValue: 2.5, C: c}
					src := grid.New[T](nx, ny)
					fillRandom2D(src, rng)
					sites, hits := oracleSites[T](nx, ny, 0, rng)
					hook := hookOf(sites)
					once := func(what string) {
						t.Helper()
						for i, n := range hits {
							if n != 2 { // once by the driver, once by the reference
								t.Fatalf("%s: site %d at (%d,%d) applied %d times", what, i, sites[i].X, sites[i].Y, n-1)
							}
							hits[i] = 0
						}
					}

					want, bWant := grid.New[T](nx, ny), make([]T, ny)
					naiveSweepRect(op, want, src, 0, 0, nx, ny, bWant, hook)
					got, bGot := grid.New[T](nx, ny), make([]T, ny)
					op.SweepRange(got, src, 0, ny, bGot, sites)
					sameRect(t, "whole domain", got, want, 0, 0, nx, ny, bGot, bWant)
					once("whole domain")

					// Pool row-chunks: each site lands in one worker's range.
					naiveSweepRect(op, want, src, 0, 0, nx, ny, bWant, hook)
					pool := &Pool{Workers: 3}
					op.SweepParallelInject(pool, got, src, bGot, sites)
					pool.Close()
					sameRect(t, "row chunks", got, want, 0, 0, nx, ny, bGot, bWant)
					once("row chunks")

					// A rect partition at odd cuts: every rect is handed the
					// whole list and applies what falls inside it.
					cx, cy := 1+rng.Intn(nx-1), 1+rng.Intn(ny-1)
					for _, rect := range [][4]int{{0, 0, cx, cy}, {cx, 0, nx, cy}, {0, cy, cx, ny}, {cx, cy, nx, ny}} {
						x0, y0, x1, y1 := rect[0], rect[1], rect[2], rect[3]
						bW, bG := make([]T, y1-y0), make([]T, y1-y0)
						naiveSweepRect(op, want, src, x0, y0, x1, y1, bW, hook)
						op.SweepRectFused(got, src, x0, y0, x1, y1, bG, sites)
						sameRect(t, fmt.Sprint("rect ", rect), got, want, x0, y0, x1, y1, bG, bW)
					}
					once("rect partition")
				})
			}
		}
	}
}

func TestInjectOracle2DFloat32(t *testing.T) { oracle2D[float32](t, "float32") }
func TestInjectOracle2DFloat64(t *testing.T) { oracle2D[float64](t, "float64") }

func oracle3D[T num.Float](t *testing.T, typ string) {
	rng := rand.New(rand.NewSource(43))
	stencils := []*Stencil[T]{
		SevenPoint3D[T](0.31, 0.07, -0.05, 0.11, 0.13, 0.17, -0.19),
		{Name: "far3d", Points: []Point[T]{ // radius 2/1/2, nothing symmetric
			{DX: 0, DY: 0, DZ: 0, W: 0.41}, {DX: -2, DY: 0, DZ: 0, W: 0.07}, {DX: 1, DY: -1, DZ: 0, W: -0.05},
			{DX: 0, DY: 1, DZ: -2, W: 0.11}, {DX: 2, DY: 0, DZ: 1, W: 0.13}, {DX: -1, DY: 1, DZ: 2, W: -0.17},
		}},
	}
	for _, st := range stencils {
		for _, bc := range pinBoundaries {
			for _, sz := range [][3]int{{st.RadiusX() + 1, st.RadiusY() + 1, st.RadiusZ() + 1}, {7, 5, 3}, {9, 8, 5}} {
				nx, ny, nz := sz[0], sz[1], sz[2]
				t.Run(fmt.Sprintf("%s/%s/%s/%dx%dx%d", typ, st.Name, bc, nx, ny, nz), func(t *testing.T) {
					c := grid.New3D[T](nx, ny, nz)
					c.FillFunc(func(x, y, z int) T { return T(rng.Float64()*20 - 10) })
					op := &Op3D[T]{St: st, BC: bc, BCValue: -1.5, C: c}
					src := grid.New3D[T](nx, ny, nz)
					src.FillFunc(func(x, y, z int) T { return T(rng.Float64()*200 - 100) })
					// Faults in the bottom, a middle and the top layer.
					var sites []Site[T]
					for _, z := range slices.Compact([]int{0, nz / 2, nz - 1}) {
						s, _ := oracleSites[T](nx, ny, z, rng)
						sites = append(sites, s...)
					}
					hook := hookOf(sites)
					want, got := grid.New3D[T](nx, ny, nz), grid.New3D[T](nx, ny, nz)
					bWant, bGot := make([][]T, nz), make([][]T, nz)
					for z := range bWant {
						bWant[z], bGot[z] = make([]T, ny), make([]T, ny)
						naiveSweepLayer(op, want, src, z, bWant[z], hook)
					}
					check := func(what string) {
						t.Helper()
						for z := 0; z < nz; z++ {
							sameRect(t, fmt.Sprintf("%s, layer %d", what, z), got.Layer(z), want.Layer(z), 0, 0, nx, ny, bGot[z], bWant[z])
						}
					}
					for z := 0; z < nz; z++ {
						op.SweepLayer(got, src, z, bGot[z], sites)
					}
					check("layer by layer")
					got.Fill(0)
					pool := &Pool{Workers: 3}
					op.SweepLayersInject(pool, got, src, 0, 0, 0, nx, ny, nz, bGot, sites)
					pool.Close()
					check("layers over the pool")
				})
			}
		}
	}
}

func TestInjectOracle3DFloat32(t *testing.T) { oracle3D[float32](t, "float32") }
func TestInjectOracle3DFloat64(t *testing.T) { oracle3D[float64](t, "float64") }
