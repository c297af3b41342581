package core

import (
	"fmt"
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// TestBuildOwnsInit: a protector built from init owns a copy of it. Online
// (2-D as one chunk and as blocks, and 3-D), Offline (2-D and 3-D) are built
// from a generated init sequentially and on a pool of 2, and init is then
// overwritten: the protector's grid must still hold the saved copy bit for
// bit, and its verified column checksums — a chunk's PackState tail, the
// offline protector's verified and current vectors — must be each row of
// that copy summed left to right from zero. A clone that aliased init, or a
// layer the pool's split of the initial sums missed, fails it.
func TestBuildOwnsInit(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%d/workers%d", seed, workers), func(t *testing.T) {
				var p *stencil.Pool
				if workers > 0 {
					p = &stencil.Pool{Workers: workers}
					t.Cleanup(p.Close)
				}
				if seed%2 == 0 {
					buildOwnsInit[float32](t, rand.New(rand.NewSource(seed)), p)
				} else {
					buildOwnsInit[float64](t, rand.New(rand.NewSource(seed)), p)
				}
			})
		}
	}
}

func buildOwnsInit[T num.Float](t *testing.T, rng *rand.Rand, pool *stencil.Pool) {
	nx, ny, nz := 9+rng.Intn(30), 9+rng.Intn(20), 2+rng.Intn(6)
	bcs := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}
	opt := Options[T]{Pool: pool}
	cell := func() T { return T(rng.Float64()*200 - 100) }

	init := grid.New[T](nx, ny)
	init.FillFunc(func(int, int) T { return cell() })
	want := append([]T(nil), init.Data()...)
	op := &stencil.Op2D[T]{St: stencil.Laplace5[T](0.2), BC: bcs[rng.Intn(len(bcs))], BCValue: 3}
	on, err := NewOnline2D(op, init, opt)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBlocked2D(op, init, 1+nx/2, 1+ny/3, opt)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewOffline2D(op, init, opt)
	if err != nil {
		t.Fatal(err)
	}
	init.Fill(-1)
	sameCells(t, "online 2-D grid", on.Grid().Data(), want)
	sameCells(t, "blocked 2-D grid", bl.Grid().Data(), want)
	sameCells(t, "offline 2-D grid", off.Grid().Data(), want)
	for i, c := range append(on.chunks, bl.chunks...) {
		chunkStateIs(t, fmt.Sprintf("2-D chunk %d", i), c, want, nx, ny)
	}
	offlineSumsAre(t, "offline 2-D", off, want, nx, ny)

	init3 := grid.New3D[T](nx, ny, nz)
	init3.FillFunc(func(int, int, int) T { return cell() })
	want3 := append([]T(nil), init3.Data()...)
	op3 := &stencil.Op3D[T]{St: stencil.SevenPoint3D[T](0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), BC: bcs[rng.Intn(len(bcs))], BCValue: 3}
	on3, err := NewOnline3D(op3, init3, opt)
	if err != nil {
		t.Fatal(err)
	}
	off3, err := NewOffline3D(op3, init3, opt)
	if err != nil {
		t.Fatal(err)
	}
	init3.Fill(-1)
	sameCells(t, "online 3-D grid", on3.Grid3D().Data(), want3)
	sameCells(t, "offline 3-D grid", off3.Grid3D().Data(), want3)
	chunkStateIs(t, "3-D chunk", on3.ch, want3, nx, ny)
	offlineSumsAre(t, "offline 3-D", off3, want3, nx, ny)
}

func sameCells[T num.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if !num.SameBits(got[i], v) {
			t.Fatalf("%s: cell %d = %v, want the saved init's %v", what, i, got[i], v)
		}
	}
}

// rowSum is row y of layer z of the row-major cells d (nx by ny a layer)
// over [x0, x1), summed left to right from zero.
func rowSum[T num.Float](d []T, nx, ny, x0, x1, y, z int) T {
	var s T
	for x := x0; x < x1; x++ {
		s += d[x+nx*(y+ny*z)]
	}
	return s
}

// chunkStateIs holds c's PackState to its box of want and, in its tail, to
// the box's rows of want summed left to right.
func chunkStateIs[T num.Float](t *testing.T, what string, c *Chunk[T], want []T, nx, ny int) {
	t.Helper()
	st := make([]T, c.StateLen())
	c.PackState(st)
	i := 0
	for z := c.z0; z < c.z1; z++ {
		for y := c.y0; y < c.y1; y++ {
			w := c.x1 - c.x0
			row := want[c.x0+nx*(y+ny*z):][:w]
			sameCells(t, fmt.Sprintf("%s, layer %d row %d", what, z, y), st[i:i+w], row)
			i += w
		}
	}
	for z := c.z0; z < c.z1; z++ {
		for y := c.y0; y < c.y1; y++ {
			if s := rowSum(want, nx, ny, c.x0, c.x1, y, z); !num.SameBits(st[i], s) {
				t.Fatalf("%s: verified checksum of layer %d row %d = %v, want %v", what, z, y, st[i], s)
			}
			i++
		}
	}
}

// offlineSumsAre holds the offline protector's verified and current column
// checksums to want's rows summed left to right.
func offlineSumsAre[T num.Float](t *testing.T, what string, p *Offline[T], want []T, nx, ny int) {
	t.Helper()
	for z := range p.verified {
		for y := range ny {
			s := rowSum(want, nx, ny, 0, nx, y, z)
			if !num.SameBits(p.verified[z][y], s) || !num.SameBits(p.curB[z][y], s) {
				t.Fatalf("%s: layer %d row %d checksums verified %v, current %v, want %v", what, z, y, p.verified[z][y], p.curB[z][y], s)
			}
		}
	}
}
