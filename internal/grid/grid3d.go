package grid

import (
	"fmt"
	"slices"

	"stencilabft/internal/num"
)

// Grid3D is a dense nx-by-ny-by-nz 3-D field of T stored as nz contiguous
// 2-D layers. Layer views share storage with the parent, so the paper's
// per-layer ABFT scheme can operate on each layer as an ordinary 2-D grid.
type Grid3D[T num.Float] struct {
	nx, ny, nz int
	data       []T
	layers     []*Grid[T]
}

// New3D returns an nx-by-ny-by-nz grid initialised to zero.
func New3D[T num.Float](nx, ny, nz int) *Grid3D[T] {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return layered(nx, ny, nz, make([]T, nx*ny*nz))
}

// layered wraps data, nx*ny*nz cells, as a grid with its layer views.
func layered[T num.Float](nx, ny, nz int, data []T) *Grid3D[T] {
	g := &Grid3D[T]{nx: nx, ny: ny, nz: nz, data: data, layers: make([]*Grid[T], nz)}
	for z := range nz {
		g.layers[z] = FromSlice(nx, ny, data[z*nx*ny:(z+1)*nx*ny])
	}
	return g
}

// Stack views g as the one-layer 3-D grid: layer 0 is g itself, so the two
// share storage and a write through either shows in both.
func Stack[T num.Float](g *Grid[T]) *Grid3D[T] {
	return &Grid3D[T]{nx: g.nx, ny: g.ny, nz: 1, data: g.data, layers: []*Grid[T]{g}}
}

// Nx returns the number of columns.
func (g *Grid3D[T]) Nx() int { return g.nx }

// Ny returns the number of rows per layer.
func (g *Grid3D[T]) Ny() int { return g.ny }

// Nz returns the number of layers.
func (g *Grid3D[T]) Nz() int { return g.nz }

// Len returns the number of points, nx*ny*nz.
func (g *Grid3D[T]) Len() int { return len(g.data) }

// At returns the value at (x, y, z).
func (g *Grid3D[T]) At(x, y, z int) T { return g.data[x+y*g.nx+z*g.nx*g.ny] }

// Set stores v at (x, y, z).
func (g *Grid3D[T]) Set(x, y, z int, v T) { g.data[x+y*g.nx+z*g.nx*g.ny] = v }

// Index returns the flat index of (x, y, z).
func (g *Grid3D[T]) Index(x, y, z int) int { return x + y*g.nx + z*g.nx*g.ny }

// Coords returns the (x, y, z) coordinates of flat index i.
func (g *Grid3D[T]) Coords(i int) (x, y, z int) {
	plane := g.nx * g.ny
	z = i / plane
	r := i % plane
	return r % g.nx, r / g.nx, z
}

// Data exposes the backing slice (x fastest, then y, then z).
func (g *Grid3D[T]) Data() []T { return g.data }

// Layer returns layer z as a 2-D grid view sharing storage.
func (g *Grid3D[T]) Layer(z int) *Grid[T] { return g.layers[z] }

// Fill sets every point to v.
func (g *Grid3D[T]) Fill(v T) {
	for i := range g.data {
		g.data[i] = v
	}
}

// FillFunc sets every point to f(x, y, z).
func (g *Grid3D[T]) FillFunc(f func(x, y, z int) T) {
	i := 0
	for z := 0; z < g.nz; z++ {
		for y := 0; y < g.ny; y++ {
			for x := 0; x < g.nx; x++ {
				g.data[i] = f(x, y, z)
				i++
			}
		}
	}
}

// Clone returns a deep copy of the grid, appended into fresh storage that
// is never zeroed first (Grid.Clone).
func (g *Grid3D[T]) Clone() *Grid3D[T] {
	return layered(g.nx, g.ny, g.nz, slices.Clone(g.data))
}

// CopyFrom copies src's contents into g. The dimensions must match.
func (g *Grid3D[T]) CopyFrom(src *Grid3D[T]) {
	if g.nx != src.nx || g.ny != src.ny || g.nz != src.nz {
		panic("grid: CopyFrom shape mismatch")
	}
	copy(g.data, src.data)
}

// SameShape reports whether g and o have identical dimensions.
func (g *Grid3D[T]) SameShape(o *Grid3D[T]) bool {
	return g.nx == o.nx && g.ny == o.ny && g.nz == o.nz
}

// MaxAbsDiff returns the largest absolute element-wise difference between g
// and o, which must have the same shape.
func (g *Grid3D[T]) MaxAbsDiff(o *Grid3D[T]) T {
	if !g.SameShape(o) {
		panic("grid: MaxAbsDiff shape mismatch")
	}
	var m T
	for i := range g.data {
		d := num.Abs(g.data[i] - o.data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// String describes the grid's shape, for diagnostics.
func (g *Grid3D[T]) String() string { return fmt.Sprintf("grid %dx%dx%d", g.nx, g.ny, g.nz) }

// BoundedGrid3D pairs a 3-D grid with a boundary condition, resolving each
// axis independently like BoundedGrid.
type BoundedGrid3D[T num.Float] struct {
	G        *Grid3D[T]
	Cond     Boundary
	ConstVal T
}

// At returns the value at (x, y, z), resolving out-of-domain coordinates
// with the boundary condition.
func (bg BoundedGrid3D[T]) At(x, y, z int) T {
	rx, okx := bg.Cond.ResolveIndex(x, bg.G.nx)
	ry, oky := bg.Cond.ResolveIndex(y, bg.G.ny)
	rz, okz := bg.Cond.ResolveIndex(z, bg.G.nz)
	if !okx || !oky || !okz {
		if bg.Cond == Constant {
			return bg.ConstVal
		}
		return 0
	}
	return bg.G.At(rx, ry, rz)
}
