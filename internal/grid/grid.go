// Package grid provides the dense 2-D and 3-D computational domains that
// stencil sweeps operate on, together with boundary-condition ghost
// resolution and the double buffers the sweep engines exchange.
//
// A Grid is stored as a single flat slice in row-major order (x fastest),
// matching the memory layout of the paper's HotSpot3D prototype so that the
// fused checksum loop touches memory in the same streaming pattern.
package grid

import (
	"fmt"
	"slices"

	"stencilabft/internal/num"
)

// Grid is a dense nx-by-ny 2-D field of T. The zero value is unusable; use
// New. (x, y) indexes column x of row y; the flat index is x + y*nx.
type Grid[T num.Float] struct {
	nx, ny int
	data   []T
}

// New returns an nx-by-ny grid initialised to zero. It panics if either
// dimension is not positive, since a dimensionless domain is always a
// programming error.
func New[T num.Float](nx, ny int) *Grid[T] {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", nx, ny))
	}
	return &Grid[T]{nx: nx, ny: ny, data: make([]T, nx*ny)}
}

// FromSlice wraps an existing row-major slice as a grid without copying.
// len(data) must be nx*ny.
func FromSlice[T num.Float](nx, ny int, data []T) *Grid[T] {
	if nx <= 0 || ny <= 0 || len(data) != nx*ny {
		panic(fmt.Sprintf("grid: slice of len %d cannot back a %dx%d grid", len(data), nx, ny))
	}
	return &Grid[T]{nx: nx, ny: ny, data: data}
}

// Nx returns the number of columns.
func (g *Grid[T]) Nx() int { return g.nx }

// Ny returns the number of rows.
func (g *Grid[T]) Ny() int { return g.ny }

// Len returns the number of points, nx*ny.
func (g *Grid[T]) Len() int { return len(g.data) }

// At returns the value at (x, y). Both coordinates must be in range.
func (g *Grid[T]) At(x, y int) T { return g.data[x+y*g.nx] }

// Set stores v at (x, y). Both coordinates must be in range.
func (g *Grid[T]) Set(x, y int, v T) { g.data[x+y*g.nx] = v }

// Index returns the flat index of (x, y).
func (g *Grid[T]) Index(x, y int) int { return x + y*g.nx }

// Coords returns the (x, y) coordinates of flat index i.
func (g *Grid[T]) Coords(i int) (x, y int) { return i % g.nx, i / g.nx }

// Data exposes the backing slice (row-major, x fastest). Mutating it
// mutates the grid; the sweep engines use it for streaming access.
func (g *Grid[T]) Data() []T { return g.data }

// Row returns the y-th row as a slice sharing the grid's storage.
func (g *Grid[T]) Row(y int) []T { return g.data[y*g.nx : (y+1)*g.nx] }

// Fill sets every point to v.
func (g *Grid[T]) Fill(v T) {
	for i := range g.data {
		g.data[i] = v
	}
}

// FillFunc sets every point to f(x, y).
func (g *Grid[T]) FillFunc(f func(x, y int) T) {
	i := 0
	for y := 0; y < g.ny; y++ {
		for x := 0; x < g.nx; x++ {
			g.data[i] = f(x, y)
			i++
		}
	}
}

// Clone returns a deep copy of the grid. The copy is appended into fresh
// storage, which the runtime does not zero first as it does a make's: the
// cells are written once, not cleared and then overwritten.
func (g *Grid[T]) Clone() *Grid[T] {
	return &Grid[T]{nx: g.nx, ny: g.ny, data: slices.Clone(g.data)}
}

// CopyFrom copies src's contents into g. The dimensions must match.
func (g *Grid[T]) CopyFrom(src *Grid[T]) {
	if g.nx != src.nx || g.ny != src.ny {
		panic(fmt.Sprintf("grid: copy %dx%d from %dx%d", g.nx, g.ny, src.nx, src.ny))
	}
	copy(g.data, src.data)
}

// SameShape reports whether g and o have identical dimensions.
func (g *Grid[T]) SameShape(o *Grid[T]) bool { return g.nx == o.nx && g.ny == o.ny }

// MaxAbsDiff returns the largest absolute element-wise difference between g
// and o, which must have the same shape.
func (g *Grid[T]) MaxAbsDiff(o *Grid[T]) T {
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

// SumAll returns the sum of every point, accumulated left to right.
func (g *Grid[T]) SumAll() T { return num.Sum(g.data) }

// String describes the grid's shape, for diagnostics.
func (g *Grid[T]) String() string { return fmt.Sprintf("grid %dx%d", g.nx, g.ny) }
