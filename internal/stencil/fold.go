package stencil

import (
	"math"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Boundary folding: instead of resolving the boundary condition per stencil
// point per cell, a sweep resolves it once per row. For the row (y, z) every
// stencil point reads one source row — (y+dy, z+dz) pushed through the BC —
// and that is either another row of the domain (Clamp, Periodic, Mirror;
// possibly the row itself) or, under Constant and Zero, a ghost row the fold
// owns. The row kernels take per-point source slices, so a folded neighbour
// costs the same as an interior one and all five BCs are one code path. Only
// the 2*rx columns at the ends of a row still need a per-point x lookup, and
// that comes from a table built with the fold.
//
// Nothing here knows the dimension: a 2-D domain is nz = 1 with every dz = 0.

// noSource marks, in a fold's tables and start lists, a stencil point whose
// source lies in the ghost region of a Constant or Zero boundary.
const noSource = math.MinInt

// stackPoints is how many stencil points SweepLayer's per-row scratch holds
// on the stack; larger stencils take two allocations per call.
const stackPoints = 32

// rowFold holds what is resolved per plan: the flat offsets, the ghost row
// and the edge-column table. It is immutable and shared by all workers.
type rowFold[T num.Float] struct {
	bc         grid.Boundary
	nx, ny, nz int
	plane      int // nx*ny
	rx, ry, rz int
	pts        []Point[T]
	offs       []int // per point: dx + dy*nx + dz*plane
	ghost      []T   // nx copies of ghostVal; nil unless bc is Constant or Zero
	ghostVal   T     // BCValue under Constant, 0 under Zero
	edgeX      []int // x of each edge column: [0, rx) then [nx-rx, nx), ascending
	// edgeCol[e*k+i] is what to add to point i's row start (which already
	// includes dx, see starts) to reach its BC-resolved source column at
	// edge column e; noSource when that column is a ghost.
	edgeCol []int
}

func newRowFold[T num.Float](pts []Point[T], bc grid.Boundary, bcValue T, nx, ny, nz, rx, ry, rz int) rowFold[T] {
	f := rowFold[T]{
		bc: bc, nx: nx, ny: ny, nz: nz, plane: nx * ny, rx: rx, ry: ry, rz: rz,
		pts:  pts,
		offs: make([]int, len(pts)),
	}
	for i, p := range pts {
		f.offs[i] = p.DX + p.DY*nx + p.DZ*f.plane
	}
	if bc == grid.Constant || bc == grid.Zero {
		if bc == grid.Constant {
			f.ghostVal = bcValue
		}
		f.ghost = make([]T, nx)
		for i := range f.ghost {
			f.ghost[i] = f.ghostVal
		}
	}
	for x := 0; x < nx; x++ {
		if x >= rx && x < nx-rx {
			continue
		}
		f.edgeX = append(f.edgeX, x)
		for _, p := range pts {
			col, ok := bc.ResolveIndex(x+p.DX, nx)
			if !ok {
				col = noSource
			} else {
				col -= p.DX
			}
			f.edgeCol = append(f.edgeCol, col)
		}
	}
	return f
}

// starts resolves row (y, z): st[i] becomes the flat index of the value
// point i reads for x = 0 — its source row's start plus dx — or noSource
// when the row is a ghost. This is the only per-row boundary work.
func (f *rowFold[T]) starts(y, z int, st []int) {
	if y >= f.ry && y < f.ny-f.ry && z >= f.rz && z < f.nz-f.rz {
		base := z*f.plane + y*f.nx
		for i, o := range f.offs {
			st[i] = base + o
		}
		return
	}
	for i, p := range f.pts {
		yy, zz := y+p.DY, z+p.DZ
		oky, okz := true, true
		if yy < 0 || yy >= f.ny {
			yy, oky = f.bc.ResolveIndex(yy, f.ny)
		}
		if zz < 0 || zz >= f.nz {
			zz, okz = f.bc.ResolveIndex(zz, f.nz)
		}
		if oky && okz {
			st[i] = zz*f.plane + yy*f.nx + p.DX
		} else {
			st[i] = noSource
		}
	}
}

// rows turns resolved starts into the kernels' per-point source slices for
// the n destination columns from lo on. Columns [lo, lo+n) must be interior
// in x, so lo+dx stays inside the source row.
func (f *rowFold[T]) rows(rows [][]T, src []T, st []int, lo, n int) {
	for i, s := range st {
		if s == noSource {
			rows[i] = f.ghost[:n]
		} else {
			rows[i] = src[s+lo : s+lo+n]
		}
	}
}

// sweepEdges computes edge columns [e0, e1) of the row at flat index base:
// per cell C first, then the points in declaration order, a ghost
// contributing w*ghostVal in its slot — the order of the row kernels and of
// the per-point reference they are pinned against.
func (f *rowFold[T]) sweepEdges(dst, src, c, ws []T, st []int, base, e0, e1 int, acc T) T {
	k := len(st)
	for e := e0; e < e1; e++ {
		x := f.edgeX[e]
		var v T
		if c != nil {
			v = c[base+x]
		}
		for i, col := range f.edgeCol[e*k : (e+1)*k] {
			val := f.ghostVal
			if s := st[i]; s != noSource && col != noSource {
				val = src[s+col]
			}
			v += ws[i] * val
		}
		dst[base+x] = v
		acc += v
	}
	return acc
}
