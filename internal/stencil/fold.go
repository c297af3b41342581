package stencil

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Boundary folding: instead of resolving the boundary condition per stencil
// point per cell, a sweep resolves it once per row and once per plan. For the
// row (y, z) every stencil point reads one source row — (y+dy, z+dz) pushed
// through the BC — and that is either another row of the domain (Clamp,
// Periodic, Mirror; possibly the row itself) or, under Constant and Zero, a
// ghost row the fold owns. Past the ends of a row, column x+dx resolves the
// same way for every row, so the plan resolves those 2*rx columns once: to a
// column of the source row, or to the ghost value. A row kernel gets the
// whole source row of each point and computes all nx cells, edge columns
// included, so a folded neighbour costs the same as an interior one and all
// five BCs are one code path.
//
// Nothing here knows the dimension: a 2-D domain is nz = 1 with every dz = 0.

// stackPoints is how many stencil points SweepRows' per-row scratch holds on
// the stack; larger stencils take one allocation per call.
const stackPoints = 32

// rowFold holds what is resolved per plan: the row offsets, the ghost row and
// the columns past the row ends. It is immutable and shared by all workers.
type rowFold[T num.Float] struct {
	bc         grid.Boundary
	nx, ny, nz int
	plane      int // nx*ny
	rx, ry, rz int
	pts        []Point[T]
	offs       []int // per point: dy*nx + dz*plane, the source row's offset
	ghost      []T   // nx copies of ghostVal; nil unless bc is Constant or Zero
	ghostVal   T     // BCValue under Constant, 0 under Zero
	// xcol[d] is the column x = d-rx resolves to for d < rx, and x = nx+d-rx
	// for d >= rx; -1 when that column is a ghost. Under Constant and Zero
	// every entry is -1, under the other BCs none is.
	xcol []int
}

func newRowFold[T num.Float](pts []Point[T], bc grid.Boundary, bcValue T, nx, ny, nz, rx, ry, rz int) rowFold[T] {
	f := rowFold[T]{
		bc: bc, nx: nx, ny: ny, nz: nz, plane: nx * ny, rx: rx, ry: ry, rz: rz,
		pts:  pts,
		offs: make([]int, len(pts)),
		xcol: make([]int, 2*rx),
	}
	for i, p := range pts {
		f.offs[i] = p.DY*nx + p.DZ*f.plane
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
	for d := range f.xcol {
		x := d - rx
		if d >= rx {
			x = nx + d - rx
		}
		col, ok := bc.ResolveIndex(x, nx)
		if !ok {
			col = -1
		}
		f.xcol[d] = col
	}
	return f
}

// sources points rows[i] at the whole source row stencil point i reads for
// row (y, z) — nx values, x = 0 first, dx not applied — or at the ghost row.
// This is the only per-row boundary work.
func (f *rowFold[T]) sources(rows [][]T, src []T, y, z int) {
	nx := f.nx
	if y >= f.ry && y < f.ny-f.ry && z >= f.rz && z < f.nz-f.rz {
		base := z*f.plane + y*nx
		for i, o := range f.offs {
			rows[i] = src[base+o : base+o+nx]
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
			s := zz*f.plane + yy*nx
			rows[i] = src[s : s+nx]
		} else {
			rows[i] = f.ghost
		}
	}
}

// at is the value a point whose source row is r reads at column x, which
// lies within rx of the row: r[x] inside the row, else the plan-resolved
// column of r or the ghost value.
func (f *rowFold[T]) at(r []T, x int) T {
	switch {
	case x < 0:
		x = f.xcol[x+f.rx]
	case x >= f.nx:
		x = f.xcol[x-f.nx+f.rx]
	}
	if x < 0 {
		return f.ghostVal
	}
	return r[x]
}
