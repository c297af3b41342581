package stencil

import (
	"slices"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Boundary folding: instead of resolving the boundary condition per stencil
// point per cell, a sweep resolves it once per plan. For the row (y, z) every
// stencil point reads one source row — (y+dy, z+dz) pushed through the BC —
// and that is either another row of the domain (Clamp, Periodic, Mirror;
// possibly the row itself) or, under Constant and Zero, a ghost row the fold
// owns. Points that differ only in dx read the same source row, so the plan
// numbers the distinct (dy, dz) offsets — a star's centre, west and east
// share one — and resolves each one's source row offset once per row index
// and its source layer offset once per layer index: every row, interior,
// boundary row or z-face alike, finds its sources by two table reads per
// distinct offset. Past the ends of a row, column x+dx resolves the same way
// for every row, so the plan resolves those 2*rx columns once: to a column of
// the source row, or to the ghost value. A row kernel gets the whole source
// row of each point and computes all nx cells, edge columns included, so a
// folded neighbour costs the same as an interior one and all five BCs are one
// code path.
//
// Nothing here knows the dimension: a 2-D domain is nz = 1 with every dz = 0.

// stackPoints is how many source rows SweepRows' per-row scratch holds on the
// stack; a stencil with more distinct (dy, dz) offsets takes one allocation
// per call.
const stackPoints = 32

// rowFold holds what is resolved per plan: the source row tables, the ghost
// row and the columns past the row ends. It is immutable and shared by all
// workers.
type rowFold[T num.Float] struct {
	bc         grid.Boundary
	nx, ny, nz int
	rx         int
	pts        []Point[T]
	// slot[i] numbers point i's (dy, dz) offset among the distinct ones, in
	// order of first appearance; nrows is how many there are. A row's
	// sources hold one row per slot, and point i reads rows[slot[i]].
	slot  []int
	nrows int
	// yoff[y*nrows+s] is the offset of the row slot s reads for a row at y,
	// (y+dy)*nx resolved, and zoff[z*nrows+s] that of its layer,
	// (z+dz)*nx*ny resolved: slot s of row (y, z) reads the nx values at
	// yoff+zoff. A ghost row or layer is ghostOff, so negative enough that
	// the sum is negative whatever the other table holds.
	yoff, zoff []int
	ghost      []T // nx copies of ghostVal; nil unless bc is Constant or Zero
	ghostVal   T   // BCValue under Constant, 0 under Zero
	// xcol[d] is the column x = d-rx resolves to for d < rx, and x = nx+d-rx
	// for d >= rx; -1 when that column is a ghost. Under Constant and Zero
	// every entry is -1, under the other BCs none is.
	xcol []int
}

func newRowFold[T num.Float](pts []Point[T], bc grid.Boundary, bcValue T, nx, ny, nz, rx int) rowFold[T] {
	f := rowFold[T]{
		bc: bc, nx: nx, ny: ny, nz: nz, rx: rx,
		pts:  pts,
		slot: make([]int, len(pts)),
		xcol: make([]int, 2*rx),
	}
	var rowOffs [][2]int // the distinct (dy, dz), by slot
	for i, p := range pts {
		o := [2]int{p.DY, p.DZ}
		s := slices.Index(rowOffs, o)
		if s < 0 {
			s = len(rowOffs)
			rowOffs = append(rowOffs, o)
		}
		f.slot[i] = s
	}
	f.nrows = len(rowOffs)
	ghostOff := -nx*ny*nz - 1
	resolve := func(i, n, stride int) int {
		if r, ok := bc.ResolveIndex(i, n); ok {
			return r * stride
		}
		return ghostOff
	}
	k := f.nrows
	f.yoff, f.zoff = make([]int, ny*k), make([]int, nz*k)
	for s, o := range rowOffs {
		for y := range ny {
			f.yoff[y*k+s] = resolve(y+o[0], ny, nx)
		}
		for z := range nz {
			f.zoff[z*k+s] = resolve(z+o[1], nz, nx*ny)
		}
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

// sources points rows[s] (len(rows) = nrows) at the whole source row slot s
// reads for row (y, z) — nx values, x = 0 first, dx not applied — or at the
// ghost row: two table reads per slot, the same for every row.
func (f *rowFold[T]) sources(rows [][]T, src []T, y, z int) {
	k, nx := len(rows), f.nx
	ys, zs := f.yoff[y*k:][:k], f.zoff[z*k:][:k]
	for s := range rows {
		if o := ys[s] + zs[s]; o >= 0 {
			rows[s] = src[o : o+nx]
		} else {
			rows[s] = f.ghost
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
