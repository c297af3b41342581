package stencil

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// SweepRectFused sweeps the rectangle [x0,x1) x [y0,y1) of the domain only,
// accumulating the block's partial column checksums: b[j] = Σ_{x in
// [x0,x1)} dst(x, y0+j) for j in [0, y1-y0). It is the per-block analogue
// of SweepFused — the unit the paper's tiled deployment runs per chunk.
// b may be nil; sites are in domain coordinates and those outside the
// rectangle are ignored.
//
// Disjoint rectangles touch disjoint dst cells and disjoint b slices, so
// concurrent calls over a block partition need no locking.
//
// The interior of each row runs through the operator's compiled plan
// (plan.go): precomputed offsets/weights — no per-call allocation — and a
// hand-unrolled kernel when the stencil matches one of the canonical
// shapes.
func (op *Op2D[T]) SweepRectFused(dst, src *grid.Grid[T], x0, y0, x1, y1 int, b []T, sites []Site[T]) {
	nx, ny := src.Nx(), src.Ny()
	if dst == src {
		panic("stencil: sweep destination aliases source")
	}
	if !dst.SameShape(src) {
		panic("stencil: sweep shape mismatch")
	}
	if x0 < 0 || y0 < 0 || x1 > nx || y1 > ny || x0 > x1 || y0 > y1 {
		panic("stencil: SweepRectFused rectangle out of range")
	}
	pl := op.plan(nx, ny)
	bg := grid.BoundedGrid[T]{G: src, Cond: op.BC, ConstVal: op.BCValue}
	rx, ry := pl.rx, pl.ry
	srcD, dstD := src.Data(), dst.Data()
	var cD []T
	if op.C != nil {
		cD = op.C.Data()
	}
	for y := y0; y < y1; y++ {
		var acc T
		base := y * nx
		yInterior := y >= ry && y < ny-ry
		// Fast-path x range: the intersection of the rectangle with the
		// domain interior.
		xlo, xhi := max(x0, rx), min(x1, nx-rx)
		if !yInterior || xhi < xlo {
			xlo, xhi = x1, x1
		}
		for x := x0; x < min(xlo, x1); x++ {
			v := op.pointSlow(bg, cD, x, y, nx)
			dstD[base+x] = v
			acc += v
		}
		acc = pl.sweepRow(dstD, srcD, cD, base, xlo, xhi, acc)
		for x := max(xhi, min(xlo, x1)); x < x1; x++ {
			v := op.pointSlow(bg, cD, x, y, nx)
			dstD[base+x] = v
			acc += v
		}
		if b != nil {
			b[y-y0] = acc
		}
	}
	applySites(sites, dstD, nx, 0, x0, y0, x1, y1, 0, b)
}

// ChecksumBRect computes the block's partial column checksums directly:
// b[j] = Σ_{x in [x0,x1)} g(x, y0+j), each summed left to right from zero.
//
// One row's sum is a chain of dependent adds, bound by the add's latency, so
// rows go four a trip, each into its own accumulator: the four chains
// overlap, and each row still adds its cells in x order from zero, so every
// entry has the bits of the one-row loop's.
func ChecksumBRect[T num.Float](g *grid.Grid[T], x0, y0, x1, y1 int, b []T) {
	y := y0
	for ; y+4 <= y1; y += 4 {
		r0 := g.Row(y)[x0:x1]
		r1 := g.Row(y + 1)[x0:x1][:len(r0)]
		r2 := g.Row(y + 2)[x0:x1][:len(r0)]
		r3 := g.Row(y + 3)[x0:x1][:len(r0)]
		var s0, s1, s2, s3 T
		for x, v := range r0 {
			s0 += v
			s1 += r1[x]
			s2 += r2[x]
			s3 += r3[x]
		}
		j := y - y0
		b[j], b[j+1], b[j+2], b[j+3] = s0, s1, s2, s3
	}
	for ; y < y1; y++ {
		var acc T
		row := g.Row(y)[x0:x1]
		// Four adds a trip, in the same order: the one-add loop is 20
		// bytes and ran at half speed (every constructor's set-up with it)
		// whenever the linker happened to lay it across a cache line.
		for ; len(row) >= 4; row = row[4:] {
			acc += row[0]
			acc += row[1]
			acc += row[2]
			acc += row[3]
		}
		for _, v := range row {
			acc += v
		}
		b[y-y0] = acc
	}
}

// ChecksumARect computes the block's partial row checksums directly:
// a[i] = Σ_{y in [y0,y1)} g(x0+i, y), each summed top to bottom from zero.
func ChecksumARect[T num.Float](g *grid.Grid[T], x0, y0, x1, y1 int, a []T) {
	a = a[:x1-x0]
	clear(a)
	for y := y0; y < y1; y++ {
		row := g.Row(y)[x0:x1]
		row = row[:len(a)]
		for i, v := range row {
			a[i] += v
		}
	}
}
