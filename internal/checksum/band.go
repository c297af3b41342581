package checksum

import (
	"fmt"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// InterpolateBBand interpolates the column checksums of a horizontal band
// of a larger domain — the unit of the paper's distributed-memory
// decomposition, where each rank owns a band of rows and exchanges halo
// rows with its neighbours instead of applying a boundary condition in y.
//
// bPrevExt carries the previous iteration's checksums of the extended band:
// entries [0, h) are the checksums of the h halo rows above, [h, h+ny) the
// band's own rows, and [h+ny, h+ny+h) the halo rows below (h >= RadiusY).
// Halo checksums are plain row sums of the received halo rows, so ranks
// need no extra communication beyond the halo exchange itself.
//
// The x-direction boundary terms beta are evaluated exactly as in
// InterpolateB; edges must serve y values across the extended range
// [-h, ny+h) and resolve x outside [0, nx) to whatever the chunk's
// x-neighbour data is — the materialised halo columns of a tile
// (TileEdges), which is how halo columns enter the beta terms of the 2-D
// decomposition.
func (ip *Interp2D[T]) InterpolateBBand(bPrevExt []T, h int, edges EdgeSource[T], bNext []T) {
	if len(bPrevExt) != ip.ny+2*h || len(bNext) != ip.ny {
		panic(fmt.Sprintf("checksum: InterpolateBBand lengths %d/%d for ny=%d h=%d",
			len(bPrevExt), len(bNext), ip.ny, h))
	}
	if ry := ip.op.St.RadiusY(); h < ry {
		panic(fmt.Sprintf("checksum: halo width %d below stencil radius %d", h, ry))
	}
	if te, ok := edges.(TileEdges[T]); ok && !ip.DropBoundaryTerms &&
		te.HX >= ip.op.St.RadiusX() && te.HY >= ip.op.St.RadiusY() {
		ip.interpolateBBandTile(bPrevExt, h, te, bNext)
		return
	}
	for y := 0; y < ip.ny; y++ {
		v := ip.cB[y]
		for _, p := range ip.op.St.Points {
			yy := y + p.DY
			// Halo rows substitute for boundary resolution in y:
			// yy in [-h, ny+h) indexes bPrevExt directly. The beta
			// terms always apply here: for a partial-width chunk the
			// entering/leaving columns are real neighbour data, and
			// for a full-width band under periodic boundaries they
			// cancel to exactly zero on their own — so no skip is
			// valid in general.
			term := bPrevExt[yy+h]
			if p.DX != 0 && !ip.DropBoundaryTerms {
				term += ip.beta(edges, p.DX, yy)
			}
			v += p.W * term
		}
		bNext[y] = v
	}
}

// interpolateBBandTile is InterpolateBBand over a materialised tile frame,
// with the beta terms tabulated in one row-major pass over the extended
// storage: each row touched once fills every distinct DX's table entry from
// the handful of edge cells it holds (two cache lines per row instead of
// one strided column walk per entering/leaving column), and the main loop
// reads the tables instead of paying one virtual EdgeSource.At call per
// ghost value per stencil point per row. Each table entry accumulates the
// same addends in the same order as the scalar beta (entering columns
// ascending x first, then leaving columns ascending x), and the stencil
// points are applied one branch-free contiguous pass each — the DX test
// hoisted out of the row loop — in the same point order and with the same
// per-entry accumulation sequence as the generic path, so the results are
// bit-identical to it.
func (ip *Interp2D[T]) interpolateBBandTile(bPrevExt []T, h int, te TileEdges[T], bNext []T) {
	rx, ry := ip.op.St.RadiusX(), ip.op.St.RadiusY()
	if !ip.betaPrimed {
		ip.ensureBetaTables()
		if ip.betaMidPrimed {
			ip.fillBetaRows(te, 0, ry)
			ip.fillBetaRows(te, ry+ip.ny, ip.ny+2*ry)
		} else {
			ip.fillBetaRows(te, 0, ip.ny+2*ry)
		}
	}
	ip.betaPrimed, ip.betaMidPrimed = false, false
	copy(bNext, ip.cB)
	for _, p := range ip.op.St.Points {
		w := p.W
		src := bPrevExt[p.DY+h : p.DY+h+ip.ny]
		if p.DX == 0 {
			for y, s := range src {
				bNext[y] += w * s
			}
			continue
		}
		tab := ip.betaLookup[p.DX+rx][p.DY+ry : p.DY+ry+ip.ny]
		for y, s := range src {
			bNext[y] += w * (s + tab[y])
		}
	}
}

// PrimeBetaTablesMid fills the beta-table rows that read only the tile's
// own rows (yy in [0, ny)) — callable as soon as the x halos are folded in,
// while the unpacked edge columns' cache lines are still warm, before the
// tile sweeps evict them. The ghost-row entries (yy outside [0, ny)) read
// halo rows the y exchange has not delivered yet; PrimeBetaTables fills
// those afterwards. The tile's own rows must not change between this call
// and the interpolation that consumes the tables (halo-row refreshes are
// fine — they only affect the rows PrimeBetaTables covers).
func (ip *Interp2D[T]) PrimeBetaTablesMid(edges EdgeSource[T]) {
	te, ok := edges.(TileEdges[T])
	if !ok || ip.DropBoundaryTerms ||
		te.HX < ip.op.St.RadiusX() || te.HY < ip.op.St.RadiusY() {
		return
	}
	ry := ip.op.St.RadiusY()
	ip.ensureBetaTables()
	ip.fillBetaRows(te, ry, ry+ip.ny)
	ip.betaMidPrimed = true
}

// PrimeBetaTables fills the beta tables the next InterpolateBBand call
// would otherwise fill itself, letting the caller schedule the edge-column
// reads while the halo exchange still has those cache lines warm instead
// of after a full tile sweep has evicted them. After PrimeBetaTablesMid it
// completes just the ghost-row entries; otherwise it fills everything. A
// no-op unless edges is a TileEdges frame the fast path accepts; the edge
// values must not change between priming and the interpolation that
// consumes it.
func (ip *Interp2D[T]) PrimeBetaTables(edges EdgeSource[T]) {
	te, ok := edges.(TileEdges[T])
	if !ok || ip.DropBoundaryTerms ||
		te.HX < ip.op.St.RadiusX() || te.HY < ip.op.St.RadiusY() {
		return
	}
	ry := ip.op.St.RadiusY()
	ip.ensureBetaTables()
	if ip.betaMidPrimed {
		ip.fillBetaRows(te, 0, ry)
		ip.fillBetaRows(te, ry+ip.ny, ip.ny+2*ry)
		ip.betaMidPrimed = false
	} else {
		ip.fillBetaRows(te, 0, ip.ny+2*ry)
	}
	ip.betaPrimed = true
}

// ensureBetaTables allocates the beta tables on first use.
func (ip *Interp2D[T]) ensureBetaTables() {
	if ip.betaDxs != nil || ip.betaTab != nil {
		return
	}
	rx, ry := ip.op.St.RadiusX(), ip.op.St.RadiusY()
	span := ip.ny + 2*ry // yy range [-ry, ny+ry)
	present := make([]bool, 2*rx+1)
	minDY, maxDY := ry+1, -ry-1
	for _, p := range ip.op.St.Points {
		if p.DX != 0 {
			present[p.DX+rx] = true
			minDY, maxDY = min(minDY, p.DY), max(maxDY, p.DY)
		}
	}
	for dx := -rx; dx <= rx; dx++ {
		if dx != 0 && present[dx+rx] {
			ip.betaDxs = append(ip.betaDxs, dx)
		}
	}
	if len(ip.betaDxs) > 0 {
		ip.betaLoJ, ip.betaHiJ = minDY+ry, ip.ny+maxDY+ry
	}
	ip.betaTab = make([]T, max(len(ip.betaDxs)*span, 1))
	ip.betaLookup = make([][]T, 2*rx+1)
	for i, dx := range ip.betaDxs {
		ip.betaLookup[dx+rx] = ip.betaTab[i*span : (i+1)*span]
	}
}

// fillBetaRows (re)computes every distinct DX's beta-table entries for the
// table rows [j0, j1) (row j holds the terms at yy = j - RadiusY) from the
// tile frame's current edge values, clipped to the rows any interpolation
// reads. Tables must already be allocated.
func (ip *Interp2D[T]) fillBetaRows(te TileEdges[T], j0, j1 int) {
	j0, j1 = max(j0, ip.betaLoJ), min(j1, ip.betaHiJ)
	rx, ry := ip.op.St.RadiusX(), ip.op.St.RadiusY()
	ext := te.Ext.Data()
	stride := te.Ext.Nx()
	for j := j0; j < j1; j++ {
		base := (j-ry+te.HY)*stride + te.HX // index of local x=0 in row yy=j-ry
		for _, dx := range ip.betaDxs {
			var v T
			if dx < 0 {
				for x := dx; x < 0; x++ { // ghost columns entering on the left
					v += ext[base+x]
				}
				for x := ip.nx + dx; x < ip.nx; x++ { // domain columns leaving on the right
					v -= ext[base+x]
				}
			} else {
				for x := ip.nx; x < ip.nx+dx; x++ { // ghost columns entering on the right
					v += ext[base+x]
				}
				for x := 0; x < dx; x++ { // domain columns leaving on the left
					v -= ext[base+x]
				}
			}
			ip.betaLookup[dx+rx][j] = v
		}
	}
}

// InterpolateABlock interpolates the row checksums of a block whose
// x-neighbour data comes from horizontally adjacent blocks rather than a
// boundary condition: aPrevExt carries [0,h) halo entries on the left,
// [h, h+nx) the block's own entries, [h+nx, h+nx+h) halo entries on the
// right (h >= RadiusX). The y-window-shift terms alpha always apply (the
// rows entering and leaving the block's y-window are real neighbour data),
// so DropBoundaryTerms is ignored here. Together with InterpolateBBand
// (which serves equally for a block's column checksums) this gives exact
// interpolation for arbitrary interior chunks of a larger domain — the
// per-chunk deployment of the paper's Section 3.4.
func (ip *Interp2D[T]) InterpolateABlock(aPrevExt []T, h int, edges EdgeSource[T], aNext []T) {
	if len(aPrevExt) != ip.nx+2*h || len(aNext) != ip.nx {
		panic(fmt.Sprintf("checksum: InterpolateABlock lengths %d/%d for nx=%d h=%d",
			len(aPrevExt), len(aNext), ip.nx, h))
	}
	if rx := ip.op.St.RadiusX(); h < rx {
		panic(fmt.Sprintf("checksum: halo width %d below stencil radius %d", h, rx))
	}
	for x := 0; x < ip.nx; x++ {
		v := ip.cA[x]
		for _, p := range ip.op.St.Points {
			xx := x + p.DX
			term := aPrevExt[xx+h]
			if p.DY != 0 {
				term += ip.alpha(edges, p.DY, xx)
			}
			v += p.W * term
		}
		aNext[x] = v
	}
}

// OffsetEdges views a boundary-resolved grid in a sub-rectangle's local
// coordinate frame: local (x, y) reads the grid at (x+X0, y+Y0), resolving
// what lies outside it through the boundary condition. A chunk's
// interpolator (built with the chunk's dimensions) evaluates its alpha/beta
// terms in chunk-local coordinates; this hands it the right window.
type OffsetEdges[T num.Float] struct {
	Src    grid.BoundedGrid[T]
	X0, Y0 int
}

// At reads the grid at the translated coordinates.
func (oe OffsetEdges[T]) At(x, y int) T { return oe.Src.At(x+oe.X0, y+oe.Y0) }

// TileEdges adapts a fully extended tile grid — halo columns and halo rows
// (including the corner blocks) materialised in storage — to the EdgeSource
// contract of the tile interpolators: neither axis is boundary-resolved,
// because every ghost value a beta/alpha term can ask for is real data in
// the extended frame, either received from a neighbour or synthesised from
// the global boundary condition by the halo exchange. This is the edge
// source of the 2-D rank-grid decomposition, where InterpolateBBand's
// x-direction beta terms read halo columns exactly the way halo row sums
// enter the y terms.
type TileEdges[T num.Float] struct {
	Ext    *grid.Grid[T] // extended tile: nxLocal+2HX columns, nyLocal+2HY rows
	HX, HY int           // halo widths
}

// At returns ũ(x, y) of the tile, with x in [-HX, nxLocal+HX) and y in
// [-HY, nyLocal+HY) mapped into the extended storage.
func (te TileEdges[T]) At(x, y int) T { return te.Ext.At(x+te.HX, y+te.HY) }
