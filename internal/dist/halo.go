package dist

import "stencilabft/internal/grid"

// packCols copies the hx-wide column strip starting at extended column x0,
// over the tile's own rows, row-major into buf (len hx*nyLoc). The walk
// indexes the backing array directly — one strided load/store per element,
// no per-row slice headers — because at the common depth hx=1 the strip is
// a single column and per-row call overhead would rival the copy itself.
func (r *rank[T]) packCols(ext *grid.Grid[T], x0 int, buf []T) {
	data, stride := ext.Data(), ext.Nx()
	idx := r.loY()*stride + x0
	if r.hx == 1 {
		for i := range buf {
			buf[i] = data[idx]
			idx += stride
		}
		return
	}
	for i := 0; i < len(buf); i += r.hx {
		copy(buf[i:i+r.hx], data[idx:idx+r.hx])
		idx += stride
	}
}

// unpackCols copies a received column strip into the hx-wide halo region
// starting at extended column x0, over the tile's own rows.
func (r *rank[T]) unpackCols(ext *grid.Grid[T], x0 int, buf []T) {
	data, stride := ext.Data(), ext.Nx()
	idx := r.loY()*stride + x0
	if r.hx == 1 {
		for i := range buf {
			data[idx] = buf[i]
			idx += stride
		}
		return
	}
	for i := 0; i < len(buf); i += r.hx {
		copy(data[idx:idx+r.hx], buf[i:i+r.hx])
		idx += stride
	}
}

// fillSideHaloRows synthesises the ghost columns beyond the global domain's
// x edge over the extended-frame row range [y0, y1) by applying the global
// boundary condition column-wise: the tile's own rows on an exchange
// iteration, the shell rows the current depth-k sub-iteration's sweeps read
// in between. Clamp and Mirror resolve to columns this rank owns (a tile is
// strictly wider than the radius, so a reflected column never leaves it);
// Constant and Zero substitute the fixed ghost value.
func (r *rank[T]) fillSideHaloRows(left bool, y0, y1 int) {
	ext := r.buf.Read
	data, stride := ext.Data(), ext.Nx()
	for j := 0; j < r.hx; j++ {
		var gx, col int // global ghost column and its extended-frame index
		if left {
			gx = r.tile.X0 - r.hx + j
			col = j
		} else {
			gx = r.tile.X1 + j
			col = r.hiX() + j
		}
		rx, ok := r.globalBC.ResolveIndex(gx, r.globalNx)
		if !ok {
			v := T(0)
			if r.globalBC == grid.Constant {
				v = r.op.BCValue
			}
			for idx := y0*stride + col; idx < y1*stride; idx += stride {
				data[idx] = v
			}
			continue
		}
		src := r.loX() + rx - r.tile.X0
		for idx := y0 * stride; idx < y1*stride; idx += stride {
			data[idx+col] = data[idx+src]
		}
	}
}

// fillEdgeHalo synthesises the ghost rows beyond the global domain's y edge
// at full extended width by applying the global boundary condition
// row-wise. Copying the whole extended source row — x halos included — is
// what keeps the corner ghosts exact: the value at (ghost x, ghost y)
// becomes the x-resolved value of the y-resolved row, i.e. both axes
// resolve independently, matching grid.BoundedGrid. Refreshing these rows
// every iteration is what keeps the tile interpolation exact at the domain
// edge.
func (r *rank[T]) fillEdgeHalo(top bool) {
	ext := r.buf.Read
	for j := 0; j < r.hy; j++ {
		var gy, row int // global ghost row and its extended-frame index
		if top {
			gy = r.tile.Y0 - r.hy + j
			row = j
		} else {
			gy = r.tile.Y1 + j
			row = r.hiY() + j
		}
		dst := ext.Row(row)
		ry, ok := r.globalBC.ResolveIndex(gy, r.globalNy)
		if !ok {
			v := T(0)
			if r.globalBC == grid.Constant {
				v = r.op.BCValue
			}
			for x := range dst {
				dst[x] = v
			}
			continue
		}
		copy(dst, ext.Row(r.loY()+ry-r.tile.Y0))
	}
}
