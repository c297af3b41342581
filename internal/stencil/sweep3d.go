package stencil

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Op3D binds a (possibly 3-D) stencil to a 3-D sweep context. The paper's
// per-layer ABFT scheme treats each z-layer as an independent 2-D domain;
// Op3D's per-layer sweep produces that layer's fused column checksum.
type Op3D[T num.Float] struct {
	St      *Stencil[T]
	BC      grid.Boundary
	BCValue T               // ghost value when BC == grid.Constant
	C       *grid.Grid3D[T] // optional constant field; nil means zero

	// ForceGeneric disables specialized-kernel dispatch; see Op2D.
	ForceGeneric bool

	// planc caches the compiled sweep plan for the last-seen shape; see
	// plan.go.
	planc planCache[plan3d[T]]
	// sweepc keeps SweepLayersInject's argument block between calls; see
	// parallel.go.
	sweepc planCache[layerSweep[T]]
}

// Stack views op as the operator of its domain's one-layer stack
// (grid.Stack): the same stencil, boundary and ForceGeneric, and the constant
// field's storage shared, not copied. A one-layer Op3D sweep is op's sweep bit
// for bit, grid and fused column checksum (kernels_test.go's pinStack).
func (op *Op2D[T]) Stack() *Op3D[T] {
	s := &Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue, ForceGeneric: op.ForceGeneric}
	if op.C != nil {
		s.C = grid.Stack(op.C)
	}
	return s
}

// Validate checks the operator against a domain of the given shape.
func (op *Op3D[T]) Validate(nx, ny, nz int) error {
	if err := op.St.Validate(); err != nil {
		return err
	}
	if !op.BC.Valid() {
		return opErrorf("stencil %q: invalid boundary condition", op.St.Name)
	}
	rx, ry, rz := op.St.RadiusX(), op.St.RadiusY(), op.St.RadiusZ()
	if rx >= nx || ry >= ny || rz >= nz {
		return opErrorf("stencil %q: radius %d/%d/%d exceeds domain %dx%dx%d",
			op.St.Name, rx, ry, rz, nx, ny, nz)
	}
	if op.C != nil && (op.C.Nx() != nx || op.C.Ny() != ny || op.C.Nz() != nz) {
		return opErrorf("stencil %q: constant field shape mismatch", op.St.Name)
	}
	return nil
}

// Sweep computes one full iteration of the 3-D domain.
func (op *Op3D[T]) Sweep(dst, src *grid.Grid3D[T]) {
	for z := 0; z < src.Nz(); z++ {
		op.SweepLayer(dst, src, z, nil, nil)
	}
}

// SweepLayer sweeps layer z only, optionally accumulating that layer's
// column checksum vector b (b[y] = Σ_x dst(x,y,z), len ny) and applying the
// sites that fall in the layer.
func (op *Op3D[T]) SweepLayer(dst, src *grid.Grid3D[T], z int, b []T, sites []Site[T]) {
	op.sweepRowsInject(dst, src, z, 0, 0, src.Nx(), src.Ny(), b, sites)
}

// sweepRowsInject is SweepRows followed by the sites that fall in its
// rectangle — the leaf of the parallel engine, whose distinct row ranges
// write disjoint storage, so it runs them concurrently without locks.
func (op *Op3D[T]) sweepRowsInject(dst, src *grid.Grid3D[T], z, x0, y0, x1, y1 int, b []T, sites []Site[T]) {
	op.SweepRows(dst, src, z, x0, y0, x1, y1, b)
	if b != nil {
		b = b[y0:]
	}
	nx := src.Nx()
	applySites(sites, dst.Data(), nx, z*nx*src.Ny(), x0, y0, x1, y1, z, b)
}

// SweepRows sweeps the rectangle [x0, x1) x [y0, y1) of layer z,
// accumulating b[y] = Σ_{x in [x0,x1)} dst(x,y,z), in x order, for those rows
// when b is non-nil — SweepLayer's body, the leaf of the box sweep, and what
// the repair path re-evaluates a flagged row with. An empty rectangle is a
// no-op.
//
// Every row takes the same path: the plan's fold points each stencil point at
// its BC-resolved source row (fold.go), and one row kernel computes the cells,
// the columns within rx of a row end included. Boundary rows and boundary
// layers cost what interior ones do.
func (op *Op3D[T]) SweepRows(dst, src *grid.Grid3D[T], z, x0, y0, x1, y1 int, b []T) {
	nx, ny, nz := src.Nx(), src.Ny(), src.Nz()
	if dst == src {
		panic("stencil: sweep destination aliases source")
	}
	if !dst.SameShape(src) {
		panic("stencil: sweep shape mismatch")
	}
	if x0 < 0 || y0 < 0 || x1 > nx || y1 > ny || x0 > x1 || y0 > y1 || z < 0 || z >= nz {
		panic("stencil: SweepRows rectangle out of range")
	}
	if x0 == x1 {
		return
	}
	pl := op.plan(nx, ny, nz)
	f := &pl.fold
	srcD, dstD := src.Data(), dst.Data()
	var cD []T
	if op.C != nil {
		cD = op.C.Data()
	}
	// Per-row scratch: each distinct (dy, dz) offset's source row.
	var rowBuf [stackPoints][]T
	rows := rowBuf[:]
	if k := f.nrows; k > stackPoints {
		rows = make([][]T, k)
	} else {
		rows = rows[:k]
	}
	for y := y0; y < y1; y++ {
		f.sources(rows, srcD, y, z)
		base := (z*ny + y) * nx
		var cRow []T
		if cD != nil {
			cRow = cD[base : base+nx]
		}
		// Cells [x0, x1) of one destination row from its source rows
		// (kernels3d.go), and their fused checksum, summed in x order.
		d := dstD[base : base+nx]
		var acc T
		switch pl.kern {
		case kernStar7:
			acc = star7Row(d, cRow, rows, &pl.kw, f, x0, x1)
		case kernStar5:
			acc = star5Slices(d, cRow, rows, &pl.kw, f, x0, x1)
		case kernBox9:
			acc = box9Slices(d, cRow, rows, &pl.kw, f, x0, x1)
		default:
			acc = genericSlices(d, cRow, rows, f, x0, x1)
		}
		if b != nil {
			b[y] = acc
		}
	}
}
