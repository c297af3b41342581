package core

import (
	"slices"

	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Online3D applies the online scheme per z-layer of a 3-D domain (paper
// Section 5.1: "each layer uses its own independent checksums and the
// proposed ABFT method is applied independently within each layer"). The
// interpolation couples neighbouring layers' checksum vectors exactly as
// the layer sums do, so detection remains exact for 3-D stencils.
type Online3D[T num.Float] struct {
	op  *stencil.Op3D[T]
	buf *grid.Buffer3D[T]
	// h ghost layers sit at each z end of buf (0 for a whole domain, see
	// NewOnline3DSlab); layers [h, nz-h) are owned: swept and verified.
	h int
	// g = RadiusZ - h is how many halo layers each side the interpolator's
	// stacks hold beyond buf's: for a whole domain, the projection of the
	// boundary condition along z; none for a slab, whose ghost layers are
	// its own. Buffer layer l is stack entry l+g; ip.LayerOf(v, h) maps back.
	g    int
	ip   *checksum.Interp3D[T]
	det  checksum.Detector[T]
	pool *stencil.Pool
	pol  checksum.PairPolicy
	inj  stencil.InjectSource[T]

	// prevB and newB are the per-layer column checksums of iterations t and
	// t+1 as the interpolator reads them: stacks of vectors extended by
	// RadiusY entries each side. prevOwn and newOwn view their own entries
	// by buffer layer — where the sweep fuses.
	prevB, newB     [][]T
	prevOwn, newOwn [][]T
	interpB         [][]T // interpolated per-layer column checksums

	// Scratch of the repair path: newA, which doubles as the saved row of
	// the re-evaluation, is allocated on the first detection, the row
	// checksum stack and interpolated vectors the first time the
	// Equation-(10) path runs.
	prevA, interpA [][]T
	newA           []T

	flagged []bool // per-layer mismatch scratch, reused every step
	// detectFn is detectLayers bound once, so handing it to the pool does
	// not allocate a closure every step.
	detectFn func(lo, hi int)

	// edges are per-stack-entry live views of the current t-buffer's layers
	// (Interp3D.EdgeStack); edgesAlt views the other half. Boxing a layer
	// view into the EdgeSource interface allocates, so both sets are built
	// once and swapped alongside the buffer.
	edges, edgesAlt []checksum.EdgeSource[T]

	corr  checksum.Corrector[T]
	iter  int
	stats Stats
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// NewOnline3D builds an online protector for op, starting from init
// (copied).
func NewOnline3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (*Online3D[T], error) {
	return newOnline3D(op, op, init, 0, init.Nz(), 0, opt)
}

// NewOnline3DSlab builds the protector of layers [z0, z1) of a domain
// decomposed along z — internal/dist's slab rank. Its buffer, which Grid3D
// returns whole, carries RadiusZ ghost layers at each z end; the owner
// refills them before every step, and their checksums are plain sums of
// what it put there, so no checksum is ever communicated. The interpolator
// is built on the slab's shape and layers of the constant field, the sweep
// operator on the extended one.
func NewOnline3DSlab[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], z0, z1 int, opt Options[T]) (*Online3D[T], error) {
	nx, ny, n, h := init.Nx(), init.Ny(), z1-z0, op.St.RadiusZ()
	iop := &stencil.Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
	sop := &stencil.Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
	if op.C != nil {
		iop.C, sop.C = grid.New3D[T](nx, ny, n), grid.New3D[T](nx, ny, n+2*h)
		for z := 0; z < n; z++ {
			iop.C.Layer(z).CopyFrom(op.C.Layer(z0 + z))
			sop.C.Layer(h + z).CopyFrom(op.C.Layer(z0 + z))
		}
	}
	return newOnline3D(sop, iop, init, z0, z1, h, opt)
}

// newOnline3D protects layers [z0, z1) of init, copied between h ghost
// layers, sweeping with sop and interpolating with iop (one operator when
// the slab is the whole domain).
func newOnline3D[T num.Float](sop, iop *stencil.Op3D[T], init *grid.Grid3D[T], z0, z1, h int, opt Options[T]) (*Online3D[T], error) {
	opt = opt.withDefaults()
	nx, ny, nz := init.Nx(), init.Ny(), z1-z0+2*h
	ip, err := checksum.NewInterp3D(iop, nx, ny, z1-z0)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	buf := grid.NewBuffer3D[T](nx, ny, nz)
	copy(buf.Read.Data()[h*nx*ny:], init.Data()[z0*nx*ny:z1*nx*ny])
	p := &Online3D[T]{
		op:      sop,
		buf:     buf,
		h:       h,
		g:       sop.St.RadiusZ() - h,
		ip:      ip,
		det:     opt.Detector,
		pool:    opt.Pool,
		pol:     opt.PairPolicy,
		inj:     opt.Inject,
		prevB:   ip.NewStack(checksum.VecB, h),
		newB:    ip.NewStack(checksum.VecB, h),
		interpB: makeLayers[T](nz, ny),
		flagged: make([]bool, nz),
		corr:    checksum.Corrector[T]{PaperExact: opt.PaperExactCorrection},
		tel:     opt.Telemetry,
	}
	p.detectFn = p.detectLayers
	p.prevOwn, p.newOwn = p.own(p.prevB), p.own(p.newB)
	views := func(g *grid.Grid3D[T]) []checksum.EdgeSource[T] {
		e := make([]checksum.EdgeSource[T], nz)
		for z := range e {
			e[z] = checksum.LiveEdges(g.Layer(z), sop.BC, sop.BCValue)
		}
		return ip.EdgeStack(nil, e)
	}
	p.edges, p.edgesAlt = views(buf.Read), views(buf.Write)
	for z := 0; z < nz; z++ {
		// The initial data and checksums are assumed correct (Theorem 2).
		stencil.ChecksumB(buf.Read.Layer(z), p.prevOwn[z])
	}
	return p, nil
}

// own views the own entries of a B stack by buffer layer.
func (p *Online3D[T]) own(stack [][]T) [][]T {
	ny, ry := p.buf.Read.Ny(), p.op.St.RadiusY()
	out := make([][]T, p.buf.Read.Nz())
	for z := range out {
		out[z] = stack[z+p.g][ry : ry+ny]
	}
	return out
}

func makeLayers[T num.Float](nz, n int) [][]T {
	out := make([][]T, nz)
	for z := range out {
		out[z] = make([]T, n)
	}
	return out
}

// Grid3D returns the current domain state (a slab's with its ghost layers).
func (p *Online3D[T]) Grid3D() *grid.Grid3D[T] { return p.buf.Read }

// Grid returns nil: Online3D protects a 3-D domain; use Grid3D.
func (p *Online3D[T]) Grid() *grid.Grid[T] { return nil }

// Iter returns the number of completed sweeps.
func (p *Online3D[T]) Iter() int { return p.iter }

// SetIter rebases the sweep counter — the rollback half of RestoreState.
func (p *Online3D[T]) SetIter(n int) { p.iter = n }

// Stats returns the accumulated counters.
func (p *Online3D[T]) Stats() Stats { return p.stats }

// Finalize is a no-op: the online scheme verifies every sweep.
func (p *Online3D[T]) Finalize() {}

// StateLen is the length of a PackState snapshot: the owned layers' cells.
func (p *Online3D[T]) StateLen() int { return len(p.owned()) }

// PackState copies the owned layers into dst (len >= StateLen()); ghost
// layers are refilled by the owner and checksums re-derived on restore, so
// a run resumed from RestoreState + SetIter reproduces the uninterrupted
// one's grids bit for bit. Call it between steps.
func (p *Online3D[T]) PackState(dst []T) { copy(dst, p.owned()) }

// RestoreState is PackState's inverse. As at construction, the restored
// data and the checksums computed from it are assumed correct (Theorem 2).
func (p *Online3D[T]) RestoreState(src []T) {
	copy(p.owned(), src)
	for z := p.h; z < len(p.prevOwn)-p.h; z++ {
		stencil.ChecksumB(p.buf.Read.Layer(z), p.prevOwn[z])
	}
}

// owned returns the cells of layers [h, nz-h) of the current state.
func (p *Online3D[T]) owned() []T {
	g := p.buf.Read
	plane := g.Nx() * g.Ny()
	return g.Data()[p.h*plane : (g.Nz()-p.h)*plane]
}

// Step advances one sweep applying the configured injection source; see
// StepInject for the mechanics.
func (p *Online3D[T]) Step() { p.StepInject(stencil.SitesAt(p.inj, p.iter)) }

// StepInject advances one sweep: for a slab the ghost layers' checksums
// first, then fused per-layer checksums, the previous checksums' in-layer
// halos, per-layer interpolation and comparison, correction in the rare
// mismatch case. All
// per-layer phases are partitioned over the pool; the correction slow path
// runs inside the layer that flagged, with no cross-layer writes.
func (p *Online3D[T]) StepInject(sites []stencil.Site[T]) {
	src, dst := p.buf.Read, p.buf.Write
	h, nz := p.h, src.Nz()

	p.tel.SetIter(p.iter)
	if h > 0 {
		t0 := p.tel.Begin()
		for j := 0; j < h; j++ {
			stencil.ChecksumB(src.Layer(j), p.prevOwn[j])
			stencil.ChecksumB(src.Layer(nz-h+j), p.prevOwn[nz-h+j])
		}
		p.tel.End(telemetry.PhaseVerify, t0)
	}
	t0 := p.tel.Begin()
	p.op.SweepLayersInject(p.pool, dst, src, h, nz-h, p.newOwn, sites)
	p.tel.End(telemetry.PhaseSweep, t0)

	// Interpolate and detect per layer. Mismatching layers are collected
	// and repaired after the parallel phase: a repair mutates the write
	// buffer and checksums of the flagged layer only, but the row-checksum
	// interpolation of the Equation-(10) path reads neighbouring layers, so
	// doing it outside the barrier keeps the memory model trivially
	// racefree.
	t0 = p.tel.Begin()
	for z := range nz {
		p.ip.FillHalo(checksum.VecB, p.prevB[z+p.g])
	}
	clear(p.flagged)
	p.pool.ForEachChunk(nz-2*h, p.detectFn)
	p.stats.Verifications++
	p.tel.End(telemetry.PhaseVerify, t0)
	if slices.Contains(p.flagged, true) {
		p.stats.Detections++
		t0 = p.tel.Begin()
		p.repair(src, dst)
		p.tel.End(telemetry.PhaseRepair, t0)
	}

	p.prevB, p.newB = p.newB, p.prevB
	p.prevOwn, p.newOwn = p.newOwn, p.prevOwn
	p.buf.Swap()
	p.edges, p.edgesAlt = p.edgesAlt, p.edges
	p.iter++
	p.stats.Iterations++
}

// detectLayers interpolates and compares owned layers [lo, hi) — layers
// [h+lo, h+hi) of the buffer — flagging the mismatching ones; layers are
// independent, so chunks run concurrently.
func (p *Online3D[T]) detectLayers(lo, hi int) {
	for z := lo; z < hi; z++ {
		e := p.h + z
		p.ip.Interpolate(checksum.VecB, z, p.prevB, p.edges, p.interpB[e])
		if p.det.AnyMismatch(p.newOwn[e], p.interpB[e]) {
			p.flagged[e] = true
		}
	}
}

// Run advances count iterations, applying the configured injection source.
func (p *Online3D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// repair is the detection slow path, per flagged layer what Chunk.Repair is
// for a rectangle: re-evaluate the flagged rows (checksum.RepairRows), and take
// the layers that cannot serve — all of them under PaperExactCorrection —
// through the two-vector Equation-(10) path.
func (p *Online3D[T]) repair(src, dst *grid.Grid3D[T]) {
	nx, nz, h := src.Nx(), src.Nz(), p.h
	if p.newA == nil {
		p.newA = make([]T, nx)
	}
	pending := false
	for z := h; z < nz-h; z++ {
		if !p.flagged[z] {
			continue
		}
		if !p.corr.PaperExact {
			b := p.newOwn[z]
			cells, ok := checksum.RepairRows(p.det, b, p.interpB[z], p.newA, dst.Layer(z).Row, func(y int) T {
				p.op.SweepRows(dst, src, z, y, y+1, b)
				return b[y]
			})
			if ok {
				p.stats.Repaired(cells)
				p.flagged[z] = false
				continue
			}
			p.stats.CorrectedPoints += cells
		}
		pending = true
	}
	if !pending {
		return
	}
	// The row-checksum interpolation of layer z reads the prevA stack at the
	// layers its stencil reaches, z-rz..z+rz: ghost layers included and, for
	// a whole domain, the layers its halo entries hold.
	rx, rz := p.op.St.RadiusX(), p.op.St.RadiusZ()
	if p.prevA == nil {
		p.prevA, p.interpA = p.ip.NewStack(checksum.VecA, h), makeLayers[T](nz, nx)
	}
	have := make([]bool, nz)
	for z := h; z < nz-h; z++ {
		if !p.flagged[z] {
			continue
		}
		for v := z + p.g - rz; v <= z+p.g+rz; v++ {
			if l := p.ip.LayerOf(v, h); l >= 0 && !have[l] {
				stencil.ChecksumA(src.Layer(l), p.prevA[l+p.g][rx:rx+nx])
				p.ip.FillHalo(checksum.VecA, p.prevA[l+p.g])
				have[l] = true
			}
		}
		p.correctLayer(z, dst) // mutates dst only; prevA sums src
	}
}

// correctLayer locates and repairs the corrupted points of one flagged
// layer using the 2-D correction algebra on that layer's checksum pairs.
func (p *Online3D[T]) correctLayer(z int, dst *grid.Grid3D[T]) {
	layer := dst.Layer(z)
	p.ip.Interpolate(checksum.VecA, z-p.h, p.prevA, p.edges, p.interpA[z])
	stencil.ChecksumA(layer, p.newA)

	// No located point means the corruption sat in a checksum.
	p.stats.Repaired(p.corr.RepairRect(p.det, p.pol, layer, 0, 0, layer.Nx(), layer.Ny(), p.newA, p.newOwn[z], p.interpA[z], p.interpB[z]))
}
