package core

import (
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
	op   *stencil.Op3D[T]
	buf  *grid.Buffer3D[T]
	ip   *checksum.Interp3D[T]
	det  checksum.Detector[T]
	pool *stencil.Pool
	pol  checksum.PairPolicy
	inj  stencil.InjectSource[T]

	prevB   [][]T // verified per-layer column checksums of iteration t
	newB    [][]T // fused per-layer column checksums of iteration t+1
	interpB [][]T // interpolated per-layer column checksums

	// Row-checksum scratch of the repair path, allocated on first detection.
	prevA, interpA [][]T
	newA           []T

	flagged []bool // per-layer mismatch scratch, reused every step
	// detectFn is detectLayers bound once, so handing it to the pool does
	// not allocate a closure every step.
	detectFn func(lo, hi int)

	// edges are per-layer live views of the current t-buffer (edges[z]
	// views buf.Read.Layer(z)); edgesAlt views the other half. Boxing a
	// layer view into the EdgeSource interface allocates, so both sets are
	// built once and swapped alongside the buffer.
	edges, edgesAlt []checksum.EdgeSource[T]

	corr  checksum.Corrector[T]
	iter  int
	stats Stats
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// NewOnline3D builds an online protector for op, starting from init
// (copied).
func NewOnline3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (*Online3D[T], error) {
	opt = opt.withDefaults()
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	ip, err := checksum.NewInterp3D(op, nx, ny, nz)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	p := &Online3D[T]{
		op:       op,
		buf:      grid.Buffer3DFrom(init),
		ip:       ip,
		det:      opt.Detector,
		pool:     opt.Pool,
		pol:      opt.PairPolicy,
		inj:      opt.Inject,
		prevB:    makeLayers[T](nz, ny),
		newB:     makeLayers[T](nz, ny),
		interpB:  makeLayers[T](nz, ny),
		flagged:  make([]bool, nz),
		edges:    make([]checksum.EdgeSource[T], nz),
		edgesAlt: make([]checksum.EdgeSource[T], nz),
		corr:     checksum.Corrector[T]{PaperExact: opt.PaperExactCorrection},
		tel:      opt.Telemetry,
	}
	p.detectFn = p.detectLayers
	for z := 0; z < nz; z++ {
		p.edges[z] = checksum.LiveEdges(p.buf.Read.Layer(z), op.BC, op.BCValue)
		p.edgesAlt[z] = checksum.LiveEdges(p.buf.Write.Layer(z), op.BC, op.BCValue)
		stencil.ChecksumB(p.buf.Read.Layer(z), p.prevB[z])
	}
	return p, nil
}

func makeLayers[T num.Float](nz, n int) [][]T {
	out := make([][]T, nz)
	for z := range out {
		out[z] = make([]T, n)
	}
	return out
}

// Grid3D returns the current domain state.
func (p *Online3D[T]) Grid3D() *grid.Grid3D[T] { return p.buf.Read }

// Grid returns nil: Online3D protects a 3-D domain; use Grid3D.
func (p *Online3D[T]) Grid() *grid.Grid[T] { return nil }

// Iter returns the number of completed sweeps.
func (p *Online3D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters.
func (p *Online3D[T]) Stats() Stats { return p.stats }

// Finalize is a no-op: the online scheme verifies every sweep.
func (p *Online3D[T]) Finalize() {}

// Step advances one sweep applying the configured injection source; see
// StepInject for the mechanics.
func (p *Online3D[T]) Step() { p.StepInject(stencil.HookAt(p.inj, p.iter)) }

// StepInject advances one sweep: fused per-layer checksums, per-layer
// interpolation and comparison, correction in the rare mismatch case. All
// per-layer phases are partitioned over the pool; the correction slow path
// runs inside the layer that flagged, with no cross-layer writes.
func (p *Online3D[T]) StepInject(hook stencil.InjectFunc[T]) {
	src, dst := p.buf.Read, p.buf.Write
	nz := src.Nz()

	p.tel.SetIter(p.iter)
	t0 := p.tel.Begin()
	p.op.SweepParallelHook(p.pool, dst, src, p.newB, hook)
	p.tel.End(telemetry.PhaseSweep, t0)

	// Interpolate and detect per layer. Mismatching layers are collected
	// and corrected after the parallel phase: corrections mutate the
	// write buffer and checksums of the flagged layer only, but the
	// row-checksum interpolation reads neighbouring layers, so doing it
	// outside the barrier keeps the memory model trivially racefree.
	t0 = p.tel.Begin()
	flagged := p.flagged
	for z := range flagged {
		flagged[z] = false
	}
	p.pool.ForEachChunk(nz, p.detectFn)
	p.stats.Verifications++

	anyFlagged := false
	for z := 0; z < nz; z++ {
		if flagged[z] {
			anyFlagged = true
			break
		}
	}
	p.tel.End(telemetry.PhaseVerify, t0)
	if anyFlagged {
		p.stats.Detections++
		t0 = p.tel.Begin()
		// The row-checksum interpolation of layer z needs prevA of
		// layers z+dz; compute prevA for every layer once (the slow
		// path is rare and O(nx*ny*nz) total, the cost of one sweep).
		if p.prevA == nil {
			nx := src.Nx()
			p.prevA, p.interpA, p.newA = makeLayers[T](nz, nx), makeLayers[T](nz, nx), make([]T, nx)
		}
		for z := 0; z < nz; z++ {
			stencil.ChecksumA(src.Layer(z), p.prevA[z])
		}
		for z := 0; z < nz; z++ {
			if flagged[z] {
				p.correctLayer(z, dst)
			}
		}
		p.tel.End(telemetry.PhaseRepair, t0)
	}

	p.prevB, p.newB = p.newB, p.prevB
	p.buf.Swap()
	p.edges, p.edgesAlt = p.edgesAlt, p.edges
	p.iter++
	p.stats.Iterations++
}

// detectLayers interpolates and compares layers [lo, hi), flagging the
// mismatching ones; layers are independent, so chunks run concurrently.
func (p *Online3D[T]) detectLayers(lo, hi int) {
	for z := lo; z < hi; z++ {
		p.ip.InterpolateB(z, p.prevB, p.edges, p.interpB[z])
		if p.det.AnyMismatch(p.newB[z], p.interpB[z]) {
			p.flagged[z] = true
		}
	}
}

// Run advances count iterations, applying the configured injection source.
func (p *Online3D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// correctLayer locates and repairs the corrupted points of one flagged
// layer using the 2-D correction algebra on that layer's checksum pairs.
func (p *Online3D[T]) correctLayer(z int, dst *grid.Grid3D[T]) {
	layer := dst.Layer(z)
	p.ip.InterpolateA(z, p.prevA, p.edges, p.interpA[z])
	stencil.ChecksumA(layer, p.newA)

	bm := p.det.Compare(p.newB[z], p.interpB[z])
	am := p.det.Compare(p.newA, p.interpA[z])
	if len(am) == 0 || len(bm) == 0 {
		p.stats.ChecksumRepairs++
		stencil.ChecksumB(layer, p.newB[z])
		return
	}
	direct := &checksum.Vectors[T]{A: p.newA, B: p.newB[z]}
	locs := p.corr.CorrectAll(layer, am, bm, p.pol, direct, p.interpA[z], p.interpB[z])
	p.stats.CorrectedPoints += len(locs)
}
