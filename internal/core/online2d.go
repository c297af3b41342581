package core

import (
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Online2D protects a 2-D stencil run with the paper's online ABFT scheme
// (Section 3). Per iteration it pays one fused checksum accumulation and
// one O(ny·k·(1+r)) interpolation; a detection re-evaluates the flagged
// rows, and the O(nx·ny) row-checksum passes of the Equation-(10) repair
// run only when that cannot serve.
type Online2D[T num.Float] struct {
	op   *stencil.Op2D[T]
	buf  *grid.Buffer[T]
	ip   *checksum.Interp2D[T]
	det  checksum.Detector[T]
	pool *stencil.Pool
	pol  checksum.PairPolicy
	inj  stencil.InjectSource[T]

	prevB   []T // verified column checksums of iteration t
	newB    []T // fused column checksums of iteration t+1
	interpB []T // interpolated column checksums of iteration t+1

	// edgeRead/edgeWrite are the live-edge views of the two buffer halves,
	// boxed once at construction (boxing a BoundedGrid into the EdgeSource
	// interface allocates) and swapped alongside the buffer so the hot
	// path stays allocation-free. edgeRead always views buf.Read.
	edgeRead, edgeWrite checksum.EdgeSource[T]

	// scratch for the detection/correction slow path; newA doubles as the
	// saved row of the re-evaluation
	prevA, newA, interpA []T

	corr  checksum.Corrector[T]
	iter  int
	stats Stats
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// NewOnline2D builds an online protector for op, starting from the initial
// domain state init (copied; the caller's grid is not retained). The
// initial data and checksums are assumed correct, per Theorem 2.
func NewOnline2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], opt Options[T]) (*Online2D[T], error) {
	opt = opt.withDefaults()
	nx, ny := init.Nx(), init.Ny()
	ip, err := checksum.NewInterp2D(op, nx, ny)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	p := &Online2D[T]{
		op:      op,
		buf:     grid.BufferFrom(init),
		ip:      ip,
		det:     opt.Detector,
		pool:    opt.Pool,
		pol:     opt.PairPolicy,
		inj:     opt.Inject,
		prevB:   make([]T, ny),
		newB:    make([]T, ny),
		interpB: make([]T, ny),
		prevA:   make([]T, nx),
		newA:    make([]T, nx),
		interpA: make([]T, nx),
		corr:    checksum.Corrector[T]{PaperExact: opt.PaperExactCorrection},
		tel:     opt.Telemetry,
	}
	p.edgeRead = checksum.LiveEdges(p.buf.Read, op.BC, op.BCValue)
	p.edgeWrite = checksum.LiveEdges(p.buf.Write, op.BC, op.BCValue)
	stencil.ChecksumB(p.buf.Read, p.prevB)
	return p, nil
}

// Grid returns the current domain state (iteration Iter()).
func (p *Online2D[T]) Grid() *grid.Grid[T] { return p.buf.Read }

// Iter returns the number of completed sweeps.
func (p *Online2D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters.
func (p *Online2D[T]) Stats() Stats { return p.stats }

// Grid3D returns nil: Online2D protects a 2-D domain.
func (p *Online2D[T]) Grid3D() *grid.Grid3D[T] { return nil }

// Finalize is a no-op: the online scheme verifies every sweep, so nothing
// is ever pending at the end of a run.
func (p *Online2D[T]) Finalize() {}

// Step advances the domain by one sweep, verifying and (when needed)
// correcting afterwards, applying the configured injection source.
func (p *Online2D[T]) Step() { p.StepInject(stencil.SitesAt(p.inj, p.iter)) }

// StepInject is Step with explicit per-call injection sites, applied by the
// sweep.
func (p *Online2D[T]) StepInject(sites []stencil.Site[T]) {
	src, dst := p.buf.Read, p.buf.Write
	p.tel.SetIter(p.iter)
	t0 := p.tel.Begin()
	if p.pool != nil {
		p.op.SweepParallelInject(p.pool, dst, src, p.newB, sites)
	} else {
		p.op.SweepRange(dst, src, 0, src.Ny(), p.newB, sites)
	}
	p.tel.End(telemetry.PhaseSweep, t0)

	t0 = p.tel.Begin()
	edges := p.edgeRead
	p.ip.InterpolateB(p.prevB, edges, p.interpB)
	p.stats.Verifications++

	mismatch := p.det.AnyMismatch(p.newB, p.interpB)
	p.tel.End(telemetry.PhaseVerify, t0)
	if mismatch {
		p.stats.Detections++
		t0 = p.tel.Begin()
		p.locateAndCorrect(src, dst, edges)
		p.tel.End(telemetry.PhaseRepair, t0)
	}

	p.prevB, p.newB = p.newB, p.prevB
	p.buf.Swap()
	p.edgeRead, p.edgeWrite = p.edgeWrite, p.edgeRead
	p.iter++
	p.stats.Iterations++
}

// Run advances count iterations, applying the configured injection source.
func (p *Online2D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// locateAndCorrect is the detection slow path. The B mismatch names the
// rows and the t-buffer still holds iteration t, so the flagged rows are
// re-evaluated (checksum.RepairRows). What that cannot serve — and all of
// it under PaperExactCorrection — takes the paper's two-vector path:
// compute the row-checksum pair lazily (the previous one is recomputable
// from the t-buffer on demand — the property that lets the fast path
// maintain only one vector), intersect the mismatch lists and apply
// Equation (10).
func (p *Online2D[T]) locateAndCorrect(src, dst *grid.Grid[T], edges checksum.EdgeSource[T]) {
	if !p.corr.PaperExact {
		cells, ok := checksum.RepairRows(p.det, p.newB, p.interpB, p.newA, dst.Row, func(y int) T {
			p.op.SweepRange(dst, src, y, y+1, p.newB, nil)
			return p.newB[y]
		})
		if ok {
			p.stats.Repaired(cells)
			return
		}
		p.stats.CorrectedPoints += cells
	}
	stencil.ChecksumA(src, p.prevA)
	p.ip.InterpolateA(p.prevA, edges, p.interpA)
	stencil.ChecksumA(dst, p.newA)

	// No located point means the corruption sat in a checksum.
	p.stats.Repaired(p.corr.Repair(p.det, p.pol, dst, &checksum.Vectors[T]{A: p.newA, B: p.newB}, p.interpA, p.interpB))
}
