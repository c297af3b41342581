package core

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Online3D applies the online scheme per z-layer of a 3-D domain (paper
// Section 5.1: "each layer uses its own independent checksums and the
// proposed ABFT method is applied independently within each layer"): the
// Op3D sweep plus one Chunk that is the whole domain. The interpolation
// couples neighbouring layers' checksum vectors exactly as the layer sums
// do, so detection remains exact for 3-D stencils; the chunk partitions its
// layers' verification over the pool.
type Online3D[T num.Float] struct {
	buf   *grid.Buffer3D[T]
	ch    *Chunk[T]
	pool  *stencil.Pool
	inj   stencil.InjectSource[T]
	iter  int
	stats Stats
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// NewOnline3D builds an online protector for op, starting from init
// (copied).
func NewOnline3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (*Online3D[T], error) {
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	if err := op.Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	p := &Online3D[T]{buf: grid.Buffer3DFrom(init), pool: opt.Pool, inj: opt.Inject, tel: opt.Telemetry}
	var err error
	if p.ch, err = NewChunk(op, p.buf, 0, 0, 0, nx, ny, nz, op.St.RadiusY(), opt); err != nil {
		return nil, err
	}
	return p, nil
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

// Step advances one sweep applying the configured injection source: the
// chunk's sweep, verification and, in the rare mismatch case, repair.
func (p *Online3D[T]) Step() {
	p.tel.SetIter(p.iter)
	p.ch.Step(p.pool, stencil.SitesAt(p.inj, p.iter), &p.stats, p.tel)
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// Run advances count iterations, applying the configured injection source.
func (p *Online3D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}
