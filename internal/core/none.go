package core

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// None2D runs a 2-D stencil with no protection at all — the paper's
// "No-ABFT" baseline. It still uses the same sweep engine, so timing
// differences against the protected runs isolate the ABFT overhead.
type None2D[T num.Float] struct {
	op    *stencil.Op2D[T]
	buf   *grid.Buffer[T]
	pool  *stencil.Pool
	inj   stencil.InjectSource[T]
	iter  int
	stats Stats
}

// NewNone2D builds an unprotected runner starting from init (copied).
func NewNone2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], opt Options[T]) (*None2D[T], error) {
	if err := op.Validate(init.Nx(), init.Ny()); err != nil {
		return nil, err
	}
	return &None2D[T]{op: op, buf: grid.BufferFrom(init), pool: opt.Pool, inj: opt.Inject}, nil
}

// Grid returns the current domain state.
func (p *None2D[T]) Grid() *grid.Grid[T] { return p.buf.Read }

// Iter returns the number of completed sweeps.
func (p *None2D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters (only Iterations is populated).
func (p *None2D[T]) Stats() Stats { return p.stats }

// Grid3D returns nil: None2D protects a 2-D domain.
func (p *None2D[T]) Grid3D() *grid.Grid3D[T] { return nil }

// Finalize is a no-op: the unprotected runner has no end-of-run obligations.
func (p *None2D[T]) Finalize() {}

// Step advances one sweep with no checksum work, applying the configured
// injection source.
func (p *None2D[T]) Step() {
	p.op.SweepParallelInject(p.pool, p.buf.Write, p.buf.Read, nil, stencil.SitesAt(p.inj, p.iter))
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// Run advances count iterations, applying the configured injection source.
func (p *None2D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// None3D is the unprotected 3-D baseline.
type None3D[T num.Float] struct {
	op    *stencil.Op3D[T]
	buf   *grid.Buffer3D[T]
	pool  *stencil.Pool
	inj   stencil.InjectSource[T]
	iter  int
	stats Stats
}

// NewNone3D builds an unprotected 3-D runner starting from init (copied).
func NewNone3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (*None3D[T], error) {
	if err := op.Validate(init.Nx(), init.Ny(), init.Nz()); err != nil {
		return nil, err
	}
	return &None3D[T]{op: op, buf: grid.Buffer3DFrom(init), pool: opt.Pool, inj: opt.Inject}, nil
}

// Grid3D returns the current domain state.
func (p *None3D[T]) Grid3D() *grid.Grid3D[T] { return p.buf.Read }

// Grid returns nil: None3D protects a 3-D domain; use Grid3D.
func (p *None3D[T]) Grid() *grid.Grid[T] { return nil }

// Iter returns the number of completed sweeps.
func (p *None3D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters (only Iterations is populated).
func (p *None3D[T]) Stats() Stats { return p.stats }

// Finalize is a no-op: the unprotected runner has no end-of-run obligations.
func (p *None3D[T]) Finalize() {}

// Step advances one sweep with no checksum work, applying the configured
// injection source.
func (p *None3D[T]) Step() {
	src := p.buf.Read
	p.op.SweepLayersInject(p.pool, p.buf.Write, src, 0, 0, 0, src.Nx(), src.Ny(), src.Nz(), nil, stencil.SitesAt(p.inj, p.iter))
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// Run advances count iterations, applying the configured injection source.
func (p *None3D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}
