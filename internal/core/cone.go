package core

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// RecoveryMode selects how the offline protector repairs a detected
// corruption.
type RecoveryMode int

const (
	// FullRollback restores the whole domain from the last checkpoint
	// and re-executes every iteration since — the paper's standard
	// checkpoint-and-recovery coupling (Section 4.2).
	FullRollback RecoveryMode = iota
	// ConeRecovery exploits stencil locality (the approach of Fang,
	// Cavelan, Robert & Chien cited by the paper as a cost reducer):
	// only the error's backward light cone is recomputed from the
	// checkpoint. The region to recompute at step s shrinks by the
	// stencil radius per step, on every axis, so the work is O(Δ·(rΔ)²)
	// a layer instead of O(Δ·nx·ny). When the cone cannot be bounded
	// (corruption reaching the edge strips the interpolation chain depends
	// on, a periodic window reaching one z end but not the other, or
	// checksum corruption with no located column), the protector falls back
	// to a full rollback, so ConeRecovery is always at least as safe.
	ConeRecovery
)

// box is a half-open region [x0,x1) x [y0,y1) x [z0,z1) in domain
// coordinates; a 2-D domain's boxes are the one layer [0, 1).
type box struct {
	x0, y0, z0, x1, y1, z1 int
}

func (b box) width() int  { return b.x1 - b.x0 }
func (b box) height() int { return b.y1 - b.y0 }
func (b box) volume() int { return b.width() * b.height() * (b.z1 - b.z0) }
func (b box) contains(x, y, z int) bool {
	return x >= b.x0 && x < b.x1 && y >= b.y0 && y < b.y1 && z >= b.z0 && z < b.z1
}

// expand grows the region by d on every side, clamped to the domain.
func (b box) expand(d, nx, ny, nz int) box {
	return box{
		x0: max(0, b.x0-d), y0: max(0, b.y0-d), z0: max(0, b.z0-d),
		x1: min(nx, b.x1+d), y1: min(ny, b.y1+d), z1: min(nz, b.z1+d),
	}
}

// coneRegions returns the region to recompute at each step: regions[s] is
// written at recompute step s (state time t0+s+1) and must equal the final
// target F expanded by (steps-1-s)·radius, so that every read of step s+1
// falls inside regions[s].
func coneRegions(final box, steps, radius, nx, ny, nz int) []box {
	regions := make([]box, steps)
	for s := 0; s < steps; s++ {
		regions[s] = final.expand((steps-1-s)*radius, nx, ny, nz)
	}
	return regions
}

// coneWindow is a region-local double buffer addressed in global domain
// coordinates. Reads outside the window resolve the boundary condition of
// the underlying domain; by the shrinking-region construction they only
// occur for out-of-domain ghosts.
type coneWindow[T num.Float] struct {
	b          box
	bc         grid.Boundary
	bcValue    T
	nx, ny, nz int // domain dimensions
	cur, nxt   []T // region-local storage, x fastest, then y, then z, over b
}

func newConeWindow[T num.Float](b box, bc grid.Boundary, bcValue T, nx, ny, nz int) *coneWindow[T] {
	return &coneWindow[T]{
		b: b, bc: bc, bcValue: bcValue, nx: nx, ny: ny, nz: nz,
		cur: make([]T, b.volume()),
		nxt: make([]T, b.volume()),
	}
}

// index returns the window-local index of global (x, y, z).
func (w *coneWindow[T]) index(x, y, z int) int {
	return (x - w.b.x0) + ((y-w.b.y0)+(z-w.b.z0)*w.b.height())*w.b.width()
}

// load fills the window's current state from g (global coordinates).
func (w *coneWindow[T]) load(g *grid.Grid3D[T]) {
	for z := w.b.z0; z < w.b.z1; z++ {
		for y := w.b.y0; y < w.b.y1; y++ {
			i := w.index(w.b.x0, y, z)
			copy(w.cur[i:i+w.b.width()], g.Layer(z).Row(y)[w.b.x0:w.b.x1])
		}
	}
}

// at reads the current state at global (x, y, z), resolving domain ghosts
// by the boundary condition. It panics if an in-domain point outside the
// window is requested — that would break the shrinking-region invariant.
func (w *coneWindow[T]) at(x, y, z int) T {
	rx, okx := w.bc.ResolveIndex(x, w.nx)
	ry, oky := w.bc.ResolveIndex(y, w.ny)
	rz, okz := w.bc.ResolveIndex(z, w.nz)
	if !okx || !oky || !okz {
		if w.bc == grid.Constant {
			return w.bcValue
		}
		return 0
	}
	if !w.b.contains(rx, ry, rz) {
		panic("core: cone recompute read outside its window")
	}
	return w.cur[w.index(rx, ry, rz)]
}

// sweepRegion computes one stencil step for every cell of region into the
// window's next buffer and swaps. region must satisfy region ⊕ radius ⊆
// current window box (up to domain clamping).
func (w *coneWindow[T]) sweepRegion(op *stencil.Op3D[T], region box) {
	for z := region.z0; z < region.z1; z++ {
		for y := region.y0; y < region.y1; y++ {
			for x := region.x0; x < region.x1; x++ {
				var v T
				if op.C != nil {
					v = op.C.At(x, y, z)
				}
				for _, p := range op.St.Points {
					v += p.W * w.at(x+p.DX, y+p.DY, z+p.DZ)
				}
				w.nxt[w.index(x, y, z)] = v
			}
		}
	}
	// Cells outside `region` are not copied forward: the next step's
	// region is smaller and never reads them.
	w.cur, w.nxt = w.nxt, w.cur
}

// store writes the window's current values of region into g.
func (w *coneWindow[T]) store(g *grid.Grid3D[T], region box) {
	for z := region.z0; z < region.z1; z++ {
		for y := region.y0; y < region.y1; y++ {
			i := w.index(region.x0, y, z)
			copy(g.Layer(z).Row(y)[region.x0:region.x1], w.cur[i:i+region.width()])
		}
	}
}
