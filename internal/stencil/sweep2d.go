package stencil

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// InjectFunc mutates a freshly computed point value before it is stored into
// the destination grid — exactly the paper's fault-injection site ("after
// the stencil point ... has been updated and before it is stored"). The
// fused checksum accumulates the returned (possibly corrupted) value, so the
// direct checksum stays consistent with the corrupted domain while the
// interpolated checksum reflects the clean computation; their mismatch is
// what detection keys on.
type InjectFunc[T num.Float] func(x, y, z int, v T) T

// InjectSource yields the injection hook for each iteration — the pluggable
// fault seam a protector consults when it owns its own stepping (Step with
// no arguments). Returning a nil InjectFunc for an iteration keeps that
// sweep entirely hook-free on the fast path. fault.Injector is the standard
// implementation; tests and campaigns may supply their own.
type InjectSource[T num.Float] interface {
	HookFor(iter int) InjectFunc[T]
}

// HookAt resolves an injection source to the hook for one iteration; a nil
// source yields a nil hook, keeping the sweep's fast path branch-free.
func HookAt[T num.Float](src InjectSource[T], iter int) InjectFunc[T] {
	if src == nil {
		return nil
	}
	return src.HookFor(iter)
}

// Op2D binds a stencil to the context a sweep needs: the boundary
// condition, the optional Constant-boundary ghost value, and the optional
// per-point constant term C from Equation (1).
type Op2D[T num.Float] struct {
	St      *Stencil[T]
	BC      grid.Boundary
	BCValue T             // ghost value when BC == grid.Constant
	C       *grid.Grid[T] // optional constant field; nil means zero

	// ForceGeneric disables specialized-kernel dispatch, pinning every
	// sweep to the dynamic k-point loop. Specialization is bit-identical
	// to the generic loop (kernels_test.go), so this is only a baseline
	// knob for benchmarks and the pin tests themselves.
	ForceGeneric bool

	// planc caches the compiled sweep plan (offsets, weights, interior
	// bounds, kernel choice) for the last-seen shape; see plan.go.
	planc planCache[plan2d[T]]
}

// Validate checks the operator against a domain of the given shape.
func (op *Op2D[T]) Validate(nx, ny int) error {
	if err := op.St.Validate(); err != nil {
		return err
	}
	if op.St.Is3D() {
		return opErrorf("stencil %q: 3-D stencil used with a 2-D sweep", op.St.Name)
	}
	if !op.BC.Valid() {
		return opErrorf("stencil %q: invalid boundary condition", op.St.Name)
	}
	if rx, ry := op.St.RadiusX(), op.St.RadiusY(); rx >= nx || ry >= ny {
		return opErrorf("stencil %q: radius %d/%d exceeds domain %dx%d", op.St.Name, rx, ry, nx, ny)
	}
	if op.C != nil && (op.C.Nx() != nx || op.C.Ny() != ny) {
		return opErrorf("stencil %q: constant field %dx%d does not match domain %dx%d",
			op.St.Name, op.C.Nx(), op.C.Ny(), nx, ny)
	}
	return nil
}

// Sweep computes one full iteration: dst(x,y) = C(x,y) + Σ w·src̃(x+dx,y+dy)
// for every point of the domain. dst and src must be distinct grids of the
// same shape.
func (op *Op2D[T]) Sweep(dst, src *grid.Grid[T]) {
	op.SweepRange(dst, src, 0, src.Ny(), nil, nil)
}

// SweepFused computes one full iteration and simultaneously accumulates the
// column checksum vector b (b[y] = Σ_x dst(x,y), len ny) — the paper's
// Figure 2 fused loop. b may be nil to skip checksum accumulation.
func (op *Op2D[T]) SweepFused(dst, src *grid.Grid[T], b []T) {
	op.SweepRange(dst, src, 0, src.Ny(), b, nil)
}

// SweepRange sweeps rows y0 <= y < y1 only, accumulating b[y] for those
// rows when b is non-nil and applying hook to each freshly computed value
// when hook is non-nil. It is the primitive both the parallel engine and
// the fault injector build on; distinct row ranges touch disjoint rows of
// dst and disjoint entries of b, so concurrent calls need no locking.
//
// It is the full-width rectangle of SweepRectFused (rect.go), which holds
// the one row-driver body; b is indexed by domain row here, by rectangle
// row there.
func (op *Op2D[T]) SweepRange(dst, src *grid.Grid[T], y0, y1 int, b []T, hook InjectFunc[T]) {
	if b != nil {
		b = b[y0:y1]
	}
	op.SweepRectFused(dst, src, 0, y0, src.Nx(), y1, b, hook)
}

// pointSlow evaluates one point with full boundary resolution.
func (op *Op2D[T]) pointSlow(bg grid.BoundedGrid[T], cD []T, x, y, nx int) T {
	var v T
	if cD != nil {
		v = cD[x+y*nx]
	}
	for _, p := range op.St.Points {
		v += p.W * bg.At(x+p.DX, y+p.DY)
	}
	return v
}

// ChecksumB computes the column checksum vector of g directly:
// b[y] = Σ_x g(x,y). It is the unfused reference ablation A2
// (campaign.Ablations) compares the fused loop against.
func ChecksumB[T num.Float](g *grid.Grid[T], b []T) {
	nx, ny := g.Nx(), g.Ny()
	d := g.Data()
	for y := 0; y < ny; y++ {
		var acc T
		row := d[y*nx : (y+1)*nx]
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
		b[y] = acc
	}
}

// ChecksumA computes the row checksum vector of g directly:
// a[x] = Σ_y g(x,y).
func ChecksumA[T num.Float](g *grid.Grid[T], a []T) {
	nx, ny := g.Nx(), g.Ny()
	d := g.Data()
	for x := range a[:nx] {
		a[x] = 0
	}
	for y := 0; y < ny; y++ {
		row := d[y*nx : (y+1)*nx]
		for x, v := range row {
			a[x] += v
		}
	}
}
