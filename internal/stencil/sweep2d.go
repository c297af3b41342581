package stencil

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Site is one injected fault of a sweep: a cell, in the coordinates of the
// grids being swept (Z = 0 for a 2-D sweep), and the mutation of the value
// the sweep stored there — the paper's fault-injection site ("after the
// stencil point ... has been updated and before it is stored"). A sweep
// always runs its compiled kernel; the leaf drivers (SweepRectFused,
// SweepLayer) then apply each site inside what they swept: the cell of dst
// is mutated and, when a checksum is being fused, that row segment is
// re-summed left to right from zero into its b entry. The kernels fuse b by
// exactly that sum (acc += v in x order), so the direct checksum covers the
// corrupted value bit for bit as if it had been corrupted before the store,
// while the interpolated checksum reflects the clean computation; their
// mismatch is what detection keys on. An injected sweep therefore costs one
// row more than a clean one, not a per-cell callback.
type Site[T num.Float] struct {
	X, Y, Z int
	Mutate  func(v T) T
}

// InjectSource yields the sites of each iteration — the pluggable fault seam
// a protector consults when it owns its own stepping (Step with no
// arguments). Most iterations have none. fault.Injector is the standard
// implementation; tests and campaigns may supply their own.
type InjectSource[T num.Float] interface {
	SitesFor(iter int) []Site[T]
}

// SitesAt resolves an injection source to one iteration's sites; a nil
// source has none.
func SitesAt[T num.Float](src InjectSource[T], iter int) []Site[T] {
	if src == nil {
		return nil
	}
	return src.SitesFor(iter)
}

// applySites applies the sites that fall in [x0,x1) x [y0,y1) of layer z of
// dst (nx columns a row, layer z starting at base) and re-sums each hit
// row's segment into b, which is indexed from y0; b may be nil.
func applySites[T num.Float](sites []Site[T], dst []T, nx, base, x0, y0, x1, y1, z int, b []T) {
	for _, s := range sites {
		if s.Z != z || s.X < x0 || s.X >= x1 || s.Y < y0 || s.Y >= y1 {
			continue
		}
		row := dst[base+s.Y*nx:][:nx]
		row[s.X] = s.Mutate(row[s.X])
		if b != nil {
			b[s.Y-y0] = num.Sum(row[x0:x1])
		}
	}
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
	// sweepc keeps SweepRectParallel's argument block between calls; see
	// parallel.go.
	sweepc planCache[rectSweep[T]]
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
// rows when b is non-nil and applying the sites that fall in them. It is
// the primitive the parallel engine builds on; distinct row ranges touch
// disjoint rows of dst and disjoint entries of b, so concurrent calls need
// no locking.
//
// It is the full-width rectangle of SweepRectFused (rect.go), which holds
// the one row-driver body; b is indexed by domain row here, by rectangle
// row there.
func (op *Op2D[T]) SweepRange(dst, src *grid.Grid[T], y0, y1 int, b []T, sites []Site[T]) {
	if b != nil {
		b = b[y0:y1]
	}
	op.SweepRectFused(dst, src, 0, y0, src.Nx(), y1, b, sites)
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
// b[y] = Σ_x g(x,y) — ChecksumBRect over the whole grid. It is the unfused
// reference ablation A2 (campaign.Ablations) compares the fused loop against.
func ChecksumB[T num.Float](g *grid.Grid[T], b []T) { ChecksumBRect(g, 0, 0, g.Nx(), g.Ny(), b) }

// ChecksumA computes the row checksum vector of g directly:
// a[x] = Σ_y g(x,y) — ChecksumARect over the whole grid.
func ChecksumA[T num.Float](g *grid.Grid[T], a []T) { ChecksumARect(g, 0, 0, g.Nx(), g.Ny(), a) }
