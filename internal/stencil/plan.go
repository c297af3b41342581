package stencil

import (
	"sync/atomic"
	"unsafe"

	"stencilabft/internal/num"
)

// A sweep plan is the compiled form of an operator for one domain shape:
// flat offsets, a weight vector, interior bounds and the specialized kernel
// (when the stencil matches one), computed once and cached on the operator.
// Before plans, every SweepRange/SweepLayer call rebuilt the offset and
// weight slices — two heap allocations per worker-chunk per iteration on
// the hottest path in the library. A plan is immutable after construction
// and shared read-only by all worker goroutines.
//
// The cache is validated on every fetch: shape, stencil identity, the
// points themselves (offsets and weights, so even in-place weight edits are
// caught), the ForceGeneric knob and — for the 3-D plan, which holds
// BC-resolved tables — the boundary condition and ghost value. Any mismatch
// rebuilds the plan; an atomic pointer keeps concurrent fetches race-free
// without a lock.

// kernel identifies the interior row kernel a plan dispatches to.
type kernel uint8

const (
	// kernGeneric is the dynamic k-point loop, valid for every stencil.
	kernGeneric kernel = iota
	// kernStar5 is the hand-unrolled 2-D five-point star (centre, west,
	// east, north, south — the canonical FivePoint/Laplace5 order).
	kernStar5
	// kernBox9 is the hand-unrolled full 3x3 box in NinePoint's row-major
	// order (dy outer -1..1, dx inner -1..1).
	kernBox9
	// kernStar7 is the hand-unrolled 3-D seven-point star (centre, west,
	// east, north, south, below, above — the SevenPoint3D order).
	kernStar7
)

func (k kernel) String() string {
	switch k {
	case kernStar5:
		return "star5"
	case kernBox9:
		return "box9"
	case kernStar7:
		return "star7"
	default:
		return "generic"
	}
}

// Canonical offset sequences the specialized kernels match. Dispatch
// requires the exact declaration order, not just the same offset set: the
// unrolled kernels accumulate in this fixed order, and float addition is
// not associative, so only an identically-ordered generic loop is
// bit-identical to them. The constructors (FivePoint, Laplace5, NinePoint,
// BoxBlur, SevenPoint3D) all produce these orders.
var (
	star5Offsets = [][3]int{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}}
	box9Offsets  = [][3]int{
		{-1, -1, 0}, {0, -1, 0}, {1, -1, 0},
		{-1, 0, 0}, {0, 0, 0}, {1, 0, 0},
		{-1, 1, 0}, {0, 1, 0}, {1, 1, 0},
	}
	star7Offsets = [][3]int{{0, 0, 0}, {-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1}}
)

// matchOffsets reports whether pts lists exactly the canonical offsets, in
// order.
func matchOffsets[T num.Float](pts []Point[T], want [][3]int) bool {
	if len(pts) != len(want) {
		return false
	}
	for i, p := range pts {
		if p.DX != want[i][0] || p.DY != want[i][1] || p.DZ != want[i][2] {
			return false
		}
	}
	return true
}

// detectKernel classifies pts against the specialized kernel table and, on
// a match, copies the weights into kw in canonical order.
func detectKernel[T num.Float](pts []Point[T], kw *[9]T) kernel {
	switch {
	case matchOffsets(pts, star5Offsets):
		for i, p := range pts {
			kw[i] = p.W
		}
		return kernStar5
	case matchOffsets(pts, box9Offsets):
		for i, p := range pts {
			kw[i] = p.W
		}
		return kernBox9
	case matchOffsets(pts, star7Offsets):
		for i, p := range pts {
			kw[i] = p.W
		}
		return kernStar7
	default:
		return kernGeneric
	}
}

// plan2d is the compiled sweep plan of an Op2D for one nx-by-ny shape.
type plan2d[T num.Float] struct {
	nx, ny int
	st     *Stencil[T]
	pts    []Point[T] // private copy, for cache validation
	force  bool       // ForceGeneric at build time
	offs   []int      // flat offsets, points order
	ws     []T        // weights, points order
	rx, ry int
	kern   kernel
	kw     [9]T // kernel weights in canonical order (kern != kernGeneric)
}

// matches reports whether the plan is still valid for op at shape nx-by-ny.
func (pl *plan2d[T]) matches(op *Op2D[T], nx, ny int) bool {
	if pl.nx != nx || pl.ny != ny || pl.st != op.St || pl.force != op.ForceGeneric {
		return false
	}
	if len(pl.pts) != len(op.St.Points) {
		return false
	}
	for i, p := range op.St.Points {
		if pl.pts[i] != p {
			return false
		}
	}
	return true
}

// plan returns the compiled plan for the current stencil at shape nx-by-ny,
// rebuilding and re-caching it when the cached one is stale. Safe for
// concurrent use: the plan itself is immutable and the cache slot is an
// atomic pointer (concurrent rebuilds store equivalent plans; last wins).
func (op *Op2D[T]) plan(nx, ny int) *plan2d[T] {
	if pl := op.planc.Load(); pl != nil && pl.matches(op, nx, ny) {
		return pl
	}
	pts := op.St.Points
	pl := &plan2d[T]{
		nx: nx, ny: ny,
		st:    op.St,
		pts:   append([]Point[T](nil), pts...),
		force: op.ForceGeneric,
		offs:  make([]int, len(pts)),
		ws:    make([]T, len(pts)),
		rx:    op.St.RadiusX(),
		ry:    op.St.RadiusY(),
	}
	for i, p := range pts {
		pl.offs[i] = p.DX + p.DY*nx
		pl.ws[i] = p.W
	}
	if !op.ForceGeneric {
		pl.kern = detectKernel(pts, &pl.kw)
	}
	op.planc.Store(pl)
	return pl
}

// sweepRow computes the interior segment [xlo, xhi) of the row starting at
// flat index base, dispatching to the specialized kernel when the plan has
// one. acc is threaded through (acc += value, per point, in x order) so the
// fused checksum accumulates in exactly the order of the pre-plan code.
func (pl *plan2d[T]) sweepRow(dst, src, c []T, base, xlo, xhi int, acc T) T {
	switch pl.kern {
	case kernStar5:
		return star5Row(dst, src, c, base, xlo, xhi, pl.nx, &pl.kw, acc)
	case kernBox9:
		return box9Row(dst, src, c, base, xlo, xhi, pl.nx, &pl.kw, acc)
	default:
		return genericRow(dst, src, c, pl.offs, pl.ws, base, xlo, xhi, acc)
	}
}

// plan3d is the compiled sweep plan of an Op3D for one nx-by-ny-by-nz shape.
// Besides the kernel choice it holds the boundary fold (fold.go), so it is
// keyed on the boundary condition and ghost value too.
type plan3d[T num.Float] struct {
	st      *Stencil[T]
	pts     []Point[T] // private copy, for cache validation and the fold
	force   bool
	bcValue T
	kern    kernel
	kw      [9]T
	fold    rowFold[T]
}

// matches reports whether the plan is still valid for op at the given shape.
// op.C is not part of the key: sweeps read it from the operator every call.
func (pl *plan3d[T]) matches(op *Op3D[T], nx, ny, nz int) bool {
	f := &pl.fold
	if f.nx != nx || f.ny != ny || f.nz != nz || pl.st != op.St || pl.force != op.ForceGeneric ||
		f.bc != op.BC || pl.bcValue != op.BCValue {
		return false
	}
	if len(pl.pts) != len(op.St.Points) {
		return false
	}
	for i, p := range op.St.Points {
		if pl.pts[i] != p {
			return false
		}
	}
	return true
}

// plan returns the compiled 3-D plan, rebuilding it when stale. The 2-D
// kernels remain eligible: a stencil with all-zero DZ swept layer-wise reads
// the same rows as in a 2-D grid, so e.g. a per-layer Laplace5 in a 3-D
// domain still dispatches to star5.
func (op *Op3D[T]) plan(nx, ny, nz int) *plan3d[T] {
	if pl := op.planc.Load(); pl != nil && pl.matches(op, nx, ny, nz) {
		return pl
	}
	pts := append([]Point[T](nil), op.St.Points...)
	pl := &plan3d[T]{
		st:      op.St,
		pts:     pts,
		force:   op.ForceGeneric,
		bcValue: op.BCValue,
		fold:    newRowFold(pts, op.BC, op.BCValue, nx, ny, nz, op.St.RadiusX()),
	}
	if !op.ForceGeneric {
		pl.kern = detectKernel(pts, &pl.kw)
	}
	op.planc.Store(pl)
	return pl
}

// planCache is the one-slot atomic cache embedded in Op2D/Op3D: the compiled
// plan, and the reusable call state of the parallel 3-D sweep. The zero
// value is ready to use. It uses the untyped atomic primitives rather than
// atomic.Pointer so the operator structs stay free of noCopy fields (they
// are commonly constructed as literals and may be copied while cold).
type planCache[P any] struct {
	p unsafe.Pointer // *P
}

func (c *planCache[P]) Load() *P   { return (*P)(atomic.LoadPointer(&c.p)) }
func (c *planCache[P]) Store(p *P) { atomic.StorePointer(&c.p, unsafe.Pointer(p)) }

// Take empties the slot and returns what it held, so exactly one caller owns
// a mutable cached value at a time.
func (c *planCache[P]) Take() *P { return (*P)(atomic.SwapPointer(&c.p, nil)) }
