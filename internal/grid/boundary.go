package grid

import "fmt"

// Boundary selects how out-of-domain ("ghost") points are resolved when a
// stencil reaches past the edge of the grid. The paper calls Clamp
// "bounce-back" (its HotSpot3D kernel reuses the border point itself),
// Periodic wraps, Mirror reflects about the edge, Constant substitutes a
// fixed value and Zero discards the contribution.
type Boundary int

// Supported boundary conditions.
const (
	// Clamp repeats the nearest in-domain point: u(-1) == u(0). This is
	// the condition used by the paper's HotSpot3D prototype (Figure 2).
	Clamp Boundary = iota
	// Periodic wraps around: u(-1) == u(n-1). Under Periodic the
	// interpolation boundary terms alpha/beta vanish (paper Eqs. 8-9).
	Periodic
	// Mirror reflects about the edge point: u(-1) == u(1).
	Mirror
	// Constant substitutes a caller-supplied constant for every ghost
	// point.
	Constant
	// Zero treats every ghost point as 0 (the paper's "empty
	// boundaries").
	Zero
)

// String returns the boundary's display name.
func (b Boundary) String() string {
	switch b {
	case Clamp:
		return "clamp"
	case Periodic:
		return "periodic"
	case Mirror:
		return "mirror"
	case Constant:
		return "constant"
	case Zero:
		return "zero"
	default:
		return fmt.Sprintf("boundary(%d)", int(b))
	}
}

// Valid reports whether b is one of the defined boundary conditions.
func (b Boundary) Valid() bool { return b >= Clamp && b <= Zero }

// ResolveIndex maps a possibly out-of-range index onto [0, n) according to
// the boundary condition. The second result is false when the ghost point
// does not correspond to any in-domain point (Constant and Zero boundaries),
// in which case the caller must substitute the boundary value itself.
//
// Offsets are assumed to be at most n away from the domain, which holds for
// any stencil whose radius is smaller than the domain — Stencil validation
// enforces that.
func (b Boundary) ResolveIndex(i, n int) (int, bool) {
	if i >= 0 && i < n {
		return i, true
	}
	switch b {
	case Clamp:
		if i < 0 {
			return 0, true
		}
		return n - 1, true
	case Periodic:
		i %= n
		if i < 0 {
			i += n
		}
		return i, true
	case Mirror:
		// Reflect about the edge points: -1 -> 1, n -> n-2. For a
		// width-1 domain every reflection lands on 0.
		if n == 1 {
			return 0, true
		}
		period := 2 * (n - 1)
		i %= period
		if i < 0 {
			i += period
		}
		if i >= n {
			i = period - i
		}
		return i, true
	case Constant, Zero:
		return 0, false
	default:
		panic(fmt.Sprintf("grid: invalid boundary %d", int(b)))
	}
}

// BoundedGrid pairs a grid with a boundary condition and an optional
// constant ghost value, giving stencil code a single At that never goes out
// of range. The same condition applies on both axes, matching the paper's
// kernels; distinct per-axis conditions can be composed from two
// BoundedGrids by the caller if ever needed.
type BoundedGrid[T interface{ ~float32 | ~float64 }] struct {
	G        *Grid[T]
	Cond     Boundary
	ConstVal T // ghost value when Cond == Constant
}

// At returns the value at (x, y), resolving out-of-domain coordinates with
// the boundary condition. Corners resolve each axis independently, which
// matches applying the 1-D rule twice (e.g. Clamp maps (-1,-1) to (0,0)).
func (bg BoundedGrid[T]) At(x, y int) T {
	rx, okx := bg.Cond.ResolveIndex(x, bg.G.nx)
	ry, oky := bg.Cond.ResolveIndex(y, bg.G.ny)
	if !okx || !oky {
		if bg.Cond == Constant {
			return bg.ConstVal
		}
		return 0
	}
	return bg.G.At(rx, ry)
}
