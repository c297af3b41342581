// Package stencil defines stencil descriptors (the set S of weighted
// relative offsets from the paper's Equation 1) and the sequential and
// parallel sweep engines that apply them, including the fused
// column-checksum sweep that realises the paper's "single extra addition"
// implementation (Figure 2).
package stencil

import (
	"errors"
	"fmt"

	"stencilabft/internal/errs"
	"stencilabft/internal/num"
)

// ErrInvalidOp classifies every operator-validation failure —
// errors.Is(err, ErrInvalidOp) is true for the errors Stencil.Validate,
// Op2D.Validate and Op3D.Validate return, while the message keeps naming
// the specific defect.
var ErrInvalidOp = errors.New("stencil: invalid operator")

// opErrorf formats an operator-validation error tagged ErrInvalidOp.
func opErrorf(format string, args ...any) error {
	return errs.Tagf([]error{ErrInvalidOp}, format, args...)
}

// Point is one element of the stencil set S: a relative offset and its
// weight. DZ is zero for 2-D stencils.
type Point[T num.Float] struct {
	DX, DY, DZ int
	W          T
}

// Stencil describes an arbitrary stencil kernel: a set of weighted offsets.
// Weights may be asymmetric and offsets may reach beyond the immediate
// neighbours; the only structural requirement, enforced by Validate, is
// that offsets are unique and the radius is positive in at least one axis
// or the stencil includes the centre.
type Stencil[T num.Float] struct {
	Name   string
	Points []Point[T]
}

// Validate checks structural sanity: at least one point, no duplicate
// offsets, and no zero-weight points (they would silently change the
// checksum interpolation cost model). It returns a descriptive error.
func (s *Stencil[T]) Validate() error {
	if len(s.Points) == 0 {
		return opErrorf("stencil %q: no points", s.Name)
	}
	seen := make(map[[3]int]bool, len(s.Points))
	for _, p := range s.Points {
		k := [3]int{p.DX, p.DY, p.DZ}
		if seen[k] {
			return opErrorf("stencil %q: duplicate offset (%d,%d,%d)", s.Name, p.DX, p.DY, p.DZ)
		}
		seen[k] = true
		if p.W == 0 {
			return opErrorf("stencil %q: zero weight at offset (%d,%d,%d)", s.Name, p.DX, p.DY, p.DZ)
		}
	}
	return nil
}

// Is3D reports whether any point has a non-zero z offset.
func (s *Stencil[T]) Is3D() bool {
	for _, p := range s.Points {
		if p.DZ != 0 {
			return true
		}
	}
	return false
}

// RadiusX returns the largest |DX| over all points.
func (s *Stencil[T]) RadiusX() int { return s.radius(func(p Point[T]) int { return p.DX }) }

// RadiusY returns the largest |DY| over all points.
func (s *Stencil[T]) RadiusY() int { return s.radius(func(p Point[T]) int { return p.DY }) }

// RadiusZ returns the largest |DZ| over all points.
func (s *Stencil[T]) RadiusZ() int { return s.radius(func(p Point[T]) int { return p.DZ }) }

func (s *Stencil[T]) radius(axis func(Point[T]) int) int {
	r := 0
	for _, p := range s.Points {
		d := axis(p)
		if d < 0 {
			d = -d
		}
		if d > r {
			r = d
		}
	}
	return r
}

// String summarises the stencil for diagnostics.
func (s *Stencil[T]) String() string {
	return fmt.Sprintf("stencil %q (%d points, radius %d/%d/%d)",
		s.Name, len(s.Points), s.RadiusX(), s.RadiusY(), s.RadiusZ())
}

// FivePoint returns the classic 2-D five-point stencil with individual
// weights for centre, west, east, north (y-1) and south (y+1), the shape of
// the paper's Figure 2 kernel.
func FivePoint[T num.Float](c, w, e, n, s T) *Stencil[T] {
	return &Stencil[T]{Name: "five-point", Points: []Point[T]{
		{0, 0, 0, c},
		{-1, 0, 0, w},
		{1, 0, 0, e},
		{0, -1, 0, n},
		{0, 1, 0, s},
	}}
}

// Jacobi4 returns the four-point averaging stencil from the paper's
// Section 3.1 example: S = {(0,-1,.25), (-1,0,.25), (1,0,.25), (0,1,.25)}.
func Jacobi4[T num.Float]() *Stencil[T] {
	st := FivePoint[T](0.25, 0.25, 0.25, 0.25, 0.25)
	st.Name = "jacobi4"
	st.Points = st.Points[1:] // drop the centre
	return st
}

// Laplace5 returns the five-point Jacobi heat kernel
// u' = u + alpha*(west+east+north+south-4u).
func Laplace5[T num.Float](alpha T) *Stencil[T] {
	st := FivePoint[T](1-4*alpha, alpha, alpha, alpha, alpha)
	st.Name = "laplace5"
	return st
}

// NinePoint returns a full 3x3 stencil with the given row-major weights
// (dy=-1..1 outer, dx=-1..1 inner).
func NinePoint[T num.Float](w [9]T) *Stencil[T] {
	st := &Stencil[T]{Name: "nine-point"}
	i := 0
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if w[i] != 0 {
				st.Points = append(st.Points, Point[T]{dx, dy, 0, w[i]})
			}
			i++
		}
	}
	return st
}

// BoxBlur returns the 3x3 uniform averaging stencil used by the image
// example.
func BoxBlur[T num.Float]() *Stencil[T] {
	var w [9]T
	for i := range w {
		w[i] = 1.0 / 9.0
	}
	st := NinePoint(w)
	st.Name = "box-blur"
	return st
}

// SevenPoint3D returns the 3-D seven-point stencil with individual weights
// for centre, west/east (x∓1), north/south (y∓1) and below/above (z∓1) —
// the shape of HotSpot3D's kernel.
func SevenPoint3D[T num.Float](c, w, e, n, s, b, a T) *Stencil[T] {
	return &Stencil[T]{Name: "seven-point-3d", Points: []Point[T]{
		{0, 0, 0, c},
		{-1, 0, 0, w},
		{1, 0, 0, e},
		{0, -1, 0, n},
		{0, 1, 0, s},
		{0, 0, -1, b},
		{0, 0, 1, a},
	}}
}

// Advect2D returns a deliberately asymmetric first-order upwind advection
// stencil: u' = u - cx*(u - u_west) - cy*(u - u_north). Its east/west and
// north/south weights differ, so the boundary terms alpha/beta do NOT
// cancel under clamp boundaries — it exercises the exact Theorem-1 path
// that the paper's simplified listings cannot handle.
func Advect2D[T num.Float](cx, cy T) *Stencil[T] {
	return &Stencil[T]{Name: "advect2d", Points: []Point[T]{
		{0, 0, 0, 1 - cx - cy},
		{-1, 0, 0, cx},
		{0, -1, 0, cy},
	}}
}
