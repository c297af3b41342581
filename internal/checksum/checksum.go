// Package checksum implements the paper's primary contribution: checksum
// vectors for stencil domains (Section 3.2), their interpolation across a
// stencil sweep (Theorem 1, implemented with exact boundary terms alpha and
// beta), silent-data-corruption detection by comparing interpolated against
// directly computed checksums (Theorem 2, Section 3.4), and algebraic
// correction of located errors (Equation 10, Section 3.5).
//
// Conventions follow the paper: for a domain u of shape nx-by-ny,
//
//	A[x] = Σ_y u(x,y)   (the "row checksum vector", one entry per x)
//	B[y] = Σ_x u(x,y)   (the "column checksum vector", one entry per y)
//
// B is the vector the fused sweep accumulates for free; A is only needed
// when an error has been detected and must be located in x.
package checksum

import (
	"fmt"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Vectors holds the checksum pair of one 2-D domain (or one layer of a 3-D
// domain).
type Vectors[T num.Float] struct {
	A []T // len nx, A[x] = Σ_y u(x,y)
	B []T // len ny, B[y] = Σ_x u(x,y)
}

// NewVectors allocates a zeroed checksum pair for an nx-by-ny domain.
func NewVectors[T num.Float](nx, ny int) *Vectors[T] {
	return &Vectors[T]{A: make([]T, nx), B: make([]T, ny)}
}

// Compute fills both vectors from g with plain left-to-right accumulation,
// the order the paper's fused loop uses.
func (v *Vectors[T]) Compute(g *grid.Grid[T]) {
	stencil.ChecksumA(g, v.A)
	stencil.ChecksumB(g, v.B)
}

// ComputeKahan fills both vectors using compensated summation, lowering the
// round-off floor at ~2x accumulation cost (ablation A3).
func (v *Vectors[T]) ComputeKahan(g *grid.Grid[T]) {
	nx, ny := g.Nx(), g.Ny()
	accA := make([]num.Accumulator[T], nx)
	for y := 0; y < ny; y++ {
		row := g.Row(y)
		var acc num.Accumulator[T]
		for x, val := range row {
			acc.Add(val)
			accA[x].Add(val)
		}
		v.B[y] = acc.Value()
	}
	for x := 0; x < nx; x++ {
		v.A[x] = accA[x].Value()
	}
}

// FillHalo fills the h halo entries at each end of ext from its own entries
// by the 1-D projection of the boundary condition — DESIGN.md Section 6's
// b̃/ã resolution, for a vector of checksums or a stack of layers. Entry i
// outside the n = len(ext)-2h entries between the halos takes the entry its
// index resolves to under Clamp, Periodic and Mirror, and ghost, the value a
// whole ghost line carries (n'·K for a checksum under Constant, 0 under
// Zero), where the condition has no entry to give.
func FillHalo[E any](ext []E, h int, bc grid.Boundary, ghost E) {
	n := len(ext) - 2*h
	for i := range h {
		for _, e := range [2]int{i - h, n + i} {
			if r, ok := bc.ResolveIndex(e, n); ok {
				ext[h+e] = ext[h+r]
			} else {
				ext[h+e] = ghost
			}
		}
	}
}

// EdgeSource supplies domain values ũ(x,y) of iteration t for the alpha/beta
// boundary terms. The interpolator reads two implementations:
// grid.BoundedGrid (a live grid — a domain, a 3-D layer, or the frame a chunk
// is a rectangle of) and EdgeSnapshot (a stored copy of a domain's edge
// strips, used by the offline protectors' Δ-step interpolation chains). It
// reads their cells in place at lines and rows it resolved at construction,
// so it panics on any other implementation (a bare *grid.Grid has the
// method) and on a source whose shape or boundary differs from its own; At,
// with full boundary resolution, is for per-entry readers.
type EdgeSource[T num.Float] interface {
	At(x, y int) T
}

// EdgeSnapshot stores the first and last r columns and rows of a domain
// iteration together with the boundary condition, so that alpha/beta terms
// of past iterations can be evaluated after the domain buffer has been
// overwritten. Memory cost is O(r*(nx+ny)) per retained iteration.
type EdgeSnapshot[T num.Float] struct {
	nx, ny   int
	r        int
	bc       grid.Boundary
	constVal T
	left     []T // r columns of length ny: left[c*ny+y] = u(c, y)
	right    []T // r columns: right[c*ny+y] = u(nx-r+c, y)
	top      []T // r rows of length nx: top[c*nx+x] = u(x, c)
	bottom   []T // r rows: bottom[c*nx+x] = u(x, ny-r+c)
}

// NewEdgeSnapshot allocates an empty snapshot for an nx-by-ny domain and
// stencil radius r (use max(RadiusX, RadiusY); r is clamped into [1, nx]
// and [1, ny] as needed).
func NewEdgeSnapshot[T num.Float](nx, ny, r int, bc grid.Boundary, constVal T) *EdgeSnapshot[T] {
	if r < 1 {
		r = 1
	}
	// Mirror boundaries reflect ghost index -r onto +r, one past an
	// r-wide strip, so strips are stored one wider than the radius.
	r++
	rx, ry := min(r, nx), min(r, ny)
	return &EdgeSnapshot[T]{
		nx: nx, ny: ny, r: r, bc: bc, constVal: constVal,
		left:   make([]T, rx*ny),
		right:  make([]T, rx*ny),
		top:    make([]T, ry*nx),
		bottom: make([]T, ry*nx),
	}
}

// Capture copies g's edge strips into the snapshot.
func (e *EdgeSnapshot[T]) Capture(g *grid.Grid[T]) {
	if g.Nx() != e.nx || g.Ny() != e.ny {
		panic("checksum: edge snapshot shape mismatch")
	}
	rx, ry := min(e.r, e.nx), min(e.r, e.ny)
	for c := 0; c < rx; c++ {
		for y := 0; y < e.ny; y++ {
			e.left[c*e.ny+y] = g.At(c, y)
			e.right[c*e.ny+y] = g.At(e.nx-rx+c, y)
		}
	}
	for c := 0; c < ry; c++ {
		copy(e.top[c*e.nx:(c+1)*e.nx], g.Row(c))
		copy(e.bottom[c*e.nx:(c+1)*e.nx], g.Row(e.ny-ry+c))
	}
}

// At returns ũ(x,y) with full boundary resolution. It panics if the
// resolved point lies outside the stored edge strips, which would indicate
// the caller queried an interior point (a contract violation, always a bug).
func (e *EdgeSnapshot[T]) At(x, y int) T {
	rxi, okx := e.bc.ResolveIndex(x, e.nx)
	ryi, oky := e.bc.ResolveIndex(y, e.ny)
	if !okx || !oky {
		if e.bc == grid.Constant {
			return e.constVal
		}
		return 0
	}
	rx, ry := min(e.r, e.nx), min(e.r, e.ny)
	switch {
	case rxi < rx:
		return e.left[rxi*e.ny+ryi]
	case rxi >= e.nx-rx:
		return e.right[(rxi-(e.nx-rx))*e.ny+ryi]
	case ryi < ry:
		return e.top[ryi*e.nx+rxi]
	case ryi >= e.ny-ry:
		return e.bottom[(ryi-(e.ny-ry))*e.nx+rxi]
	default:
		panic(fmt.Sprintf("checksum: edge snapshot queried at interior point (%d,%d)", x, y))
	}
}

// line returns the stored in-domain column c (cols) or row c as a slice
// over y or x — the direct read behind the interpolator's window-shift
// terms. Like At, it panics on a line outside the strips.
func (e *EdgeSnapshot[T]) line(cols bool, c int) []T {
	lo, hi, r, n, m := e.top, e.bottom, min(e.r, e.ny), e.nx, e.ny
	if cols {
		lo, hi, r, n, m = e.left, e.right, min(e.r, e.nx), e.ny, e.nx
	}
	switch {
	case c < r:
		return lo[c*n : (c+1)*n]
	case c >= m-r:
		return hi[(c-(m-r))*n : (c-(m-r)+1)*n]
	default:
		panic(fmt.Sprintf("checksum: edge snapshot queried at interior line %d", c))
	}
}

// LiveEdges wraps the full t-buffer as an EdgeSource — the zero-copy path
// used by the online protector.
func LiveEdges[T num.Float](g *grid.Grid[T], bc grid.Boundary, constVal T) EdgeSource[T] {
	return grid.BoundedGrid[T]{G: g, Cond: bc, ConstVal: constVal}
}
