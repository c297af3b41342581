package checksum

import (
	"fmt"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Interp2D interpolates the checksum vectors of iteration t+1 from those of
// iteration t for a fixed 2-D stencil operator (Theorem 1). The constant-
// field line sums cA, cB are precomputed once (the paper notes c_x "is
// constant and can be pre-computed").
//
// Unlike the paper's example listings, the boundary terms alpha/beta are
// evaluated exactly from an EdgeSource, so the interpolation matches the
// direct checksums up to floating-point round-off for arbitrary weights and
// every supported boundary condition. Under Periodic boundaries the terms
// vanish and are skipped (paper Eqs. 8-9).
type Interp2D[T num.Float] struct {
	op     *stencil.Op2D[T]
	nx, ny int
	cA     []T // cA[x] = Σ_y C(x,y)
	cB     []T // cB[y] = Σ_x C(x,y)
	// ghostSumA/B are the 1-D Constant-boundary substitutes: a whole
	// ghost line sums to n*K.
	ghostSumA T // substitute for ã at out-of-range x: ny*K
	ghostSumB T // substitute for b̃ at out-of-range y: nx*K
	// DropBoundaryTerms reproduces the paper's simplified listings
	// (Figures 3 and 7), which omit alpha/beta. Exact only for Periodic
	// boundaries or weight-symmetric stencils; exposed for ablation A1.
	DropBoundaryTerms bool

	// betaDxs/betaLookup/betaTab back the TileEdges fast path of
	// InterpolateBBand: the distinct nonzero stencil DX offsets, a per-dx
	// view into the scratch table (indexed dx+RadiusX), and the table
	// itself — beta terms for yy in [-ry, ny+ry). Built lazily on first
	// use, so steady-state calls allocate nothing. betaPrimed marks tables
	// filled ahead of time by PrimeBetaTables, consumed by exactly the
	// next InterpolateBBand call; betaMidPrimed marks the tile-row entries
	// filled early by PrimeBetaTablesMid, leaving only the ghost rows.
	betaDxs       []int
	betaLookup    [][]T
	betaTab       []T
	betaPrimed    bool
	betaMidPrimed bool
	// betaLoJ/betaHiJ bound the table rows any interpolation actually
	// reads — [minDY, ny+maxDY) over the DX≠0 points, shifted by ry. A
	// star stencil's x-offset points all sit at DY=0, so its ghost-row
	// entries are never read and never filled.
	betaLoJ, betaHiJ int
}

// NewInterp2D precomputes an interpolator for op over an nx-by-ny domain.
func NewInterp2D[T num.Float](op *stencil.Op2D[T], nx, ny int) (*Interp2D[T], error) {
	if err := op.Validate(nx, ny); err != nil {
		return nil, err
	}
	return NewInterp2DRect(op, 0, 0, nx, ny)
}

// NewInterp2DRect precomputes an interpolator for the rectangle [x0,x1) x
// [y0,y1) of op's domain — a chunk of it, whose neighbour data the band and
// block forms (InterpolateBBand, InterpolateABlock) take in place of a
// boundary condition. The constant-field line sums are the rectangle's, read
// from op's domain-shaped field in place.
func NewInterp2DRect[T num.Float](op *stencil.Op2D[T], x0, y0, x1, y1 int) (*Interp2D[T], error) {
	nx, ny := x1-x0, y1-y0
	if err := (&stencil.Op2D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}).Validate(nx, ny); err != nil {
		return nil, err
	}
	ip := &Interp2D[T]{op: op, nx: nx, ny: ny, cA: make([]T, nx), cB: make([]T, ny)}
	if op.C != nil {
		stencil.ChecksumARect(op.C, x0, y0, x1, y1, ip.cA)
		stencil.ChecksumBRect(op.C, x0, y0, x1, y1, ip.cB)
	}
	if op.BC == grid.Constant {
		ip.ghostSumA = T(ny) * op.BCValue
		ip.ghostSumB = T(nx) * op.BCValue
	}
	return ip, nil
}

// InterpolateB computes bNext[y] for every y from bPrev (the column
// checksums of iteration t) and the edge values of iteration t. bNext and
// bPrev must both have length ny and must not alias.
//
// Cost: O(ny * k * (1+r)) where k = |S| and r = RadiusX — the paper's
// O(k^2 * ny) with the alpha/beta inner loop made explicit.
func (ip *Interp2D[T]) InterpolateB(bPrev []T, edges EdgeSource[T], bNext []T) {
	if len(bPrev) != ip.ny || len(bNext) != ip.ny {
		panic(fmt.Sprintf("checksum: InterpolateB length %d/%d, want %d", len(bPrev), len(bNext), ip.ny))
	}
	bc := ip.op.BC
	for y := 0; y < ip.ny; y++ {
		v := ip.cB[y]
		for _, p := range ip.op.St.Points {
			yy := y + p.DY
			term := resolve1D(bPrev, yy, bc, ip.ghostSumB)
			if p.DX != 0 && bc != grid.Periodic && !ip.DropBoundaryTerms {
				term += ip.beta(edges, p.DX, yy)
			}
			v += p.W * term
		}
		bNext[y] = v
	}
}

// InterpolateA computes aNext[x] for every x from aPrev (the row checksums
// of iteration t) and the edge values of iteration t.
func (ip *Interp2D[T]) InterpolateA(aPrev []T, edges EdgeSource[T], aNext []T) {
	if len(aPrev) != ip.nx || len(aNext) != ip.nx {
		panic(fmt.Sprintf("checksum: InterpolateA length %d/%d, want %d", len(aPrev), len(aNext), ip.nx))
	}
	bc := ip.op.BC
	for x := 0; x < ip.nx; x++ {
		v := ip.cA[x]
		for _, p := range ip.op.St.Points {
			xx := x + p.DX
			term := resolve1D(aPrev, xx, bc, ip.ghostSumA)
			if p.DY != 0 && bc != grid.Periodic && !ip.DropBoundaryTerms {
				term += ip.alpha(edges, p.DY, xx)
			}
			v += p.W * term
		}
		aNext[x] = v
	}
}

// beta evaluates the paper's β_{dx,yy} boundary term: the difference
// between the ghost columns that enter the x-summation window when it
// shifts by dx and the domain columns that leave it. All values are from
// iteration t via the EdgeSource.
func (ip *Interp2D[T]) beta(edges EdgeSource[T], dx, yy int) T {
	var v T
	if dx < 0 {
		for x := dx; x < 0; x++ { // ghost columns entering on the left
			v += edges.At(x, yy)
		}
		for x := ip.nx + dx; x < ip.nx; x++ { // domain columns leaving on the right
			v -= edges.At(x, yy)
		}
	} else {
		for x := ip.nx; x < ip.nx+dx; x++ { // ghost columns entering on the right
			v += edges.At(x, yy)
		}
		for x := 0; x < dx; x++ { // domain columns leaving on the left
			v -= edges.At(x, yy)
		}
	}
	return v
}

// alpha evaluates the paper's α_{xx,dy} boundary term, the y-axis analogue
// of beta.
func (ip *Interp2D[T]) alpha(edges EdgeSource[T], dy, xx int) T {
	var v T
	if dy < 0 {
		for y := dy; y < 0; y++ {
			v += edges.At(xx, y)
		}
		for y := ip.ny + dy; y < ip.ny; y++ {
			v -= edges.At(xx, y)
		}
	} else {
		for y := ip.ny; y < ip.ny+dy; y++ {
			v += edges.At(xx, y)
		}
		for y := 0; y < dy; y++ {
			v -= edges.At(xx, y)
		}
	}
	return v
}

// EdgeRadius returns the snapshot radius the interpolator needs:
// max(RadiusX, RadiusY) of the stencil.
func (ip *Interp2D[T]) EdgeRadius() int {
	return max(ip.op.St.RadiusX(), ip.op.St.RadiusY())
}
