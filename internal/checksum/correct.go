package checksum

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Location is a corrupted domain point identified by intersecting the
// mismatching row-checksum index (x) and column-checksum index (y).
type Location struct {
	X, Y int
}

// PairPolicy selects how mismatching A-indices are matched with
// mismatching B-indices when more than one error is present.
type PairPolicy int

const (
	// PairByResidual matches an A mismatch with the B mismatch whose
	// checksum residual is closest: a single corrupted cell perturbs its
	// row and column checksums by the same amount, so true pairs have
	// nearly equal residuals. This disambiguates multi-error patterns
	// that index-order pairing gets wrong.
	PairByResidual PairPolicy = iota
	// PairByIndex matches the i-th A mismatch with the i-th B mismatch,
	// the policy of the paper's Figure 6 listing.
	PairByIndex
)

// Pair combines the A-vector and B-vector mismatch lists into error
// locations. With exactly one mismatch on each side there is nothing to
// disambiguate; with k > 1 the policy decides. When the list lengths
// differ (overlapping corruptions in the same row or column), the shorter
// list bounds the number of locatable errors and the extras are dropped —
// the caller should treat that as a partially located event.
func Pair[T num.Float](am, bm []Mismatch[T], policy PairPolicy) []Location {
	n := min(len(am), len(bm))
	if n == 0 {
		return nil
	}
	locs := make([]Location, 0, n)
	if policy == PairByIndex || n == 1 {
		for i := 0; i < n; i++ {
			locs = append(locs, Location{X: am[i].Index, Y: bm[i].Index})
		}
		return locs
	}
	used := make([]bool, len(bm))
	for i := 0; i < n; i++ {
		best, bestDiff := -1, T(0)
		for j := range bm {
			if used[j] {
				continue
			}
			d := num.Abs(am[i].Residual - bm[j].Residual)
			if best < 0 || d < bestDiff {
				best, bestDiff = j, d
			}
		}
		used[best] = true
		locs = append(locs, Location{X: am[i].Index, Y: bm[best].Index})
	}
	return locs
}

// Corrector applies the paper's Equation (10): the corrupted value is
// recovered by subtracting it from the direct checksum and comparing with
// the interpolated checksum. The two estimates (from A and from B) are
// averaged, as in the paper's Figure 6, and the checksums themselves are
// patched so later iterations remain verifiable.
//
// PaperExact selects the literal formula v = a' - (a - u), whose
// subtraction a - u cancels catastrophically when the corrupted value u
// dwarfs the rest of the line (a high exponent-bit flip) — the residual
// spike the paper reports in Section 5.3/Figure 10b. The default instead
// evaluates the algebraically identical v = a' - Σ_{other cells}, summing
// the uncorrupted cells directly from the domain (O(nx+ny) per correction),
// which stays accurate for corruption of any magnitude, including
// overflowed checksums. The Figure 10 campaign runs both.
type Corrector[T num.Float] struct {
	PaperExact bool
}

// Correct recovers the value at loc in g, writes it back, and patches the
// direct checksum vectors. direct holds the checksums computed from the
// (corrupted) domain; interpA/interpB are the interpolated (clean)
// checksums. It returns the old and new values.
func (c Corrector[T]) Correct(g *grid.Grid[T], loc Location, direct *Vectors[T], interpA, interpB []T) (old, fixed T) {
	old = g.At(loc.X, loc.Y)
	if c.PaperExact {
		vx := interpA[loc.X] - (direct.A[loc.X] - old)
		vy := interpB[loc.Y] - (direct.B[loc.Y] - old)
		fixed = (vx + vy) / 2
		switch {
		case num.IsFinite(fixed):
			// common case
		case num.IsFinite(vx):
			fixed = vx
		case num.IsFinite(vy):
			fixed = vy
		default:
			fixed = 0
		}
		g.Set(loc.X, loc.Y, fixed)
		delta := fixed - old
		if num.IsFinite(delta) {
			direct.A[loc.X] += delta
			direct.B[loc.Y] += delta
			return old, fixed
		}
		// The direct checksums are non-finite; fall through to the
		// exact recomputation below after the repair.
	} else {
		// Stable evaluation: the whole grid is the rectangle.
		return CorrectRect(g, 0, 0, g.Nx(), g.Ny(), loc, direct.A, direct.B, interpA, interpB)
	}
	g.Set(loc.X, loc.Y, fixed)
	var sa, sb T
	for y := 0; y < g.Ny(); y++ {
		sa += g.At(loc.X, y)
	}
	for x := 0; x < g.Nx(); x++ {
		sb += g.At(x, loc.Y)
	}
	direct.A[loc.X] = sa
	direct.B[loc.Y] = sb
	return old, fixed
}

// CorrectRect applies the numerically stable Equation-(10) repair to one
// located error of the rectangle [x0,x1) x [y0,y1) of g — the unit both
// the tiled (blocks) and the distributed (dist) deployments share. loc is
// rect-local; directA/directB are the rectangle's partial row/column
// checksums (patched in place so later iterations stay verifiable), and
// interpA/interpB the interpolated ones. The corrupted value is recovered
// as interp minus the sum of the line's other cells, which stays accurate
// for corruption of any magnitude, then the two estimates are averaged.
func CorrectRect[T num.Float](g *grid.Grid[T], x0, y0, x1, y1 int, loc Location,
	directA, directB, interpA, interpB []T) (old, fixed T) {
	gx, gy := x0+loc.X, y0+loc.Y
	old = g.At(gx, gy)
	var restA, restB T
	for y := y0; y < y1; y++ {
		if y != gy {
			restA += g.At(gx, y)
		}
	}
	for x := x0; x < x1; x++ {
		if x != gx {
			restB += g.At(x, gy)
		}
	}
	vx := interpA[loc.X] - restA
	vy := interpB[loc.Y] - restB
	fixed = (vx + vy) / 2
	g.Set(gx, gy, fixed)
	directA[loc.X] = restA + fixed
	directB[loc.Y] = restB + fixed
	return old, fixed
}

// RepairRect is the tail of the detection slow path for the owner of
// rectangle [x0,x1) x [y0,y1) of g (a dist tile, a blocks block), once it
// holds the rectangle's direct and interpolated checksum pairs: locate by
// intersecting the two mismatch lists, repair each located point with
// CorrectRect, and return how many were repaired. A mismatch in one vector
// only means the corruption sits in a checksum, not the rectangle (paper
// Figure 5, scenario 2): the rectangle is trusted, directB is refreshed
// from it and 0 is returned.
func RepairRect[T num.Float](det Detector[T], pol PairPolicy, g *grid.Grid[T], x0, y0, x1, y1 int,
	directA, directB, interpA, interpB []T) int {
	bm := det.Compare(directB, interpB)
	am := det.Compare(directA, interpA)
	if len(am) == 0 || len(bm) == 0 {
		stencil.ChecksumBRect(g, x0, y0, x1, y1, directB)
		return 0
	}
	locs := Pair(am, bm, pol)
	for _, loc := range locs {
		CorrectRect(g, x0, y0, x1, y1, loc, directA, directB, interpA, interpB)
	}
	return len(locs)
}

// CorrectAll pairs the mismatch lists and corrects every located error,
// returning the locations fixed. The same grid/checksum patching rules as
// Correct apply per location.
func (c Corrector[T]) CorrectAll(g *grid.Grid[T], am, bm []Mismatch[T], policy PairPolicy,
	direct *Vectors[T], interpA, interpB []T) []Location {
	locs := Pair(am, bm, policy)
	for _, loc := range locs {
		c.Correct(g, loc, direct, interpA, interpB)
	}
	return locs
}

// Repair is RepairRect for the owner of a whole grid — the online
// protectors' tail — repairing through the Corrector, so PaperExact applies.
func (c Corrector[T]) Repair(det Detector[T], pol PairPolicy, g *grid.Grid[T], direct *Vectors[T], interpA, interpB []T) int {
	bm := det.Compare(direct.B, interpB)
	am := det.Compare(direct.A, interpA)
	if len(am) == 0 || len(bm) == 0 {
		stencil.ChecksumB(g, direct.B)
		return 0
	}
	return len(c.CorrectAll(g, am, bm, pol, direct, interpA, interpB))
}
