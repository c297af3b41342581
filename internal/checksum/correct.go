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

// CorrectRect recovers the value of one located error of the rectangle
// [x0,x1) x [y0,y1) of g — a whole grid is the rectangle (0, 0, nx, ny) —
// writes it back and patches the direct checksums so later iterations stay
// verifiable. loc is rect-local; directA/directB are the rectangle's partial
// row/column checksums computed from the (corrupted) cells, interpA/interpB
// the interpolated (clean) ones. It returns the old and new values.
func (c Corrector[T]) CorrectRect(g *grid.Grid[T], x0, y0, x1, y1 int, loc Location,
	directA, directB, interpA, interpB []T) (old, fixed T) {
	gx, gy := x0+loc.X, y0+loc.Y
	old = g.At(gx, gy)
	if c.PaperExact {
		vx := interpA[loc.X] - (directA[loc.X] - old)
		vy := interpB[loc.Y] - (directB[loc.Y] - old)
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
		g.Set(gx, gy, fixed)
		if delta := fixed - old; num.IsFinite(delta) {
			directA[loc.X] += delta
			directB[loc.Y] += delta
			return old, fixed
		}
		// The direct checksums are non-finite: re-sum the two lines below.
	}
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
	if !c.PaperExact {
		// Stable evaluation: interp minus the sum of the line's other
		// cells, the two estimates averaged.
		fixed = ((interpA[loc.X] - restA) + (interpB[loc.Y] - restB)) / 2
		g.Set(gx, gy, fixed)
	}
	directA[loc.X] = restA + fixed
	directB[loc.Y] = restB + fixed
	return old, fixed
}

// RepairRect is the tail of the detection slow path for the owner of
// rectangle [x0,x1) x [y0,y1) of g (a chunk of a frame, a layer of a 3-D
// domain), once it holds the rectangle's direct and interpolated checksum
// pairs: locate by intersecting the two mismatch lists, repair each located
// point with CorrectRect, and return how many were repaired. A mismatch in
// one vector only means the corruption sits in a checksum, not the rectangle
// (paper Figure 5, scenario 2): the rectangle is trusted, directB is
// refreshed from it and 0 is returned.
func (c Corrector[T]) RepairRect(det Detector[T], pol PairPolicy, g *grid.Grid[T], x0, y0, x1, y1 int,
	directA, directB, interpA, interpB []T) int {
	bm := det.Compare(directB, interpB)
	am := det.Compare(directA, interpA)
	if len(am) == 0 || len(bm) == 0 {
		stencil.ChecksumBRect(g, x0, y0, x1, y1, directB)
		return 0
	}
	locs := Pair(am, bm, pol)
	for _, loc := range locs {
		c.CorrectRect(g, x0, y0, x1, y1, loc, directA, directB, interpA, interpB)
	}
	return len(locs)
}

// CorrectAll pairs the mismatch lists of a whole grid and corrects every
// located error, returning the locations fixed.
func (c Corrector[T]) CorrectAll(g *grid.Grid[T], am, bm []Mismatch[T], policy PairPolicy,
	direct *Vectors[T], interpA, interpB []T) []Location {
	locs := Pair(am, bm, policy)
	for _, loc := range locs {
		c.CorrectRect(g, 0, 0, g.Nx(), g.Ny(), loc, direct.A, direct.B, interpA, interpB)
	}
	return locs
}
