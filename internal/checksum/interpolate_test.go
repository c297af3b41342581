package checksum

import (
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// randomGrid fills an nx-by-ny grid with values in [lo, lo+span).
func randomGrid(rng *rand.Rand, nx, ny int, lo, span float64) *grid.Grid[float64] {
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return lo + span*rng.Float64() })
	return g
}

// randomStencil builds a random 2-D stencil with k points within the given
// radius, unique offsets and weights in [-1, 1].
func randomStencil(rng *rand.Rand, k, radius int) *stencil.Stencil[float64] {
	st := &stencil.Stencil[float64]{Name: "random"}
	seen := map[[2]int]bool{}
	for len(st.Points) < k {
		dx := rng.Intn(2*radius+1) - radius
		dy := rng.Intn(2*radius+1) - radius
		if seen[[2]int{dx, dy}] {
			continue
		}
		seen[[2]int{dx, dy}] = true
		w := 2*rng.Float64() - 1
		if w == 0 {
			w = 0.5
		}
		st.Points = append(st.Points, stencil.Point[float64]{DX: dx, DY: dy, W: w})
	}
	return st
}

var allBoundaries = []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}

// interpDomain interpolates vector v of a domain interpolator from prev, a
// vector with no halo, extended by the projection of the boundary condition.
func interpDomain[T num.Float](ip *Interp2D[T], v Vec, prev []T, edges EdgeSource[T], next []T) {
	h := ip.EdgeRadius()
	ext := make([]T, len(prev)+2*h)
	copy(ext[h:], prev)
	ip.FillHalo(v, ext)
	ip.Interpolate(v, ext, edges, next)
}

// TestTheorem1Invariance is the central property test: for random domains,
// random stencils and every boundary condition, the interpolated checksum
// vectors equal the directly computed checksums of the swept domain up to
// floating-point round-off.
func TestTheorem1Invariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nx := 4 + rng.Intn(20)
		ny := 4 + rng.Intn(20)
		radius := 1 + rng.Intn(2)
		if radius >= nx || radius >= ny {
			radius = 1
		}
		k := 1 + rng.Intn(8)
		st := randomStencil(rng, k, radius)
		bc := allBoundaries[rng.Intn(len(allBoundaries))]
		var cfield *grid.Grid[float64]
		if rng.Intn(2) == 0 {
			cfield = randomGrid(rng, nx, ny, -0.5, 1)
		}
		op := &stencil.Op2D[float64]{St: st, BC: bc, BCValue: 2*rng.Float64() - 1, C: cfield}

		src := randomGrid(rng, nx, ny, -1, 2)
		dst := grid.New[float64](nx, ny)

		prev := NewVectors[float64](nx, ny)
		prev.Compute(src)

		op.Sweep(dst, src)
		direct := NewVectors[float64](nx, ny)
		direct.Compute(dst)

		ip, err := NewInterp2D(op, nx, ny)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		edges := LiveEdges(src, bc, op.BCValue)
		interpA := make([]float64, nx)
		interpB := make([]float64, ny)
		interpDomain(ip, VecA, prev.A, edges, interpA)
		interpDomain(ip, VecB, prev.B, edges, interpB)

		const tol = 1e-9
		for x := 0; x < nx; x++ {
			if num.RelErr(interpA[x], direct.A[x], 1e-6) > tol {
				t.Fatalf("trial %d (%s, bc=%s, %dx%d): A[%d] direct %.12g interp %.12g",
					trial, st, bc, nx, ny, x, direct.A[x], interpA[x])
			}
		}
		for y := 0; y < ny; y++ {
			if num.RelErr(interpB[y], direct.B[y], 1e-6) > tol {
				t.Fatalf("trial %d (%s, bc=%s, %dx%d): B[%d] direct %.12g interp %.12g",
					trial, st, bc, nx, ny, y, direct.B[y], interpB[y])
			}
		}
	}
}

// TestTheorem1EdgeSnapshot verifies that interpolation from a stored edge
// snapshot (the offline path) gives the same result as interpolation from
// the live grid.
func TestTheorem1EdgeSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nx := 5 + rng.Intn(12)
		ny := 5 + rng.Intn(12)
		st := randomStencil(rng, 1+rng.Intn(6), 1+rng.Intn(2))
		bc := allBoundaries[rng.Intn(len(allBoundaries))]
		op := &stencil.Op2D[float64]{St: st, BC: bc, BCValue: rng.Float64()}
		if op.Validate(nx, ny) != nil {
			continue
		}
		src := randomGrid(rng, nx, ny, 0, 10)
		prev := NewVectors[float64](nx, ny)
		prev.Compute(src)
		ip, err := NewInterp2D(op, nx, ny)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		live := LiveEdges(src, bc, op.BCValue)
		snap := NewEdgeSnapshot[float64](nx, ny, ip.EdgeRadius(), bc, op.BCValue)
		snap.Capture(src)

		gotA := make([]float64, nx)
		wantA := make([]float64, nx)
		gotB := make([]float64, ny)
		wantB := make([]float64, ny)
		interpDomain(ip, VecA, prev.A, live, wantA)
		interpDomain(ip, VecA, prev.A, snap, gotA)
		ip.InterpolateB(prev.B, live, wantB)
		ip.InterpolateB(prev.B, snap, gotB)
		for x := range gotA {
			if gotA[x] != wantA[x] {
				t.Fatalf("trial %d (bc=%s): A[%d] snapshot %.17g live %.17g", trial, bc, x, gotA[x], wantA[x])
			}
		}
		for y := range gotB {
			if gotB[y] != wantB[y] {
				t.Fatalf("trial %d (bc=%s): B[%d] snapshot %.17g live %.17g", trial, bc, y, gotB[y], wantB[y])
			}
		}
	}
}

// TestPeriodicDropsBoundaryTerms checks the simplification of the paper's
// Eqs. (8)-(9): under Periodic boundaries, dropping alpha/beta changes
// nothing.
func TestPeriodicDropsBoundaryTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		nx, ny := 6+rng.Intn(10), 6+rng.Intn(10)
		st := randomStencil(rng, 1+rng.Intn(6), 1)
		op := &stencil.Op2D[float64]{St: st, BC: grid.Periodic}
		src := randomGrid(rng, nx, ny, -1, 2)
		prev := NewVectors[float64](nx, ny)
		prev.Compute(src)
		ip, err := NewInterp2D(op, nx, ny)
		if err != nil {
			t.Fatal(err)
		}
		exact := make([]float64, ny)
		ip.InterpolateB(prev.B, LiveEdges(src, grid.Periodic, 0), exact)
		ip.DropBoundaryTerms = true
		dropped := make([]float64, ny)
		ip.InterpolateB(prev.B, LiveEdges(src, grid.Periodic, 0), dropped)
		for y := range exact {
			if exact[y] != dropped[y] {
				t.Fatalf("trial %d: periodic B[%d] exact %.17g dropped %.17g", trial, y, exact[y], dropped[y])
			}
		}
	}
}

// TestSymmetricWeightsCancelBeta documents why the paper's HotSpot3D
// prototype works despite dropping the boundary terms: with equal opposing
// weights under Clamp boundaries, the beta contributions cancel pairwise.
func TestSymmetricWeightsCancelBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nx, ny := 6+rng.Intn(10), 6+rng.Intn(10)
		we := rng.Float64()
		wn := rng.Float64()
		st := stencil.FivePoint(rng.Float64(), we, we, wn, wn)
		op := &stencil.Op2D[float64]{St: st, BC: grid.Clamp}
		src := randomGrid(rng, nx, ny, 0, 5)
		prev := NewVectors[float64](nx, ny)
		prev.Compute(src)
		ip, err := NewInterp2D(op, nx, ny)
		if err != nil {
			t.Fatal(err)
		}
		exact := make([]float64, ny)
		ip.InterpolateB(prev.B, LiveEdges(src, grid.Clamp, 0), exact)
		ip.DropBoundaryTerms = true
		dropped := make([]float64, ny)
		ip.InterpolateB(prev.B, LiveEdges(src, grid.Clamp, 0), dropped)
		for y := range exact {
			if num.RelErr(dropped[y], exact[y], 1e-9) > 1e-12 {
				t.Fatalf("trial %d: symmetric-clamp B[%d] exact %.17g dropped %.17g", trial, y, exact[y], dropped[y])
			}
		}
	}
}

// TestAsymmetricClampNeedsBeta is the converse: the asymmetric advection
// stencil under Clamp boundaries requires the exact boundary terms; the
// dropped variant diverges from the direct checksums while the exact one
// matches.
func TestAsymmetricClampNeedsBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nx, ny := 16, 12
	st := stencil.Advect2D(0.3, 0.2)
	op := &stencil.Op2D[float64]{St: st, BC: grid.Clamp}
	src := randomGrid(rng, nx, ny, 1, 4)
	dst := grid.New[float64](nx, ny)
	prev := NewVectors[float64](nx, ny)
	prev.Compute(src)
	op.Sweep(dst, src)
	direct := NewVectors[float64](nx, ny)
	direct.Compute(dst)
	ip, err := NewInterp2D(op, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	exact := make([]float64, ny)
	ip.InterpolateB(prev.B, LiveEdges(src, grid.Clamp, 0), exact)
	ip.DropBoundaryTerms = true
	dropped := make([]float64, ny)
	ip.InterpolateB(prev.B, LiveEdges(src, grid.Clamp, 0), dropped)

	var maxExact, maxDropped float64
	for y := range exact {
		maxExact = num.Max(maxExact, num.RelErr(exact[y], direct.B[y], 1e-9))
		maxDropped = num.Max(maxDropped, num.RelErr(dropped[y], direct.B[y], 1e-9))
	}
	if maxExact > 1e-12 {
		t.Fatalf("exact interpolation off by %g, want round-off only", maxExact)
	}
	if maxDropped < 1e-6 {
		t.Fatalf("dropped boundary terms unexpectedly accurate (%g); test is vacuous", maxDropped)
	}
}
