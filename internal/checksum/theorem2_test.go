package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// TestTheorem2SingleErrorLocalised is the detection property: corrupt one
// freshly swept cell by a perturbation above the detection floor, and the
// comparison of direct-vs-interpolated checksums must flag exactly the
// corrupted row and column.
func TestTheorem2SingleErrorLocalised(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nx := 5 + r.Intn(16)
		ny := 5 + r.Intn(16)
		st := randomStencil(r, 1+r.Intn(5), 1)
		bc := allBoundaries[r.Intn(len(allBoundaries))]
		op := &stencil.Op2D[float64]{St: st, BC: bc, BCValue: r.Float64()}
		if op.Validate(nx, ny) != nil {
			return true
		}
		src := randomGrid(r, nx, ny, 1, 4)
		dst := grid.New[float64](nx, ny)
		prev := NewVectors[float64](nx, ny)
		prev.Compute(src)
		op.Sweep(dst, src)

		// Corrupt one output cell well above the noise floor.
		ex, ey := r.Intn(nx), r.Intn(ny)
		clean := dst.At(ex, ey)
		delta := 10 + 100*r.Float64()
		if r.Intn(2) == 0 {
			delta = -delta
		}
		dst.Set(ex, ey, clean+delta)

		direct := NewVectors[float64](nx, ny)
		direct.Compute(dst)
		ip, err := NewInterp2D(op, nx, ny)
		if err != nil {
			return false
		}
		edges := LiveEdges(src, bc, op.BCValue)
		interpA := make([]float64, nx)
		interpB := make([]float64, ny)
		interpDomain(ip, VecA, prev.A, edges, interpA)
		interpDomain(ip, VecB, prev.B, edges, interpB)

		det := Detector[float64]{Epsilon: 1e-7, AbsFloor: 1}
		am := det.Compare(direct.A, interpA)
		bm := det.Compare(direct.B, interpB)
		if len(am) != 1 || len(bm) != 1 {
			return false
		}
		if am[0].Index != ex || bm[0].Index != ey {
			return false
		}
		// The residuals carry the perturbation itself.
		if num.Abs(am[0].Residual+delta) > 1e-6 || num.Abs(bm[0].Residual+delta) > 1e-6 {
			return false
		}
		// And the correction restores the clean value.
		var c Corrector[float64]
		_, fixed := c.CorrectRect(dst, 0, 0, dst.Nx(), dst.Ny(), Location{X: ex, Y: ey}, direct.A, direct.B, interpA, interpB)
		return num.Abs(fixed-clean) <= 1e-9*num.Max(1, num.Abs(clean))
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestOfflineChainEqualsRepeatedOneStep: interpolating Δ steps in a chain
// must equal applying one-step interpolation Δ times against fresh domain
// states — the identity the offline mode's correctness rests on.
func TestOfflineChainEqualsRepeatedOneStep(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	nx, ny := 18, 15
	st := randomStencil(rng, 5, 2) // radius-2: exercises the wider edge ring
	op := &stencil.Op2D[float64]{St: st, BC: grid.Clamp}
	if err := op.Validate(nx, ny); err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterp2D(op, nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 6

	buf := grid.BufferFrom(randomGrid(rng, nx, ny, 0, 3))
	chain := make([]float64, ny)
	oneStep := make([]float64, ny)
	scratch := make([]float64, ny)
	stencil.ChecksumB(buf.Read, chain)
	copy(oneStep, chain)

	rings := make([]*EdgeSnapshot[float64], steps)
	for s := 0; s < steps; s++ {
		rings[s] = NewEdgeSnapshot[float64](nx, ny, ip.EdgeRadius(), grid.Clamp, 0)
		rings[s].Capture(buf.Read)

		// One-step interpolation from the live domain.
		ip.InterpolateB(oneStep, LiveEdges(buf.Read, grid.Clamp, 0), scratch)
		oneStep, scratch = scratch, oneStep

		op.Sweep(buf.Write, buf.Read)
		buf.Swap()
	}
	// Chain interpolation from the stored ring only.
	for s := 0; s < steps; s++ {
		ip.InterpolateB(chain, rings[s], scratch)
		chain, scratch = scratch, chain
	}
	direct := make([]float64, ny)
	stencil.ChecksumB(buf.Read, direct)
	for y := 0; y < ny; y++ {
		if chain[y] != oneStep[y] {
			t.Fatalf("chain[%d]=%.17g one-step %.17g", y, chain[y], oneStep[y])
		}
		if num.RelErr(chain[y], direct[y], 1e-9) > 1e-11 {
			t.Fatalf("chain[%d]=%.12g direct %.12g", y, chain[y], direct[y])
		}
	}
}
