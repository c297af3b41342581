package blocks

import (
	"math/rand"
	"testing"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

func blockOpts() Options[float64] {
	return Options[float64]{Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}}
}

func makeOp(nx, ny int, rng *rand.Rand, bc grid.Boundary) *stencil.Op2D[float64] {
	c := grid.New[float64](nx, ny)
	c.FillFunc(func(x, y int) float64 { return 0.05 * rng.Float64() })
	return &stencil.Op2D[float64]{St: stencil.Laplace5(0.21), BC: bc, BCValue: 1.5, C: c}
}

func makeInit(nx, ny int, rng *rand.Rand) *grid.Grid[float64] {
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 200 + 30*rng.Float64() })
	return g
}

// TestBlockedMatchesBaseline: the tiled run must be bitwise identical to
// the unprotected baseline in an error-free execution, for every boundary
// condition and for block sizes that do and do not divide the domain.
func TestBlockedMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		for _, bs := range [][2]int{{8, 8}, {7, 5}, {32, 4}, {40, 40}} {
			nx, ny := 40, 36
			op := makeOp(nx, ny, rand.New(rand.NewSource(2)), bc)
			init := makeInit(nx, ny, rng)
			const iters = 20

			ref, err := core.NewNone2D(op, init, core.Options[float64]{})
			if err != nil {
				t.Fatal(err)
			}
			ref.Run(iters)

			p, err := New(op, init, bs[0], bs[1], blockOpts())
			if err != nil {
				t.Fatalf("bc=%s bs=%v: %v", bc, bs, err)
			}
			p.Run(iters)
			if d := p.Grid().MaxAbsDiff(ref.Grid()); d != 0 {
				t.Fatalf("bc=%s bs=%v: diverged by %g", bc, bs, d)
			}
			if st := p.Stats(); st.Detections != 0 {
				t.Fatalf("bc=%s bs=%v: false positives %+v", bc, bs, st)
			}
		}
	}
}

// TestBlockedAsymmetricStencil exercises the per-block beta terms with the
// upwind advection kernel under clamp boundaries.
func TestBlockedAsymmetricStencil(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nx, ny := 30, 28
	op := &stencil.Op2D[float64]{St: stencil.Advect2D(0.3, 0.15), BC: grid.Clamp}
	init := makeInit(nx, ny, rng)
	const iters = 18

	ref, err := core.NewNone2D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	p, err := New(op, init, 9, 7, blockOpts())
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	if d := p.Grid().MaxAbsDiff(ref.Grid()); d != 0 {
		t.Fatalf("diverged by %g", d)
	}
	if st := p.Stats(); st.Detections != 0 {
		t.Fatalf("false positives: %+v", st)
	}
}

// TestBlockedDetectsAndCorrects injects flips at block interiors, block
// boundaries and domain corners.
func TestBlockedDetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nx, ny := 32, 32
	op := makeOp(nx, ny, rand.New(rand.NewSource(5)), grid.Clamp)
	init := makeInit(nx, ny, rng)
	const iters = 24

	ref, err := core.NewNone2D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	targets := []struct{ x, y int }{
		{4, 4},   // block interior
		{7, 9},   // adjacent to a block edge (blocks are 8x8)
		{8, 8},   // block corner
		{0, 0},   // domain corner
		{31, 31}, // far domain corner
		{15, 16}, // straddling block boundary rows
	}
	for ti, tc := range targets {
		inj := fault.Injection{Iteration: 7 + ti, X: tc.x, Y: tc.y, Bit: 58}
		p, err := New(op, init, 8, 8, blockOpts())
		if err != nil {
			t.Fatal(err)
		}
		injector := fault.NewInjector[float64](fault.NewPlan(inj))
		for i := 0; i < iters; i++ {
			p.StepInject(injector.SitesFor(i))
		}
		st := p.Stats()
		if st.Detections == 0 || st.CorrectedPoints == 0 {
			t.Fatalf("target %d (%v): not handled (%+v)", ti, inj, st)
		}
		if d := p.Grid().MaxAbsDiff(ref.Grid()); d > 1e-6 {
			t.Fatalf("target %d (%v): residual %g", ti, inj, d)
		}
	}
}

// TestBlockedLocalisesToOneBlock: exactly one block flags for an interior
// single-point error.
func TestBlockedLocalisesToOneBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny := 32, 32
	op := makeOp(nx, ny, rand.New(rand.NewSource(7)), grid.Clamp)
	init := makeInit(nx, ny, rng)

	p, err := New(op, init, 8, 8, blockOpts())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.Injection{Iteration: 5, X: 20, Y: 12, Bit: 58}
	injector := fault.NewInjector[float64](fault.NewPlan(inj))
	for i := 0; i < 10; i++ {
		p.StepInject(injector.SitesFor(i))
	}
	st := p.Stats()
	if st.FlaggedBlocks != 1 {
		t.Fatalf("flagged %d blocks, want exactly 1 (%+v)", st.FlaggedBlocks, st)
	}
	if st.CorrectedPoints != 1 {
		t.Fatalf("corrected %d points (%+v)", st.CorrectedPoints, st)
	}
}

// TestBlockedParallelMatchesSequential: pool execution is bitwise equal.
func TestBlockedParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nx, ny := 48, 40
	op := makeOp(nx, ny, rand.New(rand.NewSource(9)), grid.Mirror)
	init := makeInit(nx, ny, rng)

	seq, err := New(op, init, 8, 8, blockOpts())
	if err != nil {
		t.Fatal(err)
	}
	popt := blockOpts()
	popt.Pool = &stencil.Pool{Workers: 5}
	par, err := New(op, init, 8, 8, popt)
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(15)
	par.Run(15)
	if d := seq.Grid().MaxAbsDiff(par.Grid()); d != 0 {
		t.Fatalf("parallel tiled run diverged by %g", d)
	}
}

func TestBlockedRejectsBadBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	op := makeOp(16, 16, rng, grid.Clamp)
	init := makeInit(16, 16, rng)
	if _, err := New(op, init, 0, 8, blockOpts()); err == nil {
		t.Fatal("zero block width accepted")
	}
}

func TestBlockCountAndGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	op := makeOp(20, 10, rng, grid.Clamp)
	init := makeInit(20, 10, rng)
	p, err := New(op, init, 8, 4, blockOpts())
	if err != nil {
		t.Fatal(err)
	}
	// ceil(20/8)=3 by ceil(10/4)=3 blocks.
	if p.Blocks() != 9 {
		t.Fatalf("blocks = %d, want 9", p.Blocks())
	}
}

// TestBlockGranularityImprovesSensitivity pins the motivation for per-chunk
// application (paper Section 3.4): a corruption whose relative effect on a
// whole-domain checksum sits below the threshold is still visible against a
// block's much smaller checksum. A fraction-bit flip of ~0.25 on a 256-wide
// row of ~300-valued float32 cells moves the whole-row sum by 3e-6 relative
// (invisible at epsilon=1e-5) but a 16-wide block sum by 5e-5 (flagged).
func TestBlockGranularityImprovesSensitivity(t *testing.T) {
	const nx, ny = 256, 32
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	init := grid.New[float32](nx, ny)
	init.FillFunc(func(x, y int) float32 { return 300 + float32(x%5) })
	inj := fault.Injection{Iteration: 4, X: 130, Y: 15, Bit: 13}
	det := checksum.Detector[float32]{Epsilon: 1e-5, AbsFloor: 1}

	whole, err := core.NewOnline2D(op, init, core.Options[float32]{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	injW := fault.NewInjector[float32](fault.NewPlan(inj))
	for i := 0; i < 10; i++ {
		whole.StepInject(injW.SitesFor(i))
	}
	if len(injW.Hits()) != 1 {
		t.Fatal("injection did not land in whole-domain run")
	}
	if whole.Stats().Detections != 0 {
		t.Fatalf("whole-domain run detected the flip; the test magnitude is miscalibrated: %+v", whole.Stats())
	}

	blocked, err := New(op, init, 16, 16, Options[float32]{Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	injB := fault.NewInjector[float32](fault.NewPlan(inj))
	for i := 0; i < 10; i++ {
		blocked.StepInject(injB.SitesFor(i))
	}
	st := blocked.Stats()
	if st.Detections == 0 || st.CorrectedPoints == 0 {
		t.Fatalf("blocked run missed the flip at the same epsilon: %+v", st)
	}
}

// TestDropBoundaryTermsPlumbed: with an asymmetric stencil under clamp
// boundaries the paper's dropped-term interpolation misfires per tile,
// while the exact default stays silent — proving the A1 ablation knob
// actually reaches the per-block interpolators.
func TestDropBoundaryTermsPlumbed(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Advect2D(0.3, 0.15), BC: grid.Clamp}
	init := grid.New[float64](48, 48)
	init.FillFunc(func(x, y int) float64 {
		if x < 6 {
			return 100
		}
		return 1
	})
	run := func(drop bool) Stats {
		p, err := New(op, init, 16, 16, Options[float64]{
			Detector:          checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
			DropBoundaryTerms: drop,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Run(20)
		return p.Stats()
	}
	if st := run(false); st.Detections != 0 {
		t.Fatalf("exact interpolation raised false positives: %+v", st)
	}
	if st := run(true); st.Detections == 0 {
		t.Fatal("dropped boundary terms should misfire on an asymmetric stencil")
	}
}

// tookTwoVectorPath reports whether any block has interpolated row
// checksums, which only the Equation-(10) path computes.
func tookTwoVectorPath(p *Protector[float64]) bool {
	for _, b := range p.blocks {
		for _, v := range b.interpA {
			if v != 0 {
				return true
			}
		}
	}
	return false
}

// TestBlockedRepairIsBitwise is the repair contract on the tiled deployment:
// for every bit position the detector flags, the flagged block re-evaluates
// the row from the intact previous iteration and the run ends bit-identical
// to the fault-free one — grid and every block's verified checksums. A flip
// written into the read buffer between steps is what re-evaluation cannot
// serve; the block-local two-vector path takes it, as it took everything
// before, and the checksums track the domain afterwards.
func TestBlockedRepairIsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const nx, ny, iters = 30, 26, 12
	op := makeOp(nx, ny, rand.New(rand.NewSource(22)), grid.Mirror)
	init := makeInit(nx, ny, rng)
	clean, err := New(op, init, 8, 7, blockOpts())
	if err != nil {
		t.Fatal(err)
	}
	clean.Run(iters)

	detected := 0
	for bit := 0; bit < 64; bit++ {
		opt := blockOpts()
		// Cells walk over block interiors, block edges and the domain border.
		inj := fault.Injection{Iteration: 3 + bit%5, X: (7 * bit) % nx, Y: (5 * bit) % ny, Bit: bit}
		opt.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
		if bit%2 == 1 {
			opt.Pool = &stencil.Pool{Workers: 3}
		}
		p, err := New(op, init, 8, 7, opt)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		opt.Pool.Close()
		st := p.Stats()
		if st.Detections == 0 {
			continue
		}
		detected++
		if st.Detections != 1 || st.FlaggedBlocks != 1 || st.CorrectedPoints != 1 || st.ChecksumRepairs != 0 {
			t.Fatalf("%v: %+v", inj, st)
		}
		for i, v := range p.Grid().Data() {
			if !num.SameBits(v, clean.Grid().Data()[i]) {
				t.Fatalf("%v: repaired run is not bitwise the fault-free run (max diff %g)", inj, p.Grid().MaxAbsDiff(clean.Grid()))
			}
		}
		for k, b := range p.blocks {
			for j, v := range b.prevB {
				if !num.SameBits(v, clean.blocks[k].prevB[j]) {
					t.Fatalf("%v: block %d checksum %d differs from the fault-free run's", inj, k, j)
				}
			}
		}
		if tookTwoVectorPath(p) {
			t.Fatalf("%v: a located flip took the two-vector path", inj)
		}
	}
	if detected < 20 {
		t.Fatalf("only %d of 64 bit positions were detected", detected)
	}

	p, err := New(op, init, 8, 7, blockOpts())
	if err != nil {
		t.Fatal(err)
	}
	p.Run(4)
	g := p.buf.Read
	g.Set(12, 9, g.At(12, 9)+500)
	p.Step()
	st := p.Stats()
	if st.Detections != 1 || st.FlaggedBlocks == 0 {
		t.Fatalf("read-buffer flip: %+v", st)
	}
	if !tookTwoVectorPath(p) {
		t.Fatal("read-buffer flip: no block took the two-vector path")
	}
	p.Run(iters)
	if p.Stats().Detections != 1 {
		t.Fatalf("read-buffer flip: detections after the repair: %+v", p.Stats())
	}
}
