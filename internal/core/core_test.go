package core

import (
	"math/rand"
	"testing"

	"stencilabft/internal/checksum"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// testOp returns a HotSpot-like diffusive five-point operator under Clamp
// boundaries with a small constant heat source field.
func testOp(nx, ny int) *stencil.Op2D[float64] {
	c := grid.New[float64](nx, ny)
	c.FillFunc(func(x, y int) float64 {
		if x == nx/2 && y == ny/2 {
			return 0.5 // localized heat source
		}
		return 0.01
	})
	return &stencil.Op2D[float64]{
		St: stencil.Laplace5(0.2),
		BC: grid.Clamp,
		C:  c,
	}
}

// opts64 returns protector options with a detection threshold suited to
// float64 state: the paper's 1e-5 targets float32, whose round-off floor is
// nine orders of magnitude higher than float64's.
func opts64() Options[float64] {
	return Options[float64]{Detector: checksum.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}}
}

func testInit(rng *rand.Rand, nx, ny int) *grid.Grid[float64] {
	g := grid.New[float64](nx, ny)
	g.FillFunc(func(x, y int) float64 { return 300 + 10*rng.Float64() })
	return g
}

// referenceRun advances init by iters unprotected sweeps and returns the
// final state — the ground truth protected runs are compared against.
func referenceRun(op *stencil.Op2D[float64], init *grid.Grid[float64], iters int) *grid.Grid[float64] {
	p, err := NewNone2D(op, init, opts64())
	if err != nil {
		panic(err)
	}
	p.Run(iters)
	return p.Grid()
}

func TestOnline2DBelowThresholdHarmless(t *testing.T) {
	// A flip of fraction bit 0 changes the value by ~1 ULP; it must not
	// crash the protector, and whether or not it is detected the final
	// error must stay tiny (paper Figure 10: bits 0-12 cause errors too
	// small to detect — and too small to matter).
	rng := rand.New(rand.NewSource(3))
	nx, ny := 16, 16
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 40
	want := referenceRun(op, init, iters)

	inj := fault.Injection{Iteration: 10, X: 5, Y: 6, Bit: 0}
	o := opts64()
	o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	if d := p.Grid().MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("1-ULP flip propagated to %g", d)
	}
}

func TestOffline2DErrorFreeMatchesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	want := referenceRun(op, init, 50)

	p, err := func() (*Offline[float64], error) { o := opts64(); o.Period = 8; return NewOffline2D(op, init, o) }()
	if err != nil {
		t.Fatal(err)
	}
	p.Run(50)
	p.Finalize()
	if d := p.Grid().MaxAbsDiff(want); d != 0 {
		t.Fatalf("offline error-free run diverged from baseline by %g", d)
	}
	st := p.Stats()
	if st.Detections != 0 || st.Rollbacks != 0 {
		t.Fatalf("false positives: %+v", st)
	}
	// 50 iterations at Δ=8: 6 periodic checks + 1 final partial check.
	if st.Verifications != 7 {
		t.Fatalf("expected 7 verifications, got %d", st.Verifications)
	}
	if st.Checkpoint.Saves != 8 { // initial + 7 clean verifications
		t.Fatalf("expected 8 checkpoint saves, got %d", st.Checkpoint.Saves)
	}
}

func TestOffline2DDetectsAndErasesError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 64
	want := referenceRun(op, init, iters)

	for trial := 0; trial < 25; trial++ {
		inj := fault.RandomSingle(rng, iters, nx, ny, 1, 64)
		if inj.Bit < 30 {
			inj.Bit = 30 + rng.Intn(34)
		}
		p, err := func() (*Offline[float64], error) {
			o := opts64()
			o.Period = 16
			o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
			return NewOffline2D(op, init, o)
		}()
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		p.Finalize()
		st := p.Stats()
		if st.Detections == 0 {
			t.Fatalf("trial %d: injection %v not detected (stats %v)", trial, inj, st)
		}
		if st.Rollbacks == 0 || st.RecomputedIters == 0 {
			t.Fatalf("trial %d: no rollback recovery (stats %v)", trial, inj)
		}
		// Offline recovery recomputes from a clean checkpoint, so the
		// error is fully erased (paper Figure 10c).
		if d := p.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: residual error %g after rollback of %v", trial, d, inj)
		}
	}
}

func TestOnline2DTwoErrorsSameIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 30
	want := referenceRun(op, init, iters)

	// Two flips in the same iteration, distinct rows and columns: the
	// residual-pairing policy must pair them correctly.
	plan := fault.NewPlan(
		fault.Injection{Iteration: 12, X: 3, Y: 4, Bit: 58},
		fault.Injection{Iteration: 12, X: 15, Y: 11, Bit: 56},
	)
	o := opts64()
	injector := fault.NewInjector[float64](plan)
	o.Inject = injector
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	if len(injector.Hits()) != 2 {
		t.Fatalf("wanted 2 hits, got %d", len(injector.Hits()))
	}
	st := p.Stats()
	if st.CorrectedPoints != 2 {
		t.Fatalf("wanted 2 corrected points, got %+v", st)
	}
	if d := p.Grid().MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("residual error %g after double correction", d)
	}
}

func TestOnline3DDetectsAndCorrects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nx, ny, nz := 16, 14, 6
	st3 := stencil.SevenPoint3D(0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10)
	op := &stencil.Op3D[float64]{St: st3, BC: grid.Clamp}
	init := grid.New3D[float64](nx, ny, nz)
	init.FillFunc(func(x, y, z int) float64 { return 300 + 15*rng.Float64() })
	const iters = 40

	ref, err := NewNone3D(op, init, opts64())
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	for trial := 0; trial < 15; trial++ {
		inj := fault.RandomSingle(rng, iters, nx, ny, nz, 64)
		if inj.Bit < 30 {
			inj.Bit = 30 + rng.Intn(34)
		}
		injector := fault.NewInjector[float64](fault.NewPlan(inj))
		p, err := func() (*Online3D[float64], error) {
			o := opts64()
			o.Pool = &stencil.Pool{Workers: 3}
			t.Cleanup(o.Pool.Close)
			o.Inject = injector
			return NewOnline3D(op, init, o)
		}()
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		if len(injector.Hits()) != 1 {
			t.Fatalf("trial %d: injection %v did not land", trial, inj)
		}
		st := p.Stats()
		if st.Detections == 0 || st.CorrectedPoints == 0 {
			t.Fatalf("trial %d: injection %v not handled (stats %v)", trial, inj, st)
		}
		if d := p.Grid3D().MaxAbsDiff(ref.Grid3D()); d > 1e-6 {
			t.Fatalf("trial %d: residual error %g after 3-D correction of %v", trial, d, inj)
		}
	}
}

func TestOffline3DDetectsAndErases(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nx, ny, nz := 16, 14, 4
	st3 := stencil.SevenPoint3D(0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10)
	op := &stencil.Op3D[float64]{St: st3, BC: grid.Clamp}
	init := grid.New3D[float64](nx, ny, nz)
	init.FillFunc(func(x, y, z int) float64 { return 300 + 15*rng.Float64() })
	const iters = 48

	ref, err := NewNone3D(op, init, opts64())
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	for trial := 0; trial < 10; trial++ {
		inj := fault.RandomSingle(rng, iters, nx, ny, nz, 64)
		if inj.Bit < 30 {
			inj.Bit = 30 + rng.Intn(34)
		}
		p, err := func() (*Offline[float64], error) {
			o := opts64()
			o.Period = 16
			o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
			return NewOffline3D(op, init, o)
		}()
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		p.Finalize()
		st := p.Stats()
		if st.Detections == 0 || st.Rollbacks == 0 {
			t.Fatalf("trial %d: injection %v not handled (stats %v)", trial, inj, st)
		}
		if d := p.Grid3D().MaxAbsDiff(ref.Grid3D()); d != 0 {
			t.Fatalf("trial %d: residual error %g after 3-D rollback of %v", trial, d, inj)
		}
	}
}

// TestOnlineFloat32 runs the paper's element type end to end: float32 state
// with the paper's epsilon of 1e-5.
func TestOnlineFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	nx, ny := 32, 32
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	init := grid.New[float32](nx, ny)
	init.FillFunc(func(x, y int) float32 { return 300 + 10*rng.Float32() })
	const iters = 50

	ref, err := NewNone2D(op, init, Options[float32]{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(iters)

	inj := fault.Injection{Iteration: 20, X: 9, Y: 17, Bit: 30} // high exponent bit
	p, err := NewOnline2D(op, init, Options[float32]{Inject: fault.NewInjector[float32](fault.NewPlan(inj))})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	st := p.Stats()
	if st.Detections == 0 || st.CorrectedPoints == 0 {
		t.Fatalf("float32 injection not handled: %+v", st)
	}
	if d := p.Grid().MaxAbsDiff(ref.Grid()); d > 1e-2 {
		t.Fatalf("float32 residual error %g", d)
	}
}

func TestStatsStringNonEmpty(t *testing.T) {
	s := Stats{Iterations: 3, Verifications: 2}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestNum64Widths(t *testing.T) {
	if num.BitWidth[float32]() != 32 || num.BitWidth[float64]() != 64 {
		t.Fatal("bit widths wrong")
	}
}
