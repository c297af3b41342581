package core

import (
	"math/rand"
	"testing"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

func hotspotLikeOp3D() *stencil.Op3D[float64] {
	st := stencil.SevenPoint3D(0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10)
	return &stencil.Op3D[float64]{St: st, BC: grid.Clamp}
}

func init3D(nx, ny, nz int) *grid.Grid3D[float64] {
	g := grid.New3D[float64](nx, ny, nz)
	g.FillFunc(func(x, y, z int) float64 { return 300 + float64(x+2*y+3*z) })
	return g
}

// TestOffline2DTwoFaultsInDistinctPeriods: each period's corruption is
// rolled back independently; the final state is exact.
func TestOffline2DTwoFaultsInDistinctPeriods(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 48
	want := referenceRun(op, init, iters)

	plan := fault.NewPlan(
		fault.Injection{Iteration: 5, X: 3, Y: 4, Bit: 58},
		fault.Injection{Iteration: 37, X: 17, Y: 12, Bit: 59},
	)
	o := opts64()
	o.Period = 16
	o.Inject = fault.NewInjector[float64](plan)
	p, err := NewOffline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	p.Finalize()
	st := p.Stats()
	if st.Detections != 2 || st.Rollbacks != 2 {
		t.Fatalf("expected 2 independent recoveries, got %+v", st)
	}
	if st.RecomputedIters != 32 {
		t.Fatalf("recomputed %d iterations, want 2 full periods (32)", st.RecomputedIters)
	}
	if d := p.Grid().MaxAbsDiff(want); d != 0 {
		t.Fatalf("residual %g", d)
	}
}

// TestOffline2DFaultInFinalPartialPeriod: an error after the last periodic
// check is caught by Finalize.
func TestOffline2DFaultInFinalPartialPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 40 // periods of 16: final partial window is 8 iterations
	want := referenceRun(op, init, iters)

	plan := fault.NewPlan(fault.Injection{Iteration: 36, X: 9, Y: 9, Bit: 58})
	o := opts64()
	o.Period = 16
	o.Inject = fault.NewInjector[float64](plan)
	p, err := NewOffline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	if p.Stats().Detections != 0 {
		t.Fatalf("error detected before Finalize: %+v", p.Stats())
	}
	p.Finalize()
	st := p.Stats()
	if st.Detections != 1 || st.Rollbacks != 1 {
		t.Fatalf("Finalize did not recover: %+v", st)
	}
	if d := p.Grid().MaxAbsDiff(want); d != 0 {
		t.Fatalf("residual %g", d)
	}
}

// TestOffline2DPeriodOne degenerates to per-iteration verification.
func TestOffline2DPeriodOne(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	nx, ny := 16, 16
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 10

	o := opts64()
	o.Period = 1
	p, err := NewOffline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	p.Finalize()
	st := p.Stats()
	if st.Verifications != iters {
		t.Fatalf("verifications %d, want %d", st.Verifications, iters)
	}
	if st.Checkpoint.Saves != iters+1 {
		t.Fatalf("saves %d, want %d", st.Checkpoint.Saves, iters+1)
	}
}

// TestOnline2DSignBitFlip covers the sign-bit case of Figure 10 (bit 31
// for float32, 63 for float64): always detected, accurately corrected.
func TestOnline2DSignBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	nx, ny := 20, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 30
	want := referenceRun(op, init, iters)

	plan := fault.NewPlan(fault.Injection{Iteration: 11, X: 4, Y: 15, Bit: 63})
	o := opts64()
	o.Inject = fault.NewInjector[float64](plan)
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	st := p.Stats()
	if st.Detections != 1 || st.CorrectedPoints != 1 {
		t.Fatalf("sign flip not handled: %+v", st)
	}
	if d := p.Grid().MaxAbsDiff(want); d > 1e-9 {
		t.Fatalf("residual %g", d)
	}
}

// protector is the contract the root package's Protector states, which all
// six runners satisfy (the compile-time checks are build.go's).
type protector interface {
	Run(count int)
	Finalize()
	Iter() int
	Stats() Stats
	Grid() *grid.Grid[float64]
	Grid3D() *grid.Grid3D[float64]
}

// TestProtectorContract runs the lifecycle every runner shares — Run, Iter,
// Finalize — over the six constructors: Finalize after a clean run changes
// nothing (a no-op for none/online, a clean partial-period check offline).
func TestProtectorContract(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	op, init := testOp(8, 8), testInit(rng, 8, 8)
	op3, init3 := hotspotLikeOp3D(), init3D(16, 14, 4)
	build := map[string]func() (protector, error){
		"none2d":    func() (protector, error) { return NewNone2D(op, init, opts64()) },
		"online2d":  func() (protector, error) { return NewOnline2D(op, init, opts64()) },
		"offline2d": func() (protector, error) { return NewOffline2D(op, init, opts64()) },
		"none3d":    func() (protector, error) { return NewNone3D(op3, init3, opts64()) },
		"online3d":  func() (protector, error) { return NewOnline3D(op3, init3, opts64()) },
		"offline3d": func() (protector, error) { return NewOffline3D(op3, init3, opts64()) },
	}
	for name, b := range build {
		p, err := b()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p.Run(3)
		p.Finalize()
		if p.Iter() != 3 || p.Stats().Detections != 0 {
			t.Fatalf("%s: iter %d after Run(3) and Finalize, stats %+v", name, p.Iter(), p.Stats())
		}
		if (p.Grid() == nil) == (p.Grid3D() == nil) {
			t.Fatalf("%s: exactly one of Grid and Grid3D answers", name)
		}
	}
}

// TestStep3DAllocFree pins the steady-state step of the three 3-D runners at
// zero heap allocations, sequentially and on a pool of 2: no per-step
// closures, no escaping WaitGroup, no per-row scratch. The offline protector
// is measured between verifications (its checkpoint save may allocate).
func TestStep3DAllocFree(t *testing.T) {
	op, init := hotspotLikeOp3D(), init3D(12, 10, 6)
	for _, workers := range []int{0, 2} {
		o := opts64()
		o.Period = 64 // more than the steps taken below: no verification is measured
		if workers > 0 {
			o.Pool = &stencil.Pool{Workers: workers}
			defer o.Pool.Close()
		}
		none, err := NewNone3D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		online, err := NewOnline3D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := NewOffline3D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		for name, step := range map[string]func(){"none": none.Step, "online": online.Step, "offline": offline.Step} {
			step() // first step builds the sweep plan
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Errorf("%s, %d workers: %v allocations a step", name, workers, n)
			}
		}
	}
}
