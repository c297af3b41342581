package core

import (
	"math/rand"
	"testing"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// coneOpts configures an offline protector with cone recovery at a short
// period on a domain large enough that the cone stays interior.
func coneOpts(period int) Options[float64] {
	o := opts64()
	o.Period = period
	o.Recovery = ConeRecovery
	return o
}

func TestConeRecoveryRepairsInteriorError(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	nx, ny := 64, 64
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 48
	want := referenceRun(op, init, iters)

	// Interior injection: the cone (radius 1 * period 8, plus padding)
	// stays far from the edge strips.
	inj := fault.Injection{Iteration: 20, X: 32, Y: 30, Bit: 58}
	o := coneOpts(8)
	o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
	p, err := NewOffline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	p.Finalize()
	st := p.Stats()
	if st.Detections != 1 {
		t.Fatalf("detections = %d, want 1 (%+v)", st.Detections, st)
	}
	if st.ConeRecoveries != 1 {
		t.Fatalf("cone recoveries = %d, want 1 (%+v)", st.ConeRecoveries, st)
	}
	if st.Rollbacks != 0 {
		t.Fatalf("full rollback happened despite cone mode (%+v)", st)
	}
	// Cone recomputation must be cheaper than a full segment recompute.
	if full := 8 * nx * ny; st.ConePointsSwept >= full {
		t.Fatalf("cone swept %d points, full recompute is %d", st.ConePointsSwept, full)
	}
	if d := p.Grid().MaxAbsDiff(want); d != 0 {
		t.Fatalf("cone recovery left residual %g", d)
	}
}

func TestConeRecoveryFallsBackNearEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nx, ny := 48, 48
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 32
	want := referenceRun(op, init, iters)

	// Corruption on the domain edge: the cone pollutes the edge strips,
	// so the protector must fall back to a full rollback — and still
	// erase the error exactly.
	inj := fault.Injection{Iteration: 10, X: 0, Y: 5, Bit: 58}
	o := coneOpts(8)
	o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
	p, err := NewOffline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	p.Finalize()
	st := p.Stats()
	if st.Detections == 0 || st.Rollbacks == 0 {
		t.Fatalf("edge error not handled by fallback (%+v)", st)
	}
	if st.ConeRecoveries != 0 {
		t.Fatalf("cone recovery claimed an edge error (%+v)", st)
	}
	if d := p.Grid().MaxAbsDiff(want); d != 0 {
		t.Fatalf("fallback left residual %g", d)
	}
}

func TestConeRecoveryRandomCampaign(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	nx, ny := 56, 56
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 64
	want := referenceRun(op, init, iters)

	for trial := 0; trial < 20; trial++ {
		inj := fault.RandomSingle(rng, iters, nx, ny, 1, 64)
		if inj.Bit < 40 {
			inj.Bit = 40 + rng.Intn(24)
		}
		o := coneOpts(8)
		o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
		p, err := NewOffline2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		p.Finalize()
		st := p.Stats()
		if st.Detections == 0 {
			t.Fatalf("trial %d: %v not detected (%+v)", trial, inj, st)
		}
		if st.ConeRecoveries+st.Rollbacks == 0 {
			t.Fatalf("trial %d: no recovery action (%+v)", trial, st)
		}
		// Whether by cone or rollback, recovery must be exact.
		if d := p.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: residual %g after %v (%+v)", trial, d, inj, st)
		}
	}
}

func TestConeRegionsShrink(t *testing.T) {
	final := box{x0: 10, y0: 10, x1: 12, y1: 12, z1: 1}
	regions := coneRegions(final, 4, 1, 100, 100, 1)
	if len(regions) != 4 {
		t.Fatalf("region count %d", len(regions))
	}
	if regions[3] != final {
		t.Fatalf("last region %+v != final %+v", regions[3], final)
	}
	for s := 1; s < len(regions); s++ {
		prev, cur := regions[s-1], regions[s]
		if cur.x0 < prev.x0 || cur.x1 > prev.x1 || cur.y0 < prev.y0 || cur.y1 > prev.y1 {
			t.Fatalf("region %d grew: %+v -> %+v", s, prev, cur)
		}
	}
	// Each step must guarantee reads within the previous region.
	for s := 1; s < len(regions); s++ {
		grown := regions[s].expand(1, 100, 100, 1)
		prev := regions[s-1]
		if grown.x0 < prev.x0 || grown.x1 > prev.x1 || grown.y0 < prev.y0 || grown.y1 > prev.y1 {
			t.Fatalf("step %d reads outside its source region", s)
		}
	}
}

func TestConeWindowSweepMatchesGlobal(t *testing.T) {
	// Recomputing a window region must reproduce the global sweep's
	// values exactly inside the final region.
	rng := rand.New(rand.NewSource(23))
	nx, ny := 32, 32
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	src := grid.New[float64](nx, ny)
	src.FillFunc(func(x, y int) float64 { return rng.Float64() * 100 })

	const steps = 5
	final := box{x0: 14, y0: 15, x1: 17, y1: 18, z1: 1}
	window := final.expand(steps, nx, ny, 1)
	w := newConeWindow[float64](window, grid.Clamp, 0, nx, ny, 1)
	w.load(grid.Stack(src))
	for _, region := range coneRegions(final, steps, 1, nx, ny, 1) {
		w.sweepRegion(op.Stack(), region)
	}

	// Global reference: full sweeps.
	buf := grid.BufferFrom(src)
	for s := 0; s < steps; s++ {
		op.Sweep(buf.Write, buf.Read)
		buf.Swap()
	}
	repaired := grid.New[float64](nx, ny)
	repaired.CopyFrom(buf.Read)
	w.store(grid.Stack(repaired), final)
	if d := repaired.MaxAbsDiff(buf.Read); d != 0 {
		t.Fatalf("cone window diverged from global sweep by %g", d)
	}
}

// The 3-D twins: the same cone code over boxes, on the paper's star7 shape
// under every boundary condition.

// coneOp3D is offline_more_test.go's HotSpot-like star7 under bc.
func coneOp3D(bc grid.Boundary) *stencil.Op3D[float64] {
	op := hotspotLikeOp3D()
	op.BC, op.BCValue = bc, 250
	return op
}

// coneRun3D runs the offline protector with cone recovery and Δ = 8 on a
// pool of 2 for iters sweeps with inj injected, and returns it finalized.
func coneRun3D(t *testing.T, op *stencil.Op3D[float64], init *grid.Grid3D[float64], iters int, inj fault.Injection) *Offline[float64] {
	t.Helper()
	o := coneOpts(8)
	o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
	o.Pool = &stencil.Pool{Workers: 2}
	t.Cleanup(o.Pool.Close)
	p, err := NewOffline3D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	p.Finalize()
	return p
}

// referenceRun3D is referenceRun's 3-D twin.
func referenceRun3D(op *stencil.Op3D[float64], init *grid.Grid3D[float64], iters int) *grid.Grid3D[float64] {
	p, err := NewNone3D(op, init, opts64())
	if err != nil {
		panic(err)
	}
	p.Run(iters)
	return p.Grid3D()
}

func TestCone3DRepairsInteriorError(t *testing.T) {
	nx, ny, nz := 40, 40, 8
	init := init3D(nx, ny, nz)
	const iters = 48
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		op := coneOp3D(bc)
		want := referenceRun3D(op, init, iters)
		// Interior in x and y; the cone spans every layer, both z ends
		// included, which even Periodic resolves inside the window.
		p := coneRun3D(t, op, init, iters, fault.Injection{Iteration: 20, X: 20, Y: 19, Z: 4, Bit: 58})
		st := p.Stats()
		if st.Detections != 1 || st.ConeRecoveries != 1 || st.Rollbacks != 0 {
			t.Fatalf("bc=%s: want one detection repaired by the cone (%+v)", bc, st)
		}
		if full := 8 * nx * ny * nz; st.ConePointsSwept >= full {
			t.Fatalf("bc=%s: cone swept %d points, full recompute is %d", bc, st.ConePointsSwept, full)
		}
		if d := p.Grid3D().MaxAbsDiff(want); d != 0 {
			t.Fatalf("bc=%s: cone recovery left residual %g", bc, d)
		}
	}
}

func TestCone3DFallsBackNearEdges(t *testing.T) {
	const iters = 32
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		// A flip on an x edge pollutes the edge strips of its layers. A flip
		// near a z end of a deep stack, one sweep before the check, makes a
		// window that reaches that z end only, which only Periodic cannot
		// resolve inside it.
		for _, c := range []struct {
			nz   int
			inj  fault.Injection
			cone bool
		}{
			{8, fault.Injection{Iteration: 10, X: 0, Y: 15, Z: 3, Bit: 58}, false},
			{24, fault.Injection{Iteration: 15, X: 20, Y: 20, Z: 3, Bit: 58}, bc != grid.Periodic},
		} {
			op, init := coneOp3D(bc), init3D(40, 40, c.nz)
			want := referenceRun3D(op, init, iters)
			p := coneRun3D(t, op, init, iters, c.inj)
			st := p.Stats()
			if st.Detections == 0 || (st.ConeRecoveries == 1) != c.cone || (st.Rollbacks == 0) != c.cone {
				t.Fatalf("bc=%s %v: cone recovery %v expected (%+v)", bc, c.inj, c.cone, st)
			}
			if d := p.Grid3D().MaxAbsDiff(want); d != 0 {
				t.Fatalf("bc=%s %v: residual %g", bc, c.inj, d)
			}
		}
	}
}

func TestCone3DRandomCampaign(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	nx, ny, nz := 36, 32, 6
	init := init3D(nx, ny, nz)
	const iters = 40
	cones := 0
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		op := coneOp3D(bc)
		want := referenceRun3D(op, init, iters)
		for trial := 0; trial < 6; trial++ {
			inj := fault.RandomSingle(rng, iters, nx, ny, nz, 64)
			if inj.Bit < 40 {
				inj.Bit = 40 + rng.Intn(24)
			}
			p := coneRun3D(t, op, init, iters, inj)
			st := p.Stats()
			if st.Detections == 0 || st.ConeRecoveries+st.Rollbacks == 0 {
				t.Fatalf("bc=%s trial %d: %v not recovered (%+v)", bc, trial, inj, st)
			}
			// Whether by cone or rollback, recovery must be exact.
			if d := p.Grid3D().MaxAbsDiff(want); d != 0 {
				t.Fatalf("bc=%s trial %d: residual %g after %v (%+v)", bc, trial, d, inj, st)
			}
			cones += st.ConeRecoveries
		}
	}
	if cones == 0 {
		t.Fatal("no trial was repaired by the cone")
	}
}
