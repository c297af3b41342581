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
	p, err := NewOffline2D(op, init, coneOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	injector := fault.NewInjector[float64](fault.NewPlan(inj))
	for i := 0; i < iters; i++ {
		p.StepInject(injector.SitesFor(i))
	}
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
	p, err := NewOffline2D(op, init, coneOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	injector := fault.NewInjector[float64](fault.NewPlan(inj))
	for i := 0; i < iters; i++ {
		p.StepInject(injector.SitesFor(i))
	}
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
		p, err := NewOffline2D(op, init, coneOpts(8))
		if err != nil {
			t.Fatal(err)
		}
		injector := fault.NewInjector[float64](fault.NewPlan(inj))
		for i := 0; i < iters; i++ {
			p.StepInject(injector.SitesFor(i))
		}
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
	final := rect{x0: 10, y0: 10, x1: 12, y1: 12}
	regions := coneRegions(final, 4, 1, 100, 100)
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
		grown := regions[s].expand(1, 100, 100)
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
	final := rect{x0: 14, y0: 15, x1: 17, y1: 18}
	window := final.expand(steps, nx, ny)
	w := newConeWindow[float64](window, grid.Clamp, 0, nx, ny)
	w.load(src)
	for _, region := range coneRegions(final, steps, 1, nx, ny) {
		w.sweepRegion(op, region)
	}

	// Global reference: full sweeps.
	buf := grid.BufferFrom(src)
	for s := 0; s < steps; s++ {
		op.Sweep(buf.Write, buf.Read)
		buf.Swap()
	}
	repaired := grid.New[float64](nx, ny)
	repaired.CopyFrom(buf.Read)
	w.store(repaired, final)
	if d := repaired.MaxAbsDiff(buf.Read); d != 0 {
		t.Fatalf("cone window diverged from global sweep by %g", d)
	}
}
