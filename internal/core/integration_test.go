package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"stencilabft/internal/checkpoint"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/stencil"
)

// TestOfflineAcrossBoundaryConditions runs the offline protector (whose
// interpolation chain is the most boundary-sensitive code path) under every
// boundary condition, error-free and with one injected flip.
func TestOfflineAcrossBoundaryConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	nx, ny := 20, 18
	const iters = 32
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.18), BC: bc, BCValue: 250}
		init := testInit(rng, nx, ny)
		want := referenceRun(op, init, iters)

		o := opts64()
		o.Period = 8
		p, err := NewOffline2D(op, init, o)
		if err != nil {
			t.Fatalf("bc=%s: %v", bc, err)
		}
		p.Run(iters)
		p.Finalize()
		if st := p.Stats(); st.Detections != 0 {
			t.Fatalf("bc=%s: false positives %+v", bc, st)
		}
		if d := p.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("bc=%s: error-free offline diverged by %g", bc, d)
		}

		// With one exponent flip: detected, erased.
		inj := fault.Injection{Iteration: 11, X: 7, Y: 9, Bit: 58}
		o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
		p2, err := NewOffline2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		p2.Run(iters)
		p2.Finalize()
		if st := p2.Stats(); st.Detections == 0 || st.Rollbacks == 0 {
			t.Fatalf("bc=%s: injected flip not recovered: %+v", bc, st)
		}
		if d := p2.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("bc=%s: rollback residual %g", bc, d)
		}
	}
}

// TestOnlineAcrossBoundaryConditions mirrors the matrix for the online
// protector with an asymmetric stencil — every BC exercises a different
// alpha/beta code path.
func TestOnlineAcrossBoundaryConditions(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nx, ny := 22, 16
	const iters = 28
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		op := &stencil.Op2D[float64]{St: stencil.Advect2D(0.25, 0.1), BC: bc, BCValue: 100}
		init := testInit(rng, nx, ny)
		want := referenceRun(op, init, iters)

		p, err := NewOnline2D(op, init, opts64())
		if err != nil {
			t.Fatalf("bc=%s: %v", bc, err)
		}
		p.Run(iters)
		if st := p.Stats(); st.Detections != 0 {
			t.Fatalf("bc=%s: false positives %+v", bc, st)
		}
		if d := p.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("bc=%s: online diverged by %g", bc, d)
		}

		inj := fault.Injection{Iteration: 13, X: 11, Y: 5, Bit: 59}
		o := opts64()
		o.Inject = fault.NewInjector[float64](fault.NewPlan(inj))
		p2, err := NewOnline2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		p2.Run(iters)
		if st := p2.Stats(); st.CorrectedPoints == 0 {
			t.Fatalf("bc=%s: flip not corrected: %+v", bc, st)
		}
		if d := p2.Grid().MaxAbsDiff(want); d > 1e-6 {
			t.Fatalf("bc=%s: correction residual %g", bc, d)
		}
	}
}

// TestCheckpointFileRestart exercises the on-disk checkpoint as a restart
// mechanism: run, persist, reload into a fresh protector, continue — the
// resumed run must match an uninterrupted one bitwise.
func TestCheckpointFileRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const first, second = 20, 25

	continuous, err := NewNone2D(op, init, opts64())
	if err != nil {
		t.Fatal(err)
	}
	continuous.Run(first + second)

	// Phase 1: run and persist.
	p1, err := NewOnline2D(op, init, opts64())
	if err != nil {
		t.Fatal(err)
	}
	p1.Run(first)
	path := filepath.Join(t.TempDir(), "restart.ckpt")
	b := make([]float64, ny)
	stencil.ChecksumB(p1.Grid(), b)
	if err := checkpoint.WriteFile(path, p1.Iter(), p1.Grid(), b); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reload (as a fresh process would) and continue.
	g, b2, iter, err := checkpoint.ReadFile[float64](path)
	if err != nil {
		t.Fatal(err)
	}
	if iter != first || len(b2) != ny {
		t.Fatalf("checkpoint metadata: iter=%d len=%d", iter, len(b2))
	}
	p2, err := NewOnline2D(op, g, opts64())
	if err != nil {
		t.Fatal(err)
	}
	p2.Run(second)
	if d := p2.Grid().MaxAbsDiff(continuous.Grid()); d != 0 {
		t.Fatalf("restarted run diverged from continuous by %g", d)
	}
}

// TestBlockedEquivalentToOnlineWholeDomain: in an error-free run, the
// per-chunk protector and the whole-domain online protector compute
// identical states for random block geometries.
func TestProtectorsAgreeOnCleanRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 10; trial++ {
		nx := 16 + rng.Intn(24)
		ny := 16 + rng.Intn(24)
		op := testOp(nx, ny)
		init := testInit(rng, nx, ny)
		iters := 10 + rng.Intn(20)

		want := referenceRun(op, init, iters)
		online, err := NewOnline2D(op, init, opts64())
		if err != nil {
			t.Fatal(err)
		}
		online.Run(iters)
		o := opts64()
		o.Period = 1 + rng.Intn(8)
		offline, err := NewOffline2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		offline.Run(iters)
		offline.Finalize()

		if d := online.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: online drifted %g", trial, d)
		}
		if d := offline.Grid().MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: offline drifted %g", trial, d)
		}
	}
}
