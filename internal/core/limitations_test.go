package core

import (
	"math/rand"
	"testing"

	"stencilabft/internal/fault"
	"stencilabft/internal/num"
)

// The paper's localisation intersects one mismatching row with one
// mismatching column, so multiple simultaneous errors sharing a row (or a
// column) are only partially locatable — an inherent property of the
// two-vector scheme, not an implementation defect. Re-evaluating the flagged
// row has no such limit (TestOnline2DSameRowErrorsRepaired), so the corner
// is reached through PaperExactCorrection, which asks for the paper's
// algebra and gets all of it; checksum's RepairRect tests pin the pairing
// itself. These tests pin the library's behaviour in that corner: detection
// always fires, the run never crashes or corrupts further, and the final
// error stays bounded by the injected magnitudes (no amplification).

func TestOnline2DTwoErrorsSameRowIsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 30
	want := referenceRun(op, init, iters)

	// Two flips in the same iteration and the same ROW y=7: the column
	// checksum flags one row, the row checksum flags two columns.
	plan := fault.NewPlan(
		fault.Injection{Iteration: 12, X: 3, Y: 7, Bit: 52},
		fault.Injection{Iteration: 12, X: 15, Y: 7, Bit: 53},
	)
	o := opts64()
	o.PaperExactCorrection = true
	o.Inject = fault.NewInjector[float64](plan)
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	st := p.Stats()
	if st.Detections == 0 {
		t.Fatalf("same-row double error not detected at all: %+v", st)
	}
	if st.CorrectedPoints != 1 {
		t.Fatalf("one row against two columns locates one point, corrected %d: %+v", st.CorrectedPoints, st)
	}
	// Bit 52 flips the lowest exponent bit: the corrupted values change
	// by a factor of ~2, i.e. |delta| is on the order of the state
	// magnitude (~300). The partially corrected run must not amplify
	// beyond that order.
	d := p.Grid().MaxAbsDiff(want)
	if !num.IsFinite(d) || d > 1e4 {
		t.Fatalf("same-row double error amplified to %g", d)
	}
	// And the run must remain internally consistent: further error-free
	// iterations raise no new detections (checksums track the domain).
	before := p.Stats().Detections
	p.Run(10)
	if p.Stats().Detections != before {
		t.Fatalf("post-hoc detections after partial correction: %+v", p.Stats())
	}
}

func TestOffline2DTwoErrorsSameRowStillErased(t *testing.T) {
	// The offline method does not rely on localisation at all — rollback
	// recovery erases same-row double errors exactly.
	rng := rand.New(rand.NewSource(51))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 32
	want := referenceRun(op, init, iters)

	plan := fault.NewPlan(
		fault.Injection{Iteration: 9, X: 3, Y: 7, Bit: 58},
		fault.Injection{Iteration: 9, X: 15, Y: 7, Bit: 57},
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
	if st.Detections == 0 || st.Rollbacks == 0 {
		t.Fatalf("same-row double error not recovered: %+v", st)
	}
	if d := p.Grid().MaxAbsDiff(want); d != 0 {
		t.Fatalf("rollback left residual %g", d)
	}
}

// TestOnline2DCancellingErrorsEscape pins Theorem 2's caveat: two errors
// engineered to cancel in both checksums are undetectable by construction.
func TestOnline2DCancellingErrorsEscape(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	nx, ny := 16, 16
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)

	// +delta and -delta at the same row AND... cancellation in both
	// vectors needs the errors to cancel per-row and per-column, which
	// two errors can only do in the same cell; use the same-row case
	// where the column checksum cancels and only the row checksum can
	// see them.
	const delta = 50.0
	o := opts64()
	o.Inject = siteList[float64]{0: {
		{X: 3, Y: 5, Mutate: func(v float64) float64 { return v + delta }},
		{X: 9, Y: 5, Mutate: func(v float64) float64 { return v - delta }},
	}}
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	// The fused column checksum of row 5 is unchanged (+delta-delta), so
	// the cheap per-iteration detector cannot fire — by design, only the
	// lazily computed row checksum could see this pattern, and it is
	// only consulted after a column-checksum hit (paper Theorem 2:
	// "...nor SDCs that cancel each other out").
	if p.Stats().Detections != 0 {
		t.Fatalf("cancelling pair unexpectedly detected: %+v", p.Stats())
	}
}
