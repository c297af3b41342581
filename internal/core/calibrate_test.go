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

func TestCalibrateEpsilonFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	nx, ny := 64, 64
	opF := testOpF32(nx, ny)
	init := testInitF32(rng, nx, ny)

	cal, err := CalibrateEpsilon(opF, init, 32)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Iterations != 32 {
		t.Fatalf("iterations %d", cal.Iterations)
	}
	if cal.MaxRelErr <= 0 {
		t.Fatal("float32 noise floor should be positive")
	}
	// The paper's threshold must comfortably clear the measured floor at
	// this tile size.
	if cal.SuggestedEpsilon > 1e-5 {
		t.Fatalf("suggested epsilon %g exceeds the paper's 1e-5 at 64x64", cal.SuggestedEpsilon)
	}
	if cal.SuggestedEpsilon < cal.MaxRelErr {
		t.Fatal("suggestion below the observed floor")
	}

	// Acid test: a protector configured with the suggestion raises no
	// false positives and still catches a real corruption.
	inj := fault.Injection{Iteration: 32 + 2, X: 20, Y: 30, Bit: 30}
	p, err := NewOnline2D(opF, init, Options[float32]{
		Detector: checksum.Detector[float32]{Epsilon: cal.SuggestedEpsilon, AbsFloor: 1},
		Inject:   fault.NewInjector[float32](fault.NewPlan(inj)),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(32)
	if p.Stats().Detections != 0 {
		t.Fatalf("false positives at suggested epsilon: %+v", p.Stats())
	}
	p.Run(8)
	if p.Stats().Detections == 0 {
		t.Fatalf("suggested epsilon too loose to catch an exponent flip: %+v", p.Stats())
	}
}

func TestCalibrateFloat64FloorBelowFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nx, ny := 48, 48

	op64 := testOp(nx, ny)
	init64 := testInit(rng, nx, ny)
	cal64, err := CalibrateEpsilon(op64, init64, 16)
	if err != nil {
		t.Fatal(err)
	}

	opF := testOpF32(nx, ny)
	initF := testInitF32(rng, nx, ny)
	calF, err := CalibrateEpsilon(opF, initF, 16)
	if err != nil {
		t.Fatal(err)
	}
	if float64(cal64.MaxRelErr) >= float64(calF.MaxRelErr) {
		t.Fatalf("float64 floor %g not below float32 floor %g", cal64.MaxRelErr, calF.MaxRelErr)
	}
}

// testOpF32/testInitF32 mirror the float64 helpers for the paper's element
// type.
func testOpF32(nx, ny int) *stencil.Op2D[float32] {
	op64 := testOp(nx, ny)
	c32 := grid.New[float32](nx, ny)
	c32.FillFunc(func(x, y int) float32 { return float32(op64.C.At(x, y)) })
	return &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: op64.BC, C: c32}
}

func testInitF32(rng *rand.Rand, nx, ny int) *grid.Grid[float32] {
	g := grid.New[float32](nx, ny)
	g.FillFunc(func(x, y int) float32 { return 300 + 10*rng.Float32() })
	return g
}

var _ = num.BitWidth[float32]
