package hotspot

import (
	"testing"

	"stencilabft/internal/core"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

func testConfig() Config { return Config{Nx: 16, Ny: 16, Nz: 4} }

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel[float32](Config{Nx: 1, Ny: 16, Nz: 4}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
	if _, err := NewModel[float32](testConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestStencilIsStableContraction(t *testing.T) {
	m, err := NewModel[float64](testConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stencil()
	if len(st.Points) != 7 {
		t.Fatalf("stencil size %d", len(st.Points))
	}
	var ws float64
	for _, p := range st.Points {
		if p.W <= 0 {
			t.Fatalf("non-positive weight %+v (unstable time step)", p)
		}
		ws += p.W
	}
	// Weight sum strictly below 1: the iteration contracts toward the
	// ambient-coupled equilibrium.
	if ws >= 1 || ws < 0.5 {
		t.Fatalf("weight sum %g out of the stable band", ws)
	}
}

func TestSyntheticPowerProperties(t *testing.T) {
	cfg := testConfig()
	p := SyntheticPower[float64](cfg, 1)
	var maxV, minV float64
	minV = p.At(0, 0, 0)
	for _, v := range p.Data() {
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	if minV < 0 {
		t.Fatalf("negative power density %g", minV)
	}
	if maxV > 2*maxPD {
		t.Fatalf("power density %g beyond physical bound", maxV)
	}
	if maxV < maxPD*0.2 {
		t.Fatalf("no hot spots generated (max %g)", maxV)
	}
	// Determinism.
	q := SyntheticPower[float64](cfg, 1)
	if p.MaxAbsDiff(q) != 0 {
		t.Fatal("same seed produced different power maps")
	}
	r := SyntheticPower[float64](cfg, 2)
	if p.MaxAbsDiff(r) == 0 {
		t.Fatal("different seeds produced identical power maps")
	}
}

func TestSyntheticTemperatureRange(t *testing.T) {
	cfg := testConfig()
	temp := SyntheticTemperature[float64](cfg, 3)
	for _, v := range temp.Data() {
		if v < tAmb || v > tAmb+60 {
			t.Fatalf("initial temperature %g outside plausible range", v)
		}
	}
}

// TestThermalEquilibrium runs the model to near-steady-state and checks the
// physics: temperatures stay above ambient (the die only generates heat),
// remain bounded, and the hottest cell sits inside a power block's column.
func TestThermalEquilibrium(t *testing.T) {
	cfg := testConfig()
	m, err := NewModel[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	power := SyntheticPower[float64](cfg, 5)
	op := m.Op(power)
	init := grid.New3D[float64](cfg.Nx, cfg.Ny, cfg.Nz)
	init.Fill(tAmb)

	p, err := core.NewNone3D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(3000)
	g := p.Grid3D()

	var hottest float64
	for _, v := range g.Data() {
		if !num.IsFinite(v) {
			t.Fatal("temperature diverged")
		}
		if v < tAmb-1e-6 {
			t.Fatalf("temperature %g below ambient with pure heat sources", v)
		}
		if v > 400 {
			t.Fatalf("temperature %g implausibly high", v)
		}
		if v > hottest {
			hottest = v
		}
	}
	if hottest < tAmb+0.5 {
		t.Fatalf("die did not heat up (max %g)", hottest)
	}
}

// TestConvergesToSteadyState checks that successive iterates approach a
// fixed point (the contraction property the stencil weights guarantee).
func TestConvergesToSteadyState(t *testing.T) {
	cfg := testConfig()
	m, err := NewModel[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	power := SyntheticPower[float64](cfg, 6)
	op := m.Op(power)
	init := SyntheticTemperature[float64](cfg, 7)

	p, err := core.NewNone3D(op, init, core.Options[float64]{})
	if err != nil {
		t.Fatal(err)
	}
	p.Run(500)
	before := p.Grid3D().Clone()
	p.Run(1)
	step500 := p.Grid3D().MaxAbsDiff(before)

	p.Run(1500)
	before = p.Grid3D().Clone()
	p.Run(1)
	step2000 := p.Grid3D().MaxAbsDiff(before)
	if step2000 >= step500 {
		t.Fatalf("per-step change not shrinking: %g then %g", step500, step2000)
	}
}

func TestConstFieldIncludesAmbientCoupling(t *testing.T) {
	cfg := testConfig()
	m, err := NewModel[float64](cfg)
	if err != nil {
		t.Fatal(err)
	}
	zeroPower := grid.New3D[float64](cfg.Nx, cfg.Ny, cfg.Nz)
	c := m.ConstField(zeroPower)
	// With zero power the constant term is exactly the ambient coupling,
	// uniform and positive.
	v0 := c.At(0, 0, 0)
	if v0 <= 0 {
		t.Fatalf("ambient coupling term %g", v0)
	}
	for _, v := range c.Data() {
		if v != v0 {
			t.Fatal("zero-power constant field not uniform")
		}
	}
}

func TestDTPositiveAndScaled(t *testing.T) {
	m1, _ := NewModel[float32](testConfig())
	cfg := testConfig()
	cfg.DTFactor = 0.5
	m2, _ := NewModel[float32](cfg)
	if m1.DT() <= 0 {
		t.Fatal("dt not positive")
	}
	if m2.DT() >= m1.DT() {
		t.Fatal("DTFactor did not scale dt")
	}
}

func TestAmbient(t *testing.T) {
	if Ambient() != tAmb {
		t.Fatal("Ambient() mismatch")
	}
}
