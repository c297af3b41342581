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

// The repair contract: a flip the detector flags is located by
// re-evaluating its row from the intact previous iteration, so the repaired
// run continues bitwise equal to the fault-free one — grids and verified
// checksums. What re-evaluation cannot serve takes the two-vector
// Equation-(10) path, which behaves as it did when every detection took it.

func sameBitsAll[T num.Float](a, b []T) bool {
	for i, v := range a {
		if !num.SameBits(v, b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// siteList is an injection source of hand-built sites by iteration, for the
// tests that plant what a fault.Plan cannot express.
type siteList[T num.Float] map[int][]stencil.Site[T]

func (s siteList[T]) SitesFor(iter int) []stencil.Site[T] { return s[iter] }

// flipEveryBit runs one protected run per bit position with a single flip
// of that bit and hands each run's outcome to check; it fails unless a fair
// share of the positions were detected.
func flipEveryBit[T num.Float](t *testing.T, run func(inj fault.Injection) (detected bool)) {
	t.Helper()
	bits, detected := num.BitWidth[T](), 0
	for bit := 0; bit < bits; bit++ {
		if run(fault.Injection{Iteration: 4 + bit%3, Bit: bit}) {
			detected++
		}
	}
	if detected < bits/3 {
		t.Fatalf("only %d of %d bit positions were detected", detected, bits)
	}
}

func online3DRepairIsBitwise[T num.Float](t *testing.T, bc grid.Boundary, eps T) {
	rng := rand.New(rand.NewSource(62))
	const nx, ny, nz, iters = 13, 11, 5, 10
	op := &stencil.Op3D[T]{St: stencil.SevenPoint3D[T](0.5, 0.08, 0.08, 0.09, 0.09, 0.06, 0.10), BC: bc, BCValue: 290}
	init := grid.New3D[T](nx, ny, nz)
	init.FillFunc(func(x, y, z int) T { return T(300 + 15*rng.Float64()) })
	opt := Options[T]{Detector: checksum.Detector[T]{Epsilon: eps, AbsFloor: 1}}
	clean, err := NewOnline3D(op, init, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean.Run(iters)
	flipEveryBit[T](t, func(inj fault.Injection) bool {
		inj.X, inj.Y, inj.Z = (3*inj.Bit)%nx, (5*inj.Bit)%ny, inj.Bit%nz
		o := opt
		o.Inject = fault.NewInjector[T](fault.NewPlan(inj))
		if inj.Bit%2 == 1 {
			o.Pool = &stencil.Pool{Workers: 3}
			defer o.Pool.Close()
		}
		p, err := NewOnline3D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		st := p.Stats()
		if st.Detections == 0 {
			return false
		}
		if st.Detections != 1 || st.CorrectedPoints != 1 || st.ChecksumRepairs != 0 {
			t.Fatalf("%v: %+v", inj, st)
		}
		if !sameBitsAll(p.Grid3D().Data(), clean.Grid3D().Data()) {
			t.Fatalf("%v: repaired run is not bitwise the fault-free run", inj)
		}
		for z := range p.ch.PrevB {
			if !sameBitsAll(p.ch.PrevB[z], clean.ch.PrevB[z]) {
				t.Fatalf("%v: layer %d checksums differ from the fault-free run's", inj, z)
			}
		}
		if p.ch.interpA != nil {
			t.Fatalf("%v: a located flip took the two-vector path", inj)
		}
		return true
	})
}

// TestOnline3DRepairIsBitwise runs under every boundary condition: the
// injection sites include edge cells of boundary rows and layers, whose
// re-evaluation reads BC-resolved columns or the ghost value.
func TestOnline3DRepairIsBitwise(t *testing.T) {
	bcs := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}
	t.Run("float32", func(t *testing.T) {
		for _, bc := range bcs {
			t.Run(bc.String(), func(t *testing.T) { online3DRepairIsBitwise[float32](t, bc, 1e-5) })
		}
	})
	t.Run("float64", func(t *testing.T) {
		for _, bc := range bcs {
			t.Run(bc.String(), func(t *testing.T) { online3DRepairIsBitwise[float64](t, bc, 1e-9) })
		}
	})
}

// TestOnline3DFallback drives a 3-D detection down the two-vector path (a
// flip in the read buffer) and checks the one thing that path does
// differently from a full pass: it sums prevA only for the layers the
// flagged layers' interpolation reads. The interpolated row checksums it
// built must be those a full set of prevA vectors gives.
func TestOnline3DFallback(t *testing.T) {
	const nx, ny, nz, iters = 12, 10, 6, 9
	st := &stencil.Stencil[float64]{Name: "reach2", Points: []stencil.Point[float64]{
		{W: 0.5}, {DX: -1, W: 0.1}, {DX: 1, W: 0.1}, {DY: -1, W: 0.1}, {DY: 1, W: 0.1}, {DZ: -2, W: 0.05}, {DZ: 1, W: 0.05},
	}}
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		for _, z := range []int{0, 3, nz - 1} {
			rng := rand.New(rand.NewSource(64))
			op := &stencil.Op3D[float64]{St: st, BC: bc, BCValue: 280}
			init := grid.New3D[float64](nx, ny, nz)
			init.FillFunc(func(x, y, z int) float64 { return 300 + 15*rng.Float64() })
			p, err := NewOnline3D(op, init, opts64())
			if err != nil {
				t.Fatal(err)
			}
			p.Run(4)
			g := p.buf.Read
			g.Set(5, 4, z, num.FlipBit(g.At(5, 4, z), 55))
			flaggedBefore := p.Stats().Detections
			p.Step()
			c := p.ch
			if p.Stats().Detections != flaggedBefore+1 || c.interpA == nil {
				t.Fatalf("%s z=%d: the read-buffer flip did not reach the two-vector path: %+v", bc, z, p.Stats())
			}
			// After the swap the write half still holds the step's source.
			src := p.buf.Write
			full := c.ip.NewStack(checksum.VecA, 1)
			for e := range full {
				if l := c.ip.LayerOf(e); l >= 0 {
					stencil.ChecksumA(src.Layer(l), full[e][1:nx+1])
					c.ip.FillHalo(checksum.VecA, full[e])
				}
			}
			want := make([]float64, nx)
			for l := 0; l < nz; l++ {
				if !c.flagged[l] {
					continue
				}
				c.ip.Interpolate(checksum.VecA, l, full, c.edgeWrite, want)
				if !sameBitsAll(c.interpA[l], want) {
					t.Fatalf("%s z=%d: layer %d interpolated from a partial prevA set", bc, z, l)
				}
			}
			// The checksums track the domain afterwards: no further detection.
			p.Run(iters)
			if p.Stats().Detections != flaggedBefore+1 {
				t.Fatalf("%s z=%d: detections after the repair: %+v", bc, z, p.Stats())
			}
		}
	}
}

// TestOnline2DSameRowErrorsRepaired: two flips sharing a row defeat the
// intersection of one mismatching row with two mismatching columns (see
// limitations_test.go), but not the re-evaluation of that row.
func TestOnline2DSameRowErrorsRepaired(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	nx, ny := 24, 20
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	const iters = 30
	o := opts64()
	o.Inject = fault.NewInjector[float64](fault.NewPlan(
		fault.Injection{Iteration: 12, X: 3, Y: 7, Bit: 52},
		fault.Injection{Iteration: 12, X: 15, Y: 7, Bit: 53},
	))
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(iters)
	if st := p.Stats(); st.Detections != 1 || st.CorrectedPoints != 2 {
		t.Fatalf("stats %+v", st)
	}
	if !sameBitsAll(p.Grid().Data(), referenceRun(op, init, iters).Data()) {
		t.Fatal("same-row double error not repaired exactly")
	}
}
