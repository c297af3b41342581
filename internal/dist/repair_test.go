package dist

import (
	"fmt"
	"sync/atomic"
	"testing"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// The repair contract on the distributed deployments: a flip the detector
// flags is located by re-evaluating its row of the owner's tile from the
// read buffer, whose halos still hold iteration t, so the cluster ends
// bit-identical to the fault-free run.
//
// The verified checksums are pinned as tightly: every entry is its row of
// the (bit-identical) grid summed left to right, the way the fused sweep
// sums it; checkRowChecksums holds every rank to that after every step,
// clean or repaired.

func checkRowChecksums(r *rank[float64]) error {
	for y := r.loY(); y < r.hiY(); y++ {
		if got, want := r.ch.PrevB[0][y], num.Sum(r.buf.Read.Row(y)[r.loX():r.hiX()]); !num.SameBits(got, want) {
			return fmt.Errorf("rank %d row %d: verified checksum %v, the row sums to %v", r.id, y, got, want)
		}
	}
	return nil
}

func sameGridBits(t *testing.T, what string, got, want *grid.Grid[float64]) {
	t.Helper()
	for i, v := range got.Data() {
		if w := want.Data()[i]; !num.SameBits(v, w) {
			x, y := got.Coords(i)
			t.Fatalf("%s: (%d,%d) is %v, the fault-free run has %v", what, x, y, v, w)
		}
	}
}

func TestClusterGridRepairIsBitwise(t *testing.T) {
	const nx, ny, iters = 22, 20, 9
	box := stencil.NinePoint([9]float64{0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05})
	for _, depth := range []int{1, 2} {
		for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic} {
			t.Run(fmt.Sprintf("depth%d/%s", depth, bc), func(t *testing.T) {
				op := &stencil.Op2D[float64]{St: box, BC: bc}
				init := testInit(nx, ny)
				want := reference(t, op, init, iters)
				detected := 0
				for bit := 0; bit < 64; bit++ {
					// Cells walk over tile interiors, the strips next to a
					// neighbour and the domain border.
					inj := fault.Injection{Iteration: 2 + bit%5, X: (5 * bit) % nx, Y: (7 * bit) % ny, Bit: bit}
					opt := strictOpts()
					opt.HaloDepth = depth
					opt.Inject = fault.NewPlan(inj)
					var c *Cluster[float64]
					var broken atomic.Pointer[error]
					opt.AfterStep = func(id, _ int) {
						if err := checkRowChecksums(c.rankByID(id).(*rank[float64])); err != nil {
							broken.CompareAndSwap(nil, &err)
						}
					}
					c, err := NewClusterGrid(op, init, 2, 2, opt)
					if err != nil {
						t.Fatal(err)
					}
					c.Run(iters)
					st, got := c.Stats(), c.Gather()
					c.Close()
					if err := broken.Load(); err != nil {
						t.Fatalf("%v: %v", inj, *err)
					}
					if st.Detections == 0 {
						continue
					}
					detected++
					if st.Detections != 1 || st.CorrectedPoints != 1 || st.ChecksumRepairs != 0 {
						t.Fatalf("%v: %+v", inj, st)
					}
					sameGridBits(t, inj.String(), got, want)
				}
				if detected < 20 {
					t.Fatalf("only %d of 64 bit positions were detected", detected)
				}
			})
		}
	}
}

// TestClusterGridFallback writes a flip into an owner's read buffer between
// steps — what re-evaluation cannot serve, since the sweep and its
// re-evaluation read the same corrupted cell. The tile-local two-vector
// path takes it as it took every detection before: the owner alone flags,
// and the checksums track the domain afterwards.
func TestClusterGridFallback(t *testing.T) {
	const nx, ny = 24, 22
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	opt := strictOpts()
	var c *Cluster[float64]
	opt.AfterStep = func(id, iter int) {
		if id == 3 && iter == 3 {
			r := c.rankByID(3).(*rank[float64])
			g := r.buf.Read
			g.Set(r.loX()+5, r.loY()+4, g.At(r.loX()+5, r.loY()+4)+250)
		}
	}
	c, err := NewClusterGrid(op, testInit(nx, ny), 2, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(12)
	for i, s := range c.RankStats() {
		if (i == 3 && s.Detections != 1) || (i != 3 && s.Detections != 0) {
			t.Fatalf("rank %d: %+v", i, s)
		}
	}
	// Re-evaluating a row from a corrupted read buffer reproduces the
	// mismatch, so the rows are put back and the two-vector path runs: its
	// row checksums are summed from the same corrupted buffer, so only B
	// mismatches, and Equation (10)'s rule books the detection as a checksum
	// repair with no point corrected. A row re-evaluation could only have
	// booked it with the row's changed cells.
	if s := c.RankStats()[3]; s.CorrectedPoints != 0 || s.ChecksumRepairs != 1 {
		t.Fatalf("the read-buffer flip did not reach the two-vector path: %+v", s)
	}
}

func TestCluster3DRepairIsBitwise(t *testing.T) {
	const nx, ny, nz, iters = 10, 9, 8, 8
	op := &stencil.Op3D[float64]{St: star7(), BC: grid.Clamp}
	init := testInit3D(nx, ny, nz)
	want := online3DRef(t, op, init, iters, nil).Grid3D()
	detected := 0
	for bit := 0; bit < 64; bit++ {
		// Layers 3 and 4 are the two slabs' faces.
		inj := fault.Injection{Iteration: 1 + bit%5, X: (3 * bit) % nx, Y: (5 * bit) % ny, Z: bit % nz, Bit: bit}
		opt := strictOpts()
		opt.Inject = fault.NewPlan(inj)
		c, err := NewCluster3D(op, init, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(iters)
		st, got := c.Stats(), c.Gather()
		c.Close()
		if st.Detections == 0 {
			continue
		}
		detected++
		if st.Detections != 1 || st.CorrectedPoints != 1 || st.ChecksumRepairs != 0 {
			t.Fatalf("%v: %+v", inj, st)
		}
		requireSameBits(t, got, want, inj.String())
	}
	if detected < 20 {
		t.Fatalf("only %d of 64 bit positions were detected", detected)
	}
}
