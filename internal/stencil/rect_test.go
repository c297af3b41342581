package stencil

import (
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
)

// TestSweepRectFusedMatchesFullSweep: tiling the domain with rectangles and
// sweeping each must reproduce the full sweep bitwise, and the per-block
// fused checksums must equal the direct partial sums.
func TestSweepRectFusedMatchesFullSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		nx, ny := 10+rng.Intn(20), 10+rng.Intn(20)
		bcs := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Zero}
		op := &Op2D[float64]{St: Laplace5(0.15 + 0.1*rng.Float64()), BC: bcs[rng.Intn(len(bcs))]}
		src := grid.New[float64](nx, ny)
		src.FillFunc(func(x, y int) float64 { return rng.Float64() * 10 })

		want := grid.New[float64](nx, ny)
		op.Sweep(want, src)

		got := grid.New[float64](nx, ny)
		bw, bh := 1+rng.Intn(nx), 1+rng.Intn(ny)
		for y0 := 0; y0 < ny; y0 += bh {
			for x0 := 0; x0 < nx; x0 += bw {
				x1, y1 := min(x0+bw, nx), min(y0+bh, ny)
				b := make([]float64, y1-y0)
				op.SweepRectFused(got, src, x0, y0, x1, y1, b, nil)
				direct := make([]float64, y1-y0)
				ChecksumBRect(got, x0, y0, x1, y1, direct)
				for j := range b {
					if b[j] != direct[j] {
						t.Fatalf("trial %d: block (%d,%d) fused b[%d]=%.17g direct %.17g",
							trial, x0, y0, j, b[j], direct[j])
					}
				}
			}
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d: tiled sweep diverged by %g (blocks %dx%d)", trial, d, bw, bh)
		}
	}
}

func TestSweepRectFusedSite(t *testing.T) {
	nx, ny := 8, 8
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	src := grid.New[float64](nx, ny)
	src.Fill(1)
	dst := grid.New[float64](nx, ny)
	b := make([]float64, 4)
	hit := false
	sites := []Site[float64]{{X: 5, Y: 3, Mutate: func(v float64) float64 {
		hit = true
		return v + 7
	}}}
	op.SweepRectFused(dst, src, 4, 2, 8, 6, b, sites)
	if !hit {
		t.Fatal("site not applied inside the rectangle")
	}
	if dst.At(5, 3) != 1+7 {
		t.Fatalf("injected value %g", dst.At(5, 3))
	}
	// Fused checksum includes the corruption.
	direct := make([]float64, 4)
	ChecksumBRect(dst, 4, 2, 8, 6, direct)
	if b[1] != direct[1] {
		t.Fatal("fused checksum missed the injected value")
	}
}

func TestSweepRectFusedValidation(t *testing.T) {
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	g := grid.New[float64](8, 8)
	h := grid.New[float64](8, 8)
	for _, r := range [][4]int{{-1, 0, 4, 4}, {0, 0, 9, 4}, {4, 4, 2, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rect %v did not panic", r)
				}
			}()
			op.SweepRectFused(h, g, r[0], r[1], r[2], r[3], nil, nil)
		}()
	}
}

func TestChecksumARect(t *testing.T) {
	g := grid.New[float64](4, 3)
	g.FillFunc(func(x, y int) float64 { return float64(x + 10*y) })
	a := make([]float64, 2)
	ChecksumARect(g, 1, 1, 3, 3, a)
	// Columns 1,2 over rows 1,2: (11+21)=32, (12+22)=34.
	if a[0] != 32 || a[1] != 34 {
		t.Fatalf("ARect = %v", a)
	}
}
