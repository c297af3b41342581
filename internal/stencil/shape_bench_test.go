package stencil

import (
	"fmt"
	"testing"

	"stencilabft/internal/grid"
)

// BenchmarkSweepShape compares equal-area sweeps over the two rank-tile
// shapes of the n=512 four-rank topologies: 4x1 bands sweep 512-wide rows,
// 2x2 tiles sweep 256-wide rows (twice as many row calls).
func BenchmarkSweepShape(b *testing.B) {
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	for _, sh := range []struct {
		name           string
		nx, ny, w, h   int
		x0, y0, x1, y1 int
	}{
		{"band512x128", 514, 130, 512, 128, 1, 1, 513, 129},
		{"tile256x256", 258, 258, 256, 256, 1, 1, 257, 257},
	} {
		src := grid.New[float64](sh.nx, sh.ny)
		dst := grid.New[float64](sh.nx, sh.ny)
		src.FillFunc(func(x, y int) float64 { return 100 + float64((x*31+y*17)%23) })
		bsum := make([]float64, sh.y1-sh.y0)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op.SweepRectFused(dst, src, sh.x0, sh.y0, sh.x1, sh.y1, bsum, nil)
			}
		})
	}
}

// BenchmarkSweepLayer3D times single layers of the paper's large HotSpot3D
// tile (512x512x8 float32 star7, clamp, constant field): the two z-boundary
// layers and an interior one. Before boundary folding the boundary layers
// ran cell by cell through BoundedGrid3D.At and cost 18x an interior layer.
func BenchmarkSweepLayer3D(b *testing.B) {
	const nx, ny, nz = 512, 512, 8
	src := grid.New3D[float32](nx, ny, nz)
	src.FillFunc(func(x, y, z int) float32 { return 300 + float32((x*31+y*17+z*7)%23) })
	dst := grid.New3D[float32](nx, ny, nz)
	c := grid.New3D[float32](nx, ny, nz)
	c.Fill(0.25)
	op := &Op3D[float32]{St: SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), BC: grid.Clamp, C: c}
	bsum := make([]float32, ny)
	for _, z := range []int{0, nz / 2, nz - 1} {
		b.Run(fmt.Sprintf("z=%d", z), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.SweepLayer(dst, src, z, bsum, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(nx*ny), "ns/cell")
		})
	}
}
