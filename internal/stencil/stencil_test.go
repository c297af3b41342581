package stencil

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

func TestValidate(t *testing.T) {
	ok := FivePoint[float64](1, 1, 1, 1, 1)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := &Stencil[float64]{Name: "empty"}
	if empty.Validate() == nil {
		t.Fatal("empty stencil validated")
	}
	dup := &Stencil[float64]{Name: "dup", Points: []Point[float64]{{0, 0, 0, 1}, {0, 0, 0, 2}}}
	if dup.Validate() == nil {
		t.Fatal("duplicate offsets validated")
	}
	zw := &Stencil[float64]{Name: "zw", Points: []Point[float64]{{1, 0, 0, 0}}}
	if zw.Validate() == nil {
		t.Fatal("zero weight validated")
	}
}

func TestRadii(t *testing.T) {
	st := &Stencil[float64]{Points: []Point[float64]{
		{-2, 0, 0, 1}, {0, 3, 0, 1}, {0, 0, -1, 1},
	}}
	if st.RadiusX() != 2 || st.RadiusY() != 3 || st.RadiusZ() != 1 {
		t.Fatalf("radii %d/%d/%d", st.RadiusX(), st.RadiusY(), st.RadiusZ())
	}
	if !st.Is3D() {
		t.Fatal("Is3D wrong")
	}
	if FivePoint[float32](1, 1, 1, 1, 1).Is3D() {
		t.Fatal("2-D stencil reported 3-D")
	}
}

// weightSum is the sum of a stencil's weights: 1 for a diffusive kernel,
// which preserves the domain average.
func weightSum[T num.Float](s *Stencil[T]) T {
	var w T
	for _, p := range s.Points {
		w += p.W
	}
	return w
}

func TestBuilders(t *testing.T) {
	if got := weightSum(Jacobi4[float64]()); got != 1 {
		t.Fatalf("Jacobi4 weight sum %g", got)
	}
	if got := weightSum(Laplace5(0.25)); num.Abs(got-1) > 1e-15 {
		t.Fatalf("Laplace5 weight sum %g", got)
	}
	if got := weightSum(BoxBlur[float64]()); num.Abs(got-1) > 1e-12 {
		t.Fatalf("BoxBlur weight sum %g", got)
	}
	if n := len(SevenPoint3D[float32](1, 1, 1, 1, 1, 1, 1).Points); n != 7 {
		t.Fatalf("SevenPoint3D size %d", n)
	}
	if got := weightSum(Advect2D(0.3, 0.2)); num.Abs(got-1) > 1e-15 {
		t.Fatalf("Advect2D weight sum %g", got)
	}
	var w [9]float64
	w[4] = 1 // centre only
	if n := len(NinePoint(w).Points); n != 1 {
		t.Fatalf("NinePoint skips zero weights: size %d", n)
	}
}

// naiveSweep is an obviously correct reference implementation the fast
// engine is validated against.
func naiveSweep(op *Op2D[float64], dst, src *grid.Grid[float64]) {
	bg := grid.BoundedGrid[float64]{G: src, Cond: op.BC, ConstVal: op.BCValue}
	for y := 0; y < src.Ny(); y++ {
		for x := 0; x < src.Nx(); x++ {
			var v float64
			if op.C != nil {
				v = op.C.At(x, y)
			}
			for _, p := range op.St.Points {
				v += p.W * bg.At(x+p.DX, y+p.DY)
			}
			dst.Set(x, y, v)
		}
	}
}

func TestSweepMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		nx := 3 + rng.Intn(14)
		ny := 3 + rng.Intn(14)
		k := 1 + rng.Intn(7)
		st := &Stencil[float64]{Name: "rand"}
		seen := map[[2]int]bool{}
		for len(st.Points) < k {
			dx, dy := rng.Intn(5)-2, rng.Intn(5)-2
			if seen[[2]int{dx, dy}] || dx >= nx || -dx >= nx || dy >= ny || -dy >= ny {
				continue
			}
			seen[[2]int{dx, dy}] = true
			st.Points = append(st.Points, Point[float64]{dx, dy, 0, rng.Float64()*2 - 1})
		}
		bcs := []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero}
		op := &Op2D[float64]{St: st, BC: bcs[rng.Intn(len(bcs))], BCValue: rng.Float64()}
		if rng.Intn(2) == 0 {
			c := grid.New[float64](nx, ny)
			c.FillFunc(func(x, y int) float64 { return rng.Float64() })
			op.C = c
		}
		if op.Validate(nx, ny) != nil {
			continue
		}
		src := grid.New[float64](nx, ny)
		src.FillFunc(func(x, y int) float64 { return rng.Float64()*4 - 2 })
		want := grid.New[float64](nx, ny)
		got := grid.New[float64](nx, ny)
		naiveSweep(op, want, src)
		op.Sweep(got, src)
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("trial %d (%s, bc=%s, %dx%d): max diff %g", trial, st, op.BC, nx, ny, d)
		}
	}
}

func TestSweepFusedChecksumMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nx, ny := 17, 13
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	src := grid.New[float64](nx, ny)
	src.FillFunc(func(x, y int) float64 { return rng.Float64() })
	dst := grid.New[float64](nx, ny)
	fused := make([]float64, ny)
	op.SweepFused(dst, src, fused)
	direct := make([]float64, ny)
	ChecksumB(dst, direct)
	for y := range fused {
		if fused[y] != direct[y] {
			t.Fatalf("fused B[%d]=%.17g direct %.17g", y, fused[y], direct[y])
		}
	}
}

func TestChecksumAB(t *testing.T) {
	g := grid.New[float64](3, 2)
	g.FillFunc(func(x, y int) float64 { return float64(x + 10*y) })
	a := make([]float64, 3)
	b := make([]float64, 2)
	ChecksumA(g, a)
	ChecksumB(g, b)
	// Row y=0: 0,1,2; row y=1: 10,11,12.
	if b[0] != 3 || b[1] != 33 {
		t.Fatalf("B = %v", b)
	}
	if a[0] != 10 || a[1] != 12 || a[2] != 14 {
		t.Fatalf("A = %v", a)
	}
}

func TestSweepPanicsOnAlias(t *testing.T) {
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	g := grid.New[float64](4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("aliased sweep did not panic")
		}
	}()
	op.Sweep(g, g)
}

func TestValidateRejects3DInOp2D(t *testing.T) {
	op := &Op2D[float64]{St: SevenPoint3D[float64](1, 1, 1, 1, 1, 1, 1), BC: grid.Clamp}
	if op.Validate(8, 8) == nil {
		t.Fatal("3-D stencil accepted by 2-D op")
	}
}

func TestValidateRejectsOversizedRadius(t *testing.T) {
	st := &Stencil[float64]{Points: []Point[float64]{{5, 0, 0, 1}}}
	op := &Op2D[float64]{St: st, BC: grid.Clamp}
	if op.Validate(4, 4) == nil {
		t.Fatal("radius >= nx accepted")
	}
}

func TestSweepParallelMatchesSequentialProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, wRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nx, ny := 4+r.Intn(20), 4+r.Intn(20)
		op := &Op2D[float64]{St: Laplace5(0.1 + 0.1*r.Float64()), BC: grid.Clamp}
		src := grid.New[float64](nx, ny)
		src.FillFunc(func(x, y int) float64 { return r.Float64() })
		seq := grid.New[float64](nx, ny)
		par := grid.New[float64](nx, ny)
		bSeq := make([]float64, ny)
		bPar := make([]float64, ny)
		op.SweepFused(seq, src, bSeq)
		pool := &Pool{Workers: 1 + int(wRaw%8)}
		defer pool.Close()
		op.SweepParallel(pool, par, src, bPar)
		if seq.MaxAbsDiff(par) != 0 {
			return false
		}
		for y := range bSeq {
			if bSeq[y] != bPar[y] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSweep3DLayerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nx, ny, nz := 8, 7, 5
	st := SevenPoint3D(0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15)
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Zero} {
		op := &Op3D[float64]{St: st, BC: bc}
		src := grid.New3D[float64](nx, ny, nz)
		src.FillFunc(func(x, y, z int) float64 { return rng.Float64() })
		got := grid.New3D[float64](nx, ny, nz)
		op.Sweep(got, src)

		bg := grid.BoundedGrid3D[float64]{G: src, Cond: bc}
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					var v float64
					for _, p := range st.Points {
						v += p.W * bg.At(x+p.DX, y+p.DY, z+p.DZ)
					}
					if num.Abs(got.At(x, y, z)-v) != 0 {
						t.Fatalf("bc=%s (%d,%d,%d): got %g want %g", bc, x, y, z, got.At(x, y, z), v)
					}
				}
			}
		}
	}
}

func TestSweep3DParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nx, ny, nz := 10, 9, 6
	op := &Op3D[float64]{St: SevenPoint3D(0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15), BC: grid.Clamp}
	src := grid.New3D[float64](nx, ny, nz)
	src.FillFunc(func(x, y, z int) float64 { return rng.Float64() })
	seq := grid.New3D[float64](nx, ny, nz)
	par := grid.New3D[float64](nx, ny, nz)
	bSeq := make([][]float64, nz)
	bPar := make([][]float64, nz)
	for z := range bSeq {
		bSeq[z] = make([]float64, ny)
		bPar[z] = make([]float64, ny)
	}
	for z := 0; z < nz; z++ {
		op.SweepLayer(seq, src, z, bSeq[z], nil)
	}
	pool := &Pool{Workers: 4}
	t.Cleanup(pool.Close)
	op.SweepParallel(pool, par, src, bPar)
	if seq.MaxAbsDiff(par) != 0 {
		t.Fatal("3-D parallel sweep differs")
	}
	for z := range bSeq {
		for y := range bSeq[z] {
			if bSeq[z][y] != bPar[z][y] {
				t.Fatalf("layer %d B[%d] differs", z, y)
			}
		}
	}

	// The layer-range form (a slab between ghost layers) sweeps exactly
	// layers [z0, z1), indexing bs by layer of the grid, and leaves the
	// rest of dst and bs alone.
	slab := grid.New3D[float64](nx, ny, nz)
	slab.Fill(-1)
	bSlab := make([][]float64, nz)
	for z := range bSlab {
		bSlab[z] = make([]float64, ny)
	}
	pool3 := &Pool{Workers: 3}
	t.Cleanup(pool3.Close)
	op.SweepLayersInject(pool3, slab, src, 0, 0, 1, nx, ny, nz-1, bSlab, nil)
	for z := 0; z < nz; z++ {
		swept := z >= 1 && z < nz-1
		for i, v := range slab.Layer(z).Data() {
			if want := seq.Layer(z).Data()[i]; swept && v != want || !swept && v != -1 {
				t.Fatalf("layer %d cell %d = %v after a sweep of layers [1,%d)", z, i, v, nz-1)
			}
		}
		for y, v := range bSlab[z] {
			if swept && v != bSeq[z][y] || !swept && v != 0 {
				t.Fatalf("layer %d B[%d] = %v after a sweep of layers [1,%d)", z, y, v, nz-1)
			}
		}
	}
}

func TestInjectSiteAppliedToStoreAndChecksum(t *testing.T) {
	nx, ny := 5, 4
	op := &Op2D[float64]{St: Laplace5(0.2), BC: grid.Clamp}
	src := grid.New[float64](nx, ny)
	src.Fill(1)
	dst := grid.New[float64](nx, ny)
	b := make([]float64, ny)
	sites := []Site[float64]{{X: 2, Y: 1, Mutate: func(v float64) float64 { return v + 100 }}}
	op.SweepRange(dst, src, 0, ny, b, sites)
	if dst.At(2, 1) != 1+100 {
		t.Fatalf("site not applied to stored value: %g", dst.At(2, 1))
	}
	// The fused checksum must include the corrupted value (the paper's
	// injection semantics: corrupt before store, checksum reads the
	// stored value).
	direct := make([]float64, ny)
	ChecksumB(dst, direct)
	if b[1] != direct[1] {
		t.Fatalf("fused checksum %g does not match corrupted row sum %g", b[1], direct[1])
	}
}

func TestPoolForEachChunkCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		p := &Pool{Workers: workers}
		t.Cleanup(p.Close)
		covered := make([]int32, 57)
		var mu sync.Mutex
		p.ForEachChunk(len(covered), func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}
