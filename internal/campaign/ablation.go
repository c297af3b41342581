package campaign

import (
	"fmt"
	"io"
	"math/rand"

	abft "stencilabft"
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/metrics"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Ablations runs the design-choice experiments called out in DESIGN.md
// (A1, A2, A3, A5, A7, A8) at the given configuration's in-layer size and
// renders one table per question. A4 (parallel sweep scaling) is a timing,
// so the benchmark carries it (bench/: stencil.pool2_speedup).
func Ablations(cfg TileConfig, w io.Writer) error {
	ablationBoundaryTerms(cfg, w)
	ablationFusedChecksum(cfg, w)
	ablationKahan(cfg, w)
	ablationPairing(cfg, w)
	ablationLocate(cfg, w)
	ablationBlockSize(cfg, w)
	if err := ablationGridTopology(cfg, w); err != nil {
		return err
	}
	return nil
}

// ablationLocate (A8): what is left in a repaired cell, and what the repair
// touched, when a flagged flip is located by re-evaluating its row from the
// previous iteration against the two-vector Equation-(10) repair in its
// stable and paper-exact forms — the package-level functions the protectors
// call, on one float32 sweep with real interpolated checksums, per bit
// position over a set of random cells. Re-evaluation recomputes the cell, so
// its residual is zero at every bit; Equation (10) leaves the rounding of a
// line checksum there, and the literal form loses the cell outright once the
// flip dwarfs its row (Section 5.3).
func ablationLocate(cfg TileConfig, w io.Writer) {
	nx, ny := cfg.Nx, cfg.Ny
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	op := &stencil.Op2D[float32]{St: stencil.BoxBlur[float32](), BC: grid.Clamp}
	src := grid.New[float32](nx, ny)
	src.FillFunc(func(x, y int) float32 { return float32(80 + 40*rng.Float64()) })
	clean := grid.New[float32](nx, ny)
	cleanB := make([]float32, ny)
	op.SweepFused(clean, src, cleanB)
	ip, err := checksum.NewInterp2D(op, nx, ny)
	if err != nil {
		panic(err)
	}
	interpA, interpB := make([]float32, nx), make([]float32, ny)
	interpolateDomain(ip, op, checksum.VecA, src, interpA)
	interpolateDomain(ip, op, checksum.VecB, src, interpB)
	det := checksum.NewDetector[float32]()

	const cells = 16
	dst := grid.New[float32](nx, ny)
	direct := checksum.NewVectors[float32](nx, ny)
	saved := make([]float32, nx)
	t := metrics.NewTable(
		fmt.Sprintf("Ablation A8: locate a flagged flip, %dx%d float32 box9, %d cells a bit; cells touched a fault: row re-evaluation %d updated, Equation (10) %d summed",
			nx, ny, cells, nx, 2*nx*ny+nx+ny),
		"Bit", "Field", "Flagged", "Row re-evaluation", "Eq. (10) stable", "Eq. (10) paper-exact")
	for bit := 0; bit < 32; bit++ {
		var flagged int
		var resid [3]float64 // max |repaired - clean| / |clean| per method
		for c := 0; c < cells; c++ {
			x, y := rng.Intn(nx), rng.Intn(ny)
			want := clean.At(x, y)
			// corrupt plants the flip in a fresh copy of the swept state.
			corrupt := func() bool {
				dst.CopyFrom(clean)
				dst.Set(x, y, num.FlipBit(want, bit))
				copy(direct.B, cleanB)
				direct.B[y] = num.Sum(dst.Row(y))
				return det.Exceeds(direct.B[y], interpB[y])
			}
			left := func(m int) {
				resid[m] = num.Max(resid[m], num.RelErr(float64(dst.At(x, y)), float64(want), 1))
			}
			if !corrupt() {
				continue
			}
			flagged++
			checksum.RepairRows(det, direct.B, interpB, saved, dst.Row, func(y int) float32 {
				op.SweepRange(dst, src, y, y+1, direct.B, nil)
				return direct.B[y]
			})
			left(0)
			for m, paperExact := range []bool{false, true} {
				corrupt()
				stencil.ChecksumA(dst, direct.A)
				checksum.Corrector[float32]{PaperExact: paperExact}.RepairRect(det, checksum.PairByResidual, dst, 0, 0, nx, ny, direct.A, direct.B, interpA, interpB)
				left(1 + m)
			}
		}
		if flagged == 0 {
			continue
		}
		t.AddRow(bit, num.ClassifyBit[float32](bit).String(), fmt.Sprintf("%d/%d", flagged, cells), resid[0], resid[1], resid[2])
	}
	t.Render(w)
	fmt.Fprintln(w)
}

// ablationGridTopology (A7): the paper's single-bit-flip fault sweep run on
// a 2-D (2x2) rank grid, with injection sites classified by where they land
// relative to the tile seams — interior, seam edge (the point a neighbour
// reads as halo), the interior cross corner where four tiles meet, and the
// domain corners. The claim under test is the paper's "intrinsically
// parallel" property extended to 2-D decompositions: every corruption is
// detected AND repaired by exactly the rank owning the tile, with zero
// detections on bystander ranks (no leakage through halo or corner
// threading), and the repaired result stays within correction residual of
// the error-free reference.
func ablationGridTopology(cfg TileConfig, w io.Writer) error {
	nx, ny := max(cfg.Nx, 16), max(cfg.Ny, 16)
	iters := max(cfg.Iterations, 16)
	op := &stencil.Op2D[float32]{St: stencil.BoxBlur[float32](), BC: grid.Clamp}
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	init := grid.New[float32](nx, ny)
	init.FillFunc(func(x, y int) float32 { return float32(80 + 40*rng.Float64()) })

	// Error-free reference for the residual column.
	ref, err := abft.Build(abft.Spec[float32]{Op2D: op, Init: init})
	if err != nil {
		return err
	}
	ref.Run(iters)

	classes := []struct {
		name string
		x, y int
	}{
		{"tile interior", nx / 4, ny / 4},
		{"seam edge (x)", nx/2 - 1, ny / 4},
		{"seam edge (y)", nx / 4, ny/2 - 1},
		{"interior cross corner", nx/2 - 1, ny/2 - 1},
		{"domain corner (0,0)", 0, 0},
		{"domain corner (far)", nx - 1, ny - 1},
	}
	// Detectable float32 exponent bits (paper Fig. 10's always-detected
	// region).
	bits := []int{24, 26, 28, 30}

	t := metrics.NewTable(
		fmt.Sprintf("Ablation A7: rank-local repair on a 2x2 rank grid, %dx%d clamp, %d iters, bits %v",
			nx, ny, iters, bits),
		"Injection site", "Owner rank", "Injections", "Rank-local detect+repair", "Leaked detections", "Max residual")
	for _, cl := range classes {
		var local, leaked int
		var maxResid float64
		var owner int
		for _, bit := range bits {
			p, err := abft.Build(abft.Spec[float32]{
				Scheme: abft.Online, Deployment: abft.Clustered,
				RanksX: 2, RanksY: 2,
				Op2D: op, Init: init,
				Detector: checksum.Detector[float32]{Epsilon: cfg.Epsilon, AbsFloor: 1},
				Inject:   abft.NewPlan(abft.Injection{Iteration: iters / 2, X: cl.x, Y: cl.y, Bit: bit}),
			})
			if err != nil {
				return err
			}
			c := p.(*abft.Cluster[float32])
			owner = c.Decomp().OwnerOf(cl.x, cl.y)
			p.Run(iters)
			ownerOK := false
			for i, s := range c.RankStats() {
				if i == owner {
					ownerOK = s.Detections == 1 && s.CorrectedPoints == 1
				} else {
					leaked += s.Detections
				}
			}
			if ownerOK {
				local++
			}
			maxResid = num.Max(maxResid, metrics.L2Error(p.Grid(), ref.Grid()))
			c.Close()
		}
		leakCell := "none"
		if leaked > 0 {
			// Rendered as a loud marker so the campaign tests can assert
			// zero leakage without parsing table geometry.
			leakCell = fmt.Sprintf("LEAKED:%d", leaked)
		}
		t.AddRow(cl.name, owner, len(bits),
			fmt.Sprintf("%d/%d", local, len(bits)), leakCell, maxResid)
	}
	t.Render(w)
	fmt.Fprintln(w)
	return nil
}

// ablationBlockSize: the floating-point interpolation noise floor as a
// function of the chunk size the scheme is applied on — the paper's
// Section 3.4 observation ("the approximation error proportionally
// increases with the domain size") that motivates small tiles and the
// epsilon = 1e-5 choice.
func ablationBlockSize(cfg TileConfig, w io.Writer) {
	const n = 256
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	src := grid.New[float32](n, n)
	src.FillFunc(func(x, y int) float32 { return float32(80 + 40*rng.Float64()) })
	dst := grid.New[float32](n, n)
	op.Sweep(dst, src)

	t := metrics.NewTable(
		fmt.Sprintf("Ablation: float32 interpolation noise floor vs chunk width, %dx%d domain", n, n),
		"Chunk width", "Max rel. error (error-free)")
	for _, bw := range []int{16, 32, 64, 128, 256} {
		var maxErr float64
		for x0 := 0; x0 < n; x0 += bw {
			x1 := x0 + bw
			prev := make([]float32, n)
			direct := make([]float32, n)
			stencil.ChecksumBRect(src, x0, 0, x1, n, prev)
			stencil.ChecksumBRect(dst, x0, 0, x1, n, direct)

			ip, err := checksum.NewInterp2DRect(op, n, n, x0, 0, x1, n)
			if err != nil {
				panic(err)
			}
			// The chunk spans the domain's height, so its column
			// checksums' halo is their own entries projected through the
			// boundary condition.
			ext := make([]float32, n+2)
			copy(ext[1:n+1], prev)
			ip.FillHalo(checksum.VecB, ext)
			interp := make([]float32, n)
			ip.Interpolate(checksum.VecB, ext, checksum.LiveEdges(src, op.BC, op.BCValue), interp)
			for y := range interp {
				maxErr = num.Max(maxErr, num.RelErr(float64(interp[y]), float64(direct[y]), 1))
			}
		}
		t.AddRow(bw, maxErr)
	}
	t.Render(w)
	fmt.Fprintln(w)
}

// ablationBoundaryTerms (A1): interpolation accuracy with exact alpha/beta
// versus the paper's dropped-terms listing, for a weight-symmetric stencil
// (where dropping is harmless) and an asymmetric one (where it is not).
func ablationBoundaryTerms(cfg TileConfig, w io.Writer) {
	nx, ny := cfg.Nx, cfg.Ny
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := metrics.NewTable(
		fmt.Sprintf("Ablation A1: boundary terms, %dx%d clamp boundaries", nx, ny),
		"Stencil", "Variant", "Max rel. interpolation error")

	cases := []struct {
		name string
		st   *stencil.Stencil[float64]
	}{
		{"symmetric five-point", stencil.Laplace5(0.2)},
		{"asymmetric advection", stencil.Advect2D(0.3, 0.15)},
	}
	for _, c := range cases {
		op := &stencil.Op2D[float64]{St: c.st, BC: grid.Clamp}
		src := grid.New[float64](nx, ny)
		src.FillFunc(func(x, y int) float64 { return 50 + 10*rng.Float64() })
		dst := grid.New[float64](nx, ny)
		op.Sweep(dst, src)
		direct := checksum.NewVectors[float64](nx, ny)
		direct.Compute(dst)
		for _, variant := range []struct {
			name string
			drop bool
		}{{"exact alpha/beta", false}, {"dropped (paper listing)", true}} {
			ip, err := checksum.NewInterp2D(op, nx, ny)
			if err != nil {
				panic(err)
			}
			ip.DropBoundaryTerms = variant.drop
			interp := make([]float64, ny)
			interpolateDomain(ip, op, checksum.VecB, src, interp)
			var maxErr float64
			for y := range interp {
				maxErr = num.Max(maxErr, num.RelErr(interp[y], direct.B[y], 1e-9))
			}
			t.AddRow(c.name, variant.name, maxErr)
		}
	}
	t.Render(w)
	fmt.Fprintln(w)
}

// interpolateDomain interpolates vector v of op's domain interpolator from
// the checksums of src, iteration t, extended by the projection of the
// boundary condition.
func interpolateDomain[T num.Float](ip *checksum.Interp2D[T], op *stencil.Op2D[T], v checksum.Vec, src *grid.Grid[T], out []T) {
	h := ip.EdgeRadius()
	prev := make([]T, len(out)+2*h)
	if v == checksum.VecA {
		stencil.ChecksumA(src, prev[h:h+len(out)])
	} else {
		stencil.ChecksumB(src, prev[h:h+len(out)])
	}
	ip.FillHalo(v, prev)
	ip.Interpolate(v, prev, checksum.LiveEdges(src, op.BC, op.BCValue), out)
}

// ablationFusedChecksum (A2): cost of the fused checksum accumulation
// versus a separate checksum pass over the output, in sweeps per second.
func ablationFusedChecksum(cfg TileConfig, w io.Writer) {
	// Timing needs a tile large enough to dominate loop overheads.
	nx, ny := max(cfg.Nx*2, 256), max(cfg.Ny*2, 256)
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	src := grid.New[float32](nx, ny)
	src.FillFunc(func(x, y int) float32 { return float32(x+y) * 0.01 })
	dst := grid.New[float32](nx, ny)
	b := make([]float32, ny)
	const sweeps = 60

	time := func(f func()) float64 {
		t := metrics.StartTimer()
		for i := 0; i < sweeps; i++ {
			f()
			src, dst = dst, src
		}
		return t.Seconds() / sweeps
	}

	plain := time(func() { op.Sweep(dst, src) })
	fused := time(func() { op.SweepFused(dst, src, b) })
	separate := time(func() { op.Sweep(dst, src); stencil.ChecksumB(dst, b) })

	t := metrics.NewTable(
		fmt.Sprintf("Ablation A2: fused checksum, %dx%d five-point", nx, ny),
		"Variant", "Time per sweep (s)", "Overhead vs plain")
	t.AddRow("plain sweep (no checksum)", plain, "-")
	t.AddRow("fused checksum (paper Fig. 2)", fused, fmt.Sprintf("%+.1f%%", 100*(fused/plain-1)))
	t.AddRow("separate checksum pass", separate, fmt.Sprintf("%+.1f%%", 100*(separate/plain-1)))
	t.Render(w)
	fmt.Fprintln(w)
}

// ablationKahan (A3): checksum round-off of plain versus compensated
// accumulation, measured against a float64 ground truth on a float32 grid.
func ablationKahan(cfg TileConfig, w io.Writer) {
	nx, ny := cfg.Nx*4, cfg.Ny*4
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	g32 := grid.New[float32](nx, ny)
	g32.FillFunc(func(x, y int) float32 { return float32(80 + 40*rng.Float64()) })

	// Ground truth in float64.
	truth := make([]float64, ny)
	for y := 0; y < ny; y++ {
		var s float64
		for _, v := range g32.Row(y) {
			s += float64(v)
		}
		truth[y] = s
	}
	plain := checksum.NewVectors[float32](nx, ny)
	plain.Compute(g32)
	kahan := checksum.NewVectors[float32](nx, ny)
	kahan.ComputeKahan(g32)

	maxRel := func(b []float32) float64 {
		var m float64
		for y := range b {
			m = num.Max(m, num.RelErr(float64(b[y]), truth[y], 1))
		}
		return m
	}
	t := metrics.NewTable(
		fmt.Sprintf("Ablation A3: checksum accumulation, %dx%d float32", nx, ny),
		"Accumulation", "Max rel. error vs float64 truth")
	t.AddRow("plain (paper)", maxRel(plain.B))
	t.AddRow("Kahan compensated", maxRel(kahan.B))
	t.Render(w)
	fmt.Fprintln(w)
}

// ablationPairing (A5): success rate of residual pairing versus index
// pairing when two errors strike the same iteration in a cross pattern
// (x1<x2 but y1>y2), the arrangement index pairing mislocates.
func ablationPairing(cfg TileConfig, w io.Writer) {
	nx, ny := cfg.Nx, cfg.Ny
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	const trials = 200

	correct := map[checksum.PairPolicy]int{}
	for trial := 0; trial < trials; trial++ {
		// Two distinct corrupted cells in a random arrangement.
		x1, y1 := rng.Intn(nx), rng.Intn(ny)
		x2, y2 := rng.Intn(nx), rng.Intn(ny)
		if x1 == x2 || y1 == y2 {
			continue
		}
		am := []checksum.Mismatch[float64]{}
		bm := []checksum.Mismatch[float64]{}
		e1 := 1 + 10*rng.Float64()
		e2 := 20 + 10*rng.Float64()
		// Mismatch lists arrive sorted by index.
		add := func(x, y int, e float64) {
			am = append(am, checksum.Mismatch[float64]{Index: x, Residual: -e})
			bm = append(bm, checksum.Mismatch[float64]{Index: y, Residual: -e})
		}
		if x1 < x2 {
			add(x1, y1, e1)
			add(x2, y2, e2)
		} else {
			add(x2, y2, e2)
			add(x1, y1, e1)
		}
		if bm[0].Index > bm[1].Index {
			bm[0], bm[1] = bm[1], bm[0]
		}
		want := map[checksum.Location]bool{{X: x1, Y: y1}: true, {X: x2, Y: y2}: true}
		for _, pol := range []checksum.PairPolicy{checksum.PairByResidual, checksum.PairByIndex} {
			locs := checksum.Pair(am, bm, pol)
			ok := len(locs) == 2 && want[locs[0]] && want[locs[1]]
			if ok {
				correct[pol]++
			}
		}
	}
	t := metrics.NewTable(
		fmt.Sprintf("Ablation A5: two-error pairing policy, %d random arrangements", trials),
		"Policy", "Correctly located")
	t.AddRow("residual matching (this library)", fmt.Sprintf("%d/%d", correct[checksum.PairByResidual], trials))
	t.AddRow("index order (paper Fig. 6)", fmt.Sprintf("%d/%d", correct[checksum.PairByIndex], trials))
	t.Render(w)
	fmt.Fprintln(w)
}
