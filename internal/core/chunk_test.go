package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"stencilabft/internal/checksum"
	"stencilabft/internal/errs"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// The online method is one chunk protector, so its contract is stated once
// and run over every way of cutting the domain: the chunk that is the whole
// domain (the Online scheme), the Blocked scheme's usual 16x16, a size that
// leaves odd remainders (one merged into its neighbour), and the thinnest
// chunk a stencil admits.
type chunking struct {
	name   string
	bx, by int
}

func chunkings(nx, ny, rx, ry int) []chunking {
	return []chunking{{"domain", nx, ny}, {"16x16", 16, 16}, {"odd remainder", 7, 5}, {"radius+1", rx + 1, ry + 1}}
}

const chunkNx, chunkNy = 40, 36

func TestChunkings(t *testing.T) {
	for _, ck := range chunkings(chunkNx, chunkNy, 1, 1) {
		t.Run(ck.name, func(t *testing.T) {
			t.Run("MatchesBaseline", func(t *testing.T) { chunkedMatchesBaseline(t, ck) })
			t.Run("ParallelMatchesSequential", func(t *testing.T) { chunkedParallelMatchesSequential(t, ck) })
			t.Run("DetectsAndCorrects", func(t *testing.T) { chunkedDetectsAndCorrects(t, ck) })
			t.Run("RepairIsBitwise/float32", func(t *testing.T) { chunkedRepairIsBitwise[float32](t, ck, 1e-5) })
			t.Run("RepairIsBitwise/float64", func(t *testing.T) { chunkedRepairIsBitwise[float64](t, ck, 1e-9) })
			t.Run("FallbackIsTheTwoVectorPath", func(t *testing.T) { chunkedFallback(t, ck) })
		})
	}
}

// bcOp is a diffusive five-point operator with a random constant field under
// the given boundary condition.
func bcOp(nx, ny int, rng *rand.Rand, bc grid.Boundary) *stencil.Op2D[float64] {
	c := grid.New[float64](nx, ny)
	c.FillFunc(func(x, y int) float64 { return 0.05 * rng.Float64() })
	return &stencil.Op2D[float64]{St: stencil.Laplace5(0.21), BC: bc, BCValue: 1.5, C: c}
}

// chunkedMatchesBaseline: an error-free protected run is bitwise the
// unprotected one and raises nothing, under every boundary condition, for a
// symmetric kernel with a constant field and for the upwind advection kernel
// whose boundary terms do not cancel.
func chunkedMatchesBaseline(t *testing.T, ck chunking) {
	const iters = 20
	rng := rand.New(rand.NewSource(1))
	init := testInit(rng, chunkNx, chunkNy)
	for _, bc := range []grid.Boundary{grid.Clamp, grid.Periodic, grid.Mirror, grid.Constant, grid.Zero} {
		for _, op := range []*stencil.Op2D[float64]{
			bcOp(chunkNx, chunkNy, rand.New(rand.NewSource(2)), bc),
			{St: stencil.Advect2D(0.3, 0.15), BC: bc, BCValue: 280},
		} {
			p, err := NewBlocked2D(op, init, ck.bx, ck.by, opts64())
			if err != nil {
				t.Fatalf("%s %s: %v", bc, op.St.Name, err)
			}
			p.Run(iters)
			if !sameBitsAll(p.Grid().Data(), referenceRun(op, init, iters).Data()) {
				t.Fatalf("%s %s: error-free run diverged from the baseline", bc, op.St.Name)
			}
			if st := p.Stats(); st.Detections != 0 || st.Verifications != iters*len(p.chunks) {
				t.Fatalf("%s %s: %d chunks, stats %+v", bc, op.St.Name, len(p.chunks), st)
			}
		}
	}
}

func chunkedParallelMatchesSequential(t *testing.T, ck chunking) {
	rng := rand.New(rand.NewSource(7))
	op := bcOp(chunkNx, chunkNy, rng, grid.Mirror)
	init := testInit(rng, chunkNx, chunkNy)
	seq, err := NewBlocked2D(op, init, ck.bx, ck.by, opts64())
	if err != nil {
		t.Fatal(err)
	}
	o := opts64()
	o.Pool = &stencil.Pool{Workers: 7} // more workers than the domain chunking has chunks, fewer than the others
	defer o.Pool.Close()
	par, err := NewBlocked2D(op, init, ck.bx, ck.by, o)
	if err != nil {
		t.Fatal(err)
	}
	seq.Run(15)
	par.Run(15)
	if !sameBitsAll(seq.Grid().Data(), par.Grid().Data()) || par.Stats() != seq.Stats() {
		t.Fatalf("pool run diverged from the sequential one: %+v vs %+v", par.Stats(), seq.Stats())
	}
	for k, c := range par.chunks {
		if !sameBitsAll(c.PrevB[0], seq.chunks[k].PrevB[0]) {
			t.Fatalf("chunk %d: pool run's checksums differ from the sequential run's", k)
		}
	}
}

// chunkedDetectsAndCorrects: single flips at random cells and at the cells a
// chunking makes special — a chunk's interior, the cells either side of a
// chunk boundary, a chunk corner, the domain corners — are detected and
// repaired exactly.
func chunkedDetectsAndCorrects(t *testing.T, ck chunking) {
	const iters = 30
	rng := rand.New(rand.NewSource(2))
	op := testOp(chunkNx, chunkNy)
	init := testInit(rng, chunkNx, chunkNy)
	want := referenceRun(op, init, iters)
	cells := [][2]int{{4, 4}, {ck.bx - 1, ck.by + 1}, {ck.bx % chunkNx, ck.by % chunkNy}, {0, 0}, {chunkNx - 1, chunkNy - 1}, {15, 16}}
	for trial := 0; trial < 30; trial++ {
		inj := fault.RandomSingle(rng, iters, chunkNx, chunkNy, 1, 64)
		if trial < len(cells) {
			inj.X, inj.Y = min(cells[trial][0], chunkNx-1), min(cells[trial][1], chunkNy-1)
		}
		// Fraction bits too low to clear the detection threshold are
		// TestOnline2DBelowThresholdHarmless's.
		if inj.Bit < 30 {
			inj.Bit = 30 + rng.Intn(34)
		}
		o := opts64()
		injector := fault.NewInjector[float64](fault.NewPlan(inj))
		o.Inject = injector
		p, err := NewBlocked2D(op, init, ck.bx, ck.by, o)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		if len(injector.Hits()) != 1 {
			t.Fatalf("trial %d: injection %v did not land", trial, inj)
		}
		if st := p.Stats(); st.Detections != 1 || st.CorrectedPoints != 1 {
			t.Fatalf("trial %d: injection %v not handled (stats %v)", trial, inj, st)
		}
		if !sameBitsAll(p.Grid().Data(), want.Data()) {
			t.Fatalf("trial %d: residual %g after the repair of %v", trial, p.Grid().MaxAbsDiff(want), inj)
		}
	}
}

// chunkedRepairIsBitwise is the repair contract: for every bit position the
// detector flags, the owning chunk — and no other — re-evaluates the row from
// the intact previous iteration, and the run ends bit-identical to the
// fault-free one: grid and every chunk's verified checksums, with no chunk
// having taken the two-vector path.
func chunkedRepairIsBitwise[T num.Float](t *testing.T, ck chunking, eps T) {
	rng := rand.New(rand.NewSource(61))
	const nx, ny, iters = 30, 26, 12
	op := &stencil.Op2D[T]{St: stencil.NinePoint[T]([9]T{0.05, 0.1, 0.05, 0.1, 0.4, 0.1, 0.05, 0.1, 0.05}), BC: grid.Mirror}
	init := grid.New[T](nx, ny)
	init.FillFunc(func(x, y int) T { return T(300 + 10*rng.Float64()) })
	opt := Options[T]{Detector: checksum.Detector[T]{Epsilon: eps, AbsFloor: 1}}
	clean, err := NewBlocked2D(op, init, ck.bx, ck.by, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean.Run(iters)
	flipEveryBit[T](t, func(inj fault.Injection) bool {
		// Cells walk over chunk interiors, chunk edges and the domain border.
		inj.X, inj.Y = (7*inj.Bit)%nx, (5*inj.Bit)%ny
		o := opt
		o.Inject = fault.NewInjector[T](fault.NewPlan(inj))
		if inj.Bit%2 == 1 {
			o.Pool = &stencil.Pool{Workers: 3}
			defer o.Pool.Close()
		}
		p, err := NewBlocked2D(op, init, ck.bx, ck.by, o)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(iters)
		st := p.Stats()
		if st.Detections == 0 {
			return false
		}
		if st.Detections != 1 || st.FlaggedBlocks != min(len(p.chunks)-1, 1) || st.CorrectedPoints != 1 || st.ChecksumRepairs != 0 {
			t.Fatalf("%v: %+v", inj, st)
		}
		if !sameBitsAll(p.Grid().Data(), clean.Grid().Data()) {
			t.Fatalf("%v: repaired run is not bitwise the fault-free run (max diff %g)", inj, p.Grid().MaxAbsDiff(clean.Grid()))
		}
		for k, c := range p.chunks {
			if h := c.y1 - c.y0; !sameBitsAll(c.PrevB[0][c.hy:c.hy+h], clean.chunks[k].PrevB[0][c.hy:c.hy+h]) {
				t.Fatalf("%v: chunk %d checksums differ from the fault-free run's", inj, k)
			}
			if c.interpA != nil {
				t.Fatalf("%v: a located flip took the two-vector path in chunk %d", inj, k)
			}
		}
		return true
	})
}

// twoVectorRef is the online step with the two-vector locate on every
// detection — the method as it was before rows were re-evaluated and before
// there was a chunk: per rectangle, assembled from the package-level pieces,
// every halo sum read one cell at a time through the boundary condition. The
// fallback tests run it beside the protector. Its interpolation is the
// engine's own (Interp2D.Interpolate, the routine the chunk's repair calls
// through Interp3D), so these rows check the chunk's bookkeeping, not the
// interpolation:
// checksum.TestInterpolateGenerated holds that to a per-entry reference.
type twoVectorRef struct {
	op                    *stencil.Op2D[float64]
	buf                   *grid.Buffer[float64]
	det                   checksum.Detector[float64]
	corr                  checksum.Corrector[float64]
	blocks                []*refBlock
	detections, corrected int
	checksumRepairs       int
}

type refBlock struct {
	x0, y0, x1, y1             int
	ip                         *checksum.Interp2D[float64]
	prevB, newB, interpB, bExt []float64
	newA, aExt, interpA        []float64
	flagged                    bool
}

func newTwoVectorRef(t *testing.T, p *Online2D[float64], op *stencil.Op2D[float64], init *grid.Grid[float64], opt Options[float64]) *twoVectorRef {
	q := &twoVectorRef{op: op, buf: grid.BufferFrom(init), det: opt.Detector,
		corr: checksum.Corrector[float64]{PaperExact: opt.PaperExactCorrection}}
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	for _, c := range p.chunks {
		w, h := c.x1-c.x0, c.y1-c.y0
		ip, err := checksum.NewInterp2DRect(op, init.Nx(), init.Ny(), c.x0, c.y0, c.x1, c.y1)
		if err != nil {
			t.Fatal(err)
		}
		b := &refBlock{x0: c.x0, y0: c.y0, x1: c.x1, y1: c.y1, ip: ip,
			prevB: make([]float64, h), newB: make([]float64, h), interpB: make([]float64, h), bExt: make([]float64, h+2*ry),
			newA: make([]float64, w), aExt: make([]float64, w+2*rx), interpA: make([]float64, w)}
		stencil.ChecksumBRect(q.buf.Read, b.x0, b.y0, b.x1, b.y1, b.prevB)
		q.blocks = append(q.blocks, b)
	}
	return q
}

func (q *twoVectorRef) step(sites []stencil.Site[float64]) {
	src, dst := q.buf.Read, q.buf.Write
	rx, ry := q.op.St.RadiusX(), q.op.St.RadiusY()
	bg := grid.BoundedGrid[float64]{G: src, Cond: q.op.BC, ConstVal: q.op.BCValue}
	span := func(x0, y0, x1, y1 int) (s float64) {
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				s += bg.At(x, y)
			}
		}
		return s
	}
	for _, b := range q.blocks {
		q.op.SweepRectFused(dst, src, b.x0, b.y0, b.x1, b.y1, b.newB, sites)
	}
	any := false
	for _, b := range q.blocks {
		h := b.y1 - b.y0
		for j := 0; j < ry; j++ {
			b.bExt[j] = span(b.x0, b.y0-ry+j, b.x1, b.y0-ry+j+1)
			b.bExt[ry+h+j] = span(b.x0, b.y1+j, b.x1, b.y1+j+1)
		}
		copy(b.bExt[ry:], b.prevB)
		b.ip.Interpolate(checksum.VecB, b.bExt, bg, b.interpB)
		b.flagged = q.det.AnyMismatch(b.newB, b.interpB)
		any = any || b.flagged
	}
	if any {
		q.detections++
	}
	for _, b := range q.blocks {
		if b.flagged {
			w := b.x1 - b.x0
			for i := 0; i < rx; i++ {
				b.aExt[i] = span(b.x0-rx+i, b.y0, b.x0-rx+i+1, b.y1)
				b.aExt[rx+w+i] = span(b.x1+i, b.y0, b.x1+i+1, b.y1)
			}
			stencil.ChecksumARect(src, b.x0, b.y0, b.x1, b.y1, b.aExt[rx:rx+w])
			b.ip.Interpolate(checksum.VecA, b.aExt, bg, b.interpA)
			stencil.ChecksumARect(dst, b.x0, b.y0, b.x1, b.y1, b.newA)
			n := q.corr.RepairRect(q.det, checksum.PairByResidual, dst, b.x0, b.y0, b.x1, b.y1, b.newA, b.newB, b.interpA, b.interpB)
			q.corrected += n
			if n == 0 {
				q.checksumRepairs++
			}
		}
		b.prevB, b.newB = b.newB, b.prevB
	}
	q.buf.Swap()
}

// sameAsTwoVector fails unless the protector and the two-vector reference
// are in the same state, bit for bit, with the same repair counters.
func sameAsTwoVector(t *testing.T, what string, p *Online2D[float64], q *twoVectorRef) {
	t.Helper()
	st := p.Stats()
	if st.Detections != q.detections || st.CorrectedPoints != q.corrected || st.ChecksumRepairs != q.checksumRepairs {
		t.Fatalf("%s: stats %+v, two-vector reference detections=%d corrected=%d checksum-repairs=%d",
			what, st, q.detections, q.corrected, q.checksumRepairs)
	}
	if !sameBitsAll(p.Grid().Data(), q.buf.Read.Data()) {
		t.Fatalf("%s: grid differs from the two-vector reference by %g", what, p.Grid().MaxAbsDiff(q.buf.Read))
	}
	for k, c := range p.chunks {
		if !sameBitsAll(c.PrevB[0][c.hy:c.hy+c.y1-c.y0], q.blocks[k].prevB) {
			t.Fatalf("%s: chunk %d's verified checksums differ from the two-vector reference", what, k)
		}
	}
}

// chunkedFallback covers the inputs re-evaluation cannot serve. Each must
// end exactly where the two-vector locate alone would have ended.
func chunkedFallback(t *testing.T, ck chunking) {
	const nx, ny, iters = 24, 20, 14
	rng := rand.New(rand.NewSource(63))
	op := testOp(nx, ny)
	init := testInit(rng, nx, ny)
	pair := func(opt Options[float64]) (*Online2D[float64], *twoVectorRef) {
		p, err := NewBlocked2D(op, init, ck.bx, ck.by, opt)
		if err != nil {
			t.Fatal(err)
		}
		return p, newTwoVectorRef(t, p, op, init, opt)
	}

	t.Run("flip in the read buffer between steps", func(t *testing.T) {
		// The sweep reads the corrupted cell, so re-evaluating the rows it
		// spoiled reproduces them: nothing changes and the fresh entries
		// still disagree. Only the chunk that owns the cell can tell — its
		// neighbours' halo sums are taken from the corrupted grid — and it
		// takes the two-vector path.
		for _, bit := range []int{40, 51, 55, 62} {
			p, q := pair(opts64())
			for i := 0; i < iters; i++ {
				if i == 6 {
					for _, g := range []*grid.Grid[float64]{p.buf.Read, q.buf.Read} {
						g.Set(9, 11, num.FlipBit(g.At(9, 11), bit))
					}
				}
				p.Step()
				q.step(nil)
			}
			took := 0
			for _, c := range p.chunks {
				if c.interpA != nil {
					took++
				}
			}
			if p.Stats().Detections == 0 || took != 1 {
				t.Fatalf("bit %d: %d chunk(s) took the two-vector path, stats %+v", bit, took, p.Stats())
			}
			sameAsTwoVector(t, fmt.Sprintf("bit %d", bit), p, q)
		}
	})

	t.Run("corrupted checksum entry", func(t *testing.T) {
		// A site in the last chunk swept that leaves its cell alone and
		// spoils the fused entry of a row of the first chunk instead: the
		// domain is intact, re-evaluating the row changes no cell and
		// refreshes the entry.
		opt, ps := opts64(), siteList[float64]{}
		opt.Inject = ps
		p, q := pair(opt)
		c := p.chunks[0]
		ps[5] = []stencil.Site[float64]{{X: nx - 1, Y: ny - 1, Mutate: func(v float64) float64 { c.NewB[0][c.hy+1] += 1e3; return v }}}
		for i := 0; i < iters; i++ {
			var qs []stencil.Site[float64]
			if i == 5 {
				qs = []stencil.Site[float64]{{X: nx - 1, Y: ny - 1, Mutate: func(v float64) float64 { q.blocks[0].newB[1] += 1e3; return v }}}
			}
			p.Step()
			q.step(qs)
		}
		if st := p.Stats(); st.Detections != 1 || st.CorrectedPoints != 0 || st.ChecksumRepairs != 1 {
			t.Fatalf("stats %+v", st)
		}
		sameAsTwoVector(t, "corrupted entry", p, q)
		if want := referenceRun(op, init, iters); !sameBitsAll(p.Grid().Data(), want.Data()) {
			t.Fatal("a corrupted checksum entry changed the domain")
		}
	})

	t.Run("PaperExactCorrection", func(t *testing.T) {
		// The paper's algebra is asked for and all of it is given: no row
		// is re-evaluated, every detection is an Equation-(10) repair.
		opt := opts64()
		opt.PaperExactCorrection = true
		for bit := 30; bit < 64; bit++ {
			o := opt
			inj := fault.NewInjector[float64](fault.NewPlan(fault.Injection{Iteration: 3, X: bit % nx, Y: (7 * bit) % ny, Bit: bit}))
			o.Inject = inj
			p, q := pair(o)
			for i := 0; i < iters; i++ {
				p.Step()
				q.step(inj.SitesFor(i))
			}
			sameAsTwoVector(t, fmt.Sprintf("bit %d", bit), p, q)
		}
	})
}

// TestChunkedGenerated is the contract over generated configurations: random
// stencil points within radius 2, the five boundary conditions, odd sizes, a
// chunking, both element types, with and without a pool and a constant
// field, and 0-2 flips of a high bit at domain corners, chunk corners and
// random cells. The protected run ends bitwise equal to the unprotected one,
// every flip is repaired by the chunk that owns it and flags no other, and
// the chunking that is the whole domain reports what the Online protector
// reports. Its 3-D axis holds the chunk of a layer stack to the same
// contract (chunkedGenerated3D). A failing case is named by its seed.
func TestChunkedGenerated(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if seed%2 == 0 {
				chunkedGenerated[float32](t, seed)
			} else {
				chunkedGenerated[float64](t, seed)
			}
		})
		t.Run(fmt.Sprintf("3d/%d", seed), func(t *testing.T) {
			if seed%2 == 0 {
				chunkedGenerated3D[float32](t, seed)
			} else {
				chunkedGenerated3D[float64](t, seed)
			}
		})
	}
}

// chunkedGenerated3D is the contract's 3-D axis: 1, 2 or 5 layers, stencil
// points within radius 2 that reach across layers wherever there are layers
// to reach, the five boundary conditions, odd sizes, both element types, with
// and without a pool and a constant field, and 0-2 flips of a high bit on the
// faces of the layers and slabs. Two frames: the whole domain (Online3D's one
// chunk), and the domain cut into z-slabs, each a frame of its layers between
// RadiusZ ghost layers with the chunk inset by them — the frames the test
// refills every step, from the neighbouring slab or through the boundary
// condition, as a slab rank does. Both end bitwise equal to None3D, with
// exact stats: every flip is repaired by the chunk that owns it and flags no
// other.
func chunkedGenerated3D[T num.Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const iters = 8
	nz, r := []int{1, 2, 5}[rng.Intn(3)], 1+rng.Intn(2)
	rz := min(r, nz-1)
	if rng.Intn(4) == 0 {
		rz = 0
	}
	st := &stencil.Stencil[T]{Name: "generated", Points: []stencil.Point[T]{{W: 0.4}}}
	used := map[[3]int]bool{{}: true}
	if rz > 0 { // a point at the z-radius, on either side
		d := rz * (1 - 2*rng.Intn(2))
		st.Points = append(st.Points, stencil.Point[T]{DZ: d, W: 0.05})
		used[[3]int{0, 0, d}] = true
	}
	for k := 2 + rng.Intn(7); k > 0; k-- {
		d := [3]int{rng.Intn(2*r+1) - r, rng.Intn(2*r+1) - r, rng.Intn(2*rz+1) - rz}
		if !used[d] {
			used[d] = true
			st.Points = append(st.Points, stencil.Point[T]{DX: d[0], DY: d[1], DZ: d[2], W: T(0.02 + 0.05*rng.Float64())})
		}
	}
	nx, ny := 2*(3+rng.Intn(6))+1, 2*(3+rng.Intn(6))+1
	op := &stencil.Op3D[T]{St: st, BC: grid.Boundary(seed % 5), BCValue: 280}
	if rng.Intn(2) == 0 {
		op.C = grid.New3D[T](nx, ny, nz)
		op.C.FillFunc(func(x, y, z int) T { return T(0.5 * rng.Float64()) })
	}
	init := grid.New3D[T](nx, ny, nz)
	init.FillFunc(func(x, y, z int) T { return T(300 + 10*rng.Float64()) })
	opt := Options[T]{}
	if rng.Intn(3) == 0 {
		opt.Pool = &stencil.Pool{Workers: 3}
		defer opt.Pool.Close()
	}
	// The slabs: mostly as many as are thicker than the z-radius, else fewer.
	ns := nz / (rz + 1)
	if rng.Intn(3) == 0 {
		ns = 1 + rng.Intn(ns)
	}
	bounds := make([]int, ns+1)
	for i := range bounds {
		bounds[i] = i*(nz/ns) + min(i, nz%ns)
	}
	what := fmt.Sprintf("%dx%dx%d %s %d points radius %d/%d/%d, %d slab(s)", nx, ny, nz, op.BC, len(st.Points), st.RadiusX(), st.RadiusY(), rz, ns)

	none, err := NewNone3D(op, init, opt)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	none.Run(iters)

	// Flips of a sign, exponent or top fraction bit at distinct cells of a
	// face layer of a slab, on the layer's edges or anywhere in it.
	var injs []fault.Injection
	var whole Stats                 // what the whole domain's chunk must report
	owned := make([]Stats, ns)      // and each slab's
	iterations := map[[2]int]bool{} // (slab or -1 for the whole domain, iteration)
	top := num.BitWidth[T]() - 1
	for n := rng.Intn(3); n > 0; n-- {
		s := rng.Intn(ns)
		inj := fault.Injection{Iteration: 1 + rng.Intn(iters-1),
			X: []int{0, nx - 1, rng.Intn(nx)}[rng.Intn(3)], Y: []int{0, ny - 1, rng.Intn(ny)}[rng.Intn(3)],
			Z: []int{bounds[s], bounds[s+1] - 1}[rng.Intn(2)], Bit: top - rng.Intn(top/6)}
		if len(injs) == 1 && injs[0].X == inj.X && injs[0].Y == inj.Y && injs[0].Z == inj.Z {
			continue
		}
		injs = append(injs, inj)
		for k, st := range map[int]*Stats{-1: &whole, s: &owned[s]} {
			st.CorrectedPoints++
			if !iterations[[2]int{k, inj.Iteration}] {
				iterations[[2]int{k, inj.Iteration}] = true
				st.Detections++
			}
		}
	}
	check := func(frame string, got *grid.Grid3D[T], st, want Stats) {
		t.Helper()
		if !sameBitsAll(got.Data(), none.Grid3D().Data()) {
			t.Fatalf("%s, %s, flips %v: protected run differs from the unprotected one by %g", what, frame, injs, got.MaxAbsDiff(none.Grid3D()))
		}
		want.Iterations, want.Verifications = iters, iters
		if st != want {
			t.Fatalf("%s, %s, flips %v: stats %+v, want %+v", what, frame, injs, st, want)
		}
	}

	o := opt
	o.Inject = fault.NewInjector[T](fault.NewPlan(injs...))
	p, err := NewOnline3D(op, init, o)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	p.Run(iters)
	check("whole domain", p.Grid3D(), p.Stats(), whole)

	// The slab frames, stepped in lockstep: every ghost layer refilled from
	// iteration t before any slab sweeps.
	type slab struct {
		z0, z1 int
		buf    *grid.Buffer3D[T]
		ch     *Chunk[T]
		inj    *fault.Injector[T]
		stats  Stats
	}
	plane := nx * ny
	slabs := make([]*slab, ns)
	for i := range slabs {
		s := &slab{z0: bounds[i], z1: bounds[i+1]}
		fnz := s.z1 - s.z0 + 2*rz
		fop := &stencil.Op3D[T]{St: st, BC: op.BC, BCValue: op.BCValue}
		if op.C != nil {
			fop.C = grid.New3D[T](nx, ny, fnz)
			copy(fop.C.Data()[rz*plane:], op.C.Data()[s.z0*plane:s.z1*plane])
		}
		s.buf = grid.NewBuffer3D[T](nx, ny, fnz)
		copy(s.buf.Read.Data()[rz*plane:], init.Data()[s.z0*plane:s.z1*plane])
		var local []fault.Injection
		for _, inj := range injs {
			if s.z0 <= inj.Z && inj.Z < s.z1 {
				inj.Z += rz - s.z0
				local = append(local, inj)
			}
		}
		s.inj = fault.NewInjector[T](fault.NewPlan(local...))
		if s.ch, err = NewChunk(fop, s.buf, 0, 0, rz, nx, ny, fnz-rz, st.RadiusY(), opt); err != nil {
			t.Fatalf("%s: slab %d: %v", what, i, err)
		}
		slabs[i] = s
	}
	ghost := func(dst *grid.Grid[T], gz int) {
		z, ok := op.BC.ResolveIndex(gz, nz)
		switch {
		case !ok && op.BC == grid.Constant:
			dst.Fill(op.BCValue)
		case !ok:
			dst.Fill(0)
		default:
			for _, o := range slabs {
				if o.z0 <= z && z < o.z1 {
					dst.CopyFrom(o.buf.Read.Layer(rz + z - o.z0))
				}
			}
		}
	}
	for i := 0; i < iters; i++ {
		for _, s := range slabs {
			for j := range rz {
				ghost(s.buf.Read.Layer(j), s.z0-rz+j)
				ghost(s.buf.Read.Layer(rz+s.z1-s.z0+j), s.z1+j)
			}
		}
		for _, s := range slabs {
			s.ch.Step(opt.Pool, s.inj.SitesFor(i), &s.stats, nil)
			s.buf.Swap()
			s.stats.Iterations++
		}
	}
	got := grid.New3D[T](nx, ny, nz)
	for _, s := range slabs {
		copy(got.Data()[s.z0*plane:s.z1*plane], s.buf.Read.Data()[rz*plane:])
	}
	for k, s := range slabs {
		check(fmt.Sprintf("slab %d of %d", k, ns), got, s.stats, owned[k])
	}
}

func chunkedGenerated[T num.Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	const iters = 10
	r := 1 + rng.Intn(2)
	st := &stencil.Stencil[T]{Name: "generated", Points: []stencil.Point[T]{{W: 0.4}}}
	used := map[[2]int]bool{{0, 0}: true}
	for k := 2 + rng.Intn(7); k > 0; k-- {
		d := [2]int{rng.Intn(2*r+1) - r, rng.Intn(2*r+1) - r}
		if !used[d] {
			used[d] = true
			st.Points = append(st.Points, stencil.Point[T]{DX: d[0], DY: d[1], W: T(0.02 + 0.05*rng.Float64())})
		}
	}
	nx, ny := 2*(4+rng.Intn(14))+1, 2*(4+rng.Intn(14))+1
	op := &stencil.Op2D[T]{St: st, BC: grid.Boundary(seed % 5), BCValue: 280}
	if rng.Intn(2) == 0 {
		op.C = grid.New[T](nx, ny)
		op.C.FillFunc(func(x, y int) T { return T(0.5 * rng.Float64()) })
	}
	init := grid.New[T](nx, ny)
	init.FillFunc(func(x, y int) T { return T(300 + 10*rng.Float64()) })
	cks := chunkings(nx, ny, st.RadiusX(), st.RadiusY())
	ck := cks[rng.Intn(len(cks))]
	if ck.name == "odd remainder" {
		ck.bx, ck.by = 5+rng.Intn(4), 3+rng.Intn(5)
	}
	opt := Options[T]{}
	if rng.Intn(3) == 0 {
		opt.Pool = &stencil.Pool{Workers: 3}
		defer opt.Pool.Close()
	}
	what := fmt.Sprintf("%dx%d %s %d points radius %d/%d, chunks %dx%d", nx, ny, op.BC, len(st.Points), st.RadiusX(), st.RadiusY(), ck.bx, ck.by)

	none, err := NewNone2D(op, init, opt)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	none.Run(iters)
	probe, err := NewBlocked2D(op, init, ck.bx, ck.by, opt)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}

	// Flips of a sign, exponent or top fraction bit, at distinct cells.
	var injs []fault.Injection
	owners := map[[2]int]bool{} // (iteration, owning chunk)
	iterations := map[int]bool{}
	top := num.BitWidth[T]() - 1
	for n := rng.Intn(3); n > 0; n-- {
		c := probe.chunks[rng.Intn(len(probe.chunks))]
		cell := [][2]int{{0, 0}, {nx - 1, ny - 1}, {0, ny - 1}, {c.x0, c.y0}, {c.x1 - 1, c.y1 - 1}, {c.x1 - 1, c.y0}, {rng.Intn(nx), rng.Intn(ny)}}[rng.Intn(7)]
		inj := fault.Injection{Iteration: 1 + rng.Intn(iters-1), X: cell[0], Y: cell[1], Bit: top - rng.Intn(top/6)}
		if len(injs) == 1 && injs[0].X == inj.X && injs[0].Y == inj.Y {
			continue
		}
		injs = append(injs, inj)
		iterations[inj.Iteration] = true
		for k, c := range probe.chunks {
			if inj.X >= c.x0 && inj.X < c.x1 && inj.Y >= c.y0 && inj.Y < c.y1 {
				owners[[2]int{inj.Iteration, k}] = true
			}
		}
	}
	run := func(build func() (*Online2D[T], error)) *Online2D[T] {
		opt.Inject = fault.NewInjector[T](fault.NewPlan(injs...))
		p, err := build()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		p.Run(iters)
		return p
	}
	p := run(func() (*Online2D[T], error) { return NewBlocked2D(op, init, ck.bx, ck.by, opt) })
	if !sameBitsAll(p.Grid().Data(), none.Grid().Data()) {
		t.Fatalf("%s, flips %v: protected run differs from the unprotected one by %g", what, injs, p.Grid().MaxAbsDiff(none.Grid()))
	}
	flagged := len(owners)
	if len(p.chunks) == 1 {
		flagged = 0
	}
	want := Stats{Iterations: iters, Verifications: iters * len(p.chunks),
		Detections: len(iterations), FlaggedBlocks: flagged, CorrectedPoints: len(injs)}
	if p.Stats() != want {
		t.Fatalf("%s, flips %v: stats %+v, want %+v", what, injs, p.Stats(), want)
	}
	if ck.name == "domain" {
		if online := run(func() (*Online2D[T], error) { return NewOnline2D(op, init, opt) }); online.Stats() != want {
			t.Fatalf("%s, flips %v: the Online protector reports %+v, its one-chunk chunking %+v", what, injs, online.Stats(), want)
		}
	}
}

// TestChunkGeometry pins how a domain is cut and what cannot be cut: a
// trailing remainder no wider than the radius joins the last full chunk, and
// a chunk no wider than the radius is refused as a thin tile — a client's
// mistake, named by its rectangle — where it used to be an untyped error or
// an interpolator's complaint about a domain.
func TestChunkGeometry(t *testing.T) {
	for _, c := range []struct {
		n, s, r int
		want    []int
	}{
		{20, 8, 1, []int{0, 8, 16, 20}},
		{17, 8, 1, []int{0, 8, 17}}, // remainder 1 merged
		{18, 8, 2, []int{0, 8, 18}}, // remainder 2 merged under radius 2
		{10, 4, 1, []int{0, 4, 8, 10}},
		{9, 9, 1, []int{0, 9}},
		{9, 40, 1, []int{0, 9}},
	} {
		if got := cuts(c.n, c.s, c.r); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("cuts(%d, %d, %d) = %v, want %v", c.n, c.s, c.r, got, c.want)
		}
	}

	wide := &stencil.Op2D[float64]{St: &stencil.Stencil[float64]{Name: "wide", Points: []stencil.Point[float64]{
		{W: 0.6}, {DX: -2, W: 0.1}, {DX: 2, W: 0.1}, {DY: -1, W: 0.1}, {DY: 1, W: 0.1}}}, BC: grid.Clamp}
	init := testInit(rand.New(rand.NewSource(10)), 16, 16)
	for _, b := range [][2]int{{1, 4}, {2, 4}, {4, 1}} {
		_, err := NewBlocked2D(wide, init, b[0], b[1], opts64())
		if !errors.Is(err, errs.ErrThinTile) || !errors.Is(err, errs.ErrInvalidSpec) {
			t.Errorf("%dx%d chunks under radius 2/1: error %v is not a thin tile", b[0], b[1], err)
		}
	}
	if _, err := NewBlocked2D(wide, init, 0, 8, opts64()); !errors.Is(err, errs.ErrInvalidSpec) {
		t.Errorf("zero chunk width: %v", err)
	}
	if p, err := NewBlocked2D(wide, init, 3, 2, opts64()); err != nil || len(p.chunks) != 5*8 {
		t.Errorf("3x2 chunks under radius 2/1: %v", err)
	}
}

// TestBlockGranularityImprovesSensitivity pins the motivation for per-chunk
// application (paper Section 3.4): a corruption whose relative effect on a
// whole-domain checksum sits below the threshold is still visible against a
// block's much smaller checksum. A fraction-bit flip of ~0.25 on a 256-wide
// row of ~300-valued float32 cells moves the whole-row sum by 3e-6 relative
// (invisible at epsilon=1e-5) but a 16-wide block sum by 5e-5 (flagged).
func TestBlockGranularityImprovesSensitivity(t *testing.T) {
	const nx, ny = 256, 32
	op := &stencil.Op2D[float32]{St: stencil.Laplace5[float32](0.2), BC: grid.Clamp}
	init := grid.New[float32](nx, ny)
	init.FillFunc(func(x, y int) float32 { return 300 + float32(x%5) })
	run := func(bx, by int) Stats {
		inj := fault.NewInjector[float32](fault.NewPlan(fault.Injection{Iteration: 4, X: 130, Y: 15, Bit: 13}))
		p, err := NewBlocked2D(op, init, bx, by, Options[float32]{Inject: inj})
		if err != nil {
			t.Fatal(err)
		}
		p.Run(10)
		if len(inj.Hits()) != 1 {
			t.Fatal("injection did not land")
		}
		return p.Stats()
	}
	if st := run(nx, ny); st.Detections != 0 {
		t.Fatalf("whole-domain run detected the flip; the test magnitude is miscalibrated: %+v", st)
	}
	if st := run(16, 16); st.Detections == 0 || st.CorrectedPoints == 0 {
		t.Fatalf("blocked run missed the flip at the same epsilon: %+v", st)
	}
}

// TestDropBoundaryTermsPlumbed: with an asymmetric stencil under clamp
// boundaries the paper's dropped-term interpolation misfires per chunk,
// while the exact default stays silent — proving the A1 ablation knob
// actually reaches the chunks' interpolators.
func TestDropBoundaryTermsPlumbed(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Advect2D(0.3, 0.15), BC: grid.Clamp}
	init := grid.New[float64](48, 48)
	init.FillFunc(func(x, y int) float64 {
		if x < 6 {
			return 100
		}
		return 1
	})
	run := func(drop bool) Stats {
		o := opts64()
		o.DropBoundaryTerms = drop
		p, err := NewBlocked2D(op, init, 16, 16, o)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(20)
		return p.Stats()
	}
	if st := run(false); st.Detections != 0 {
		t.Fatalf("exact interpolation raised false positives: %+v", st)
	}
	if st := run(true); st.Detections == 0 {
		t.Fatal("dropped boundary terms should misfire on an asymmetric stencil")
	}
}

// TestDropBoundaryTermsDropsAlpha: the A1 knob drops the window-shift terms
// from both vectors, as its doc says — the row checksums of the
// Equation-(10) path included, which used to interpolate alpha exactly while
// the column checksums and the offline cone chain dropped it. A flagged flip
// under PaperExactCorrection takes the one-chunk Online2D down that path; its
// interpolated row checksums must be the per-entry dropped-alpha form, bit
// for bit.
func TestDropBoundaryTermsDropsAlpha(t *testing.T) {
	const nx, ny = 24, 20
	op := &stencil.Op2D[float64]{St: stencil.Advect2D(0.3, 0.15), BC: grid.Clamp}
	init := testInit(rand.New(rand.NewSource(65)), nx, ny)
	o := opts64()
	o.DropBoundaryTerms, o.PaperExactCorrection = true, true
	o.Inject = siteList[float64]{0: {{X: 7, Y: 9, Mutate: func(v float64) float64 { return num.FlipBit(v, 60) }}}}
	p, err := NewOnline2D(op, init, o)
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	c := p.chunks[0]
	if c.interpA == nil {
		t.Fatalf("the flagged flip did not take the two-vector path: %+v", p.Stats())
	}
	bg := grid.BoundedGrid[float64]{G: init, Cond: op.BC}
	for x := 0; x < nx; x++ {
		var want float64 // no constant field
		for _, pt := range op.St.Points {
			var a float64
			for y := 0; y < ny; y++ {
				a += bg.At(x+pt.DX, y)
			}
			want += pt.W * a
		}
		if !num.SameBits(c.interpA[0][x], want) {
			t.Fatalf("A[%d] = %v, the dropped-alpha interpolation %v", x, c.interpA[0][x], want)
		}
	}
}

// TestStep2DAllocFree pins the steady-state step of every 2-D runner at zero
// heap allocations, sequentially and on a pool of 2: no per-step closures,
// no edge view boxed per verification, no escaping WaitGroup. On the pool
// the one-chunk Online protector partitions rows and the 16x16 chunking
// partitions chunks. The offline protector is measured between
// verifications (its checkpoint save may allocate).
func TestStep2DAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	op, init := testOp(48, 40), testInit(rng, 48, 40)
	for _, workers := range []int{0, 2} {
		o := opts64()
		o.Period = 64 // more than the steps taken below: no verification is measured
		if workers > 0 {
			o.Pool = &stencil.Pool{Workers: workers}
			defer o.Pool.Close()
		}
		none, err := NewNone2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		online, err := NewOnline2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := NewOffline2D(op, init, o)
		if err != nil {
			t.Fatal(err)
		}
		blocked, err := NewBlocked2D(op, init, 16, 16, o)
		if err != nil {
			t.Fatal(err)
		}
		for name, step := range map[string]func(){"none": none.Step, "online": online.Step, "offline": offline.Step, "blocked 16x16": blocked.Step} {
			step() // first step builds the sweep plan and the constant-field sums
			if n := testing.AllocsPerRun(20, step); n != 0 {
				t.Errorf("%s, %d workers: %v allocations a step", name, workers, n)
			}
		}
	}
}

// TestSweepFedGenerated holds the layers Step verifies in one pass — every
// window-shift term computed in its pass, the screen fused into the last —
// to the ones Finish verifies after a plain sweep, bit for bit: seeded and
// generated over all five boundaries
// (Constant with a non-zero ghost), radius 1 or 2 on each axis or the star's
// 1, odd and even extents, nz from 2*RadiusZ+1 up, whole stacks and slabs
// between ghost layers, no pool and a pool of 2, and flips on the z-face
// rows, which the repair re-evaluates — interpolations, verdicts, fused
// checksums, grids and stats, step after step.
func TestSweepFedGenerated(t *testing.T) {
	pool := &stencil.Pool{Workers: 2}
	defer pool.Close()
	for seed := int64(1); seed <= 100; seed++ {
		sweepFedGenerated[float64](t, seed, pool)
		sweepFedGenerated[float32](t, seed, pool)
	}
}

// sweepFedGenerated runs one seeded configuration: star7 or generated
// points up to seed 60, a 27-point box up to 90, and beyond star7 under each
// boundary in turn — the seeds before draw no star7 under Clamp, where its
// west and east points are a mirror pair.
func sweepFedGenerated[T num.Float](t *testing.T, seed int64, pool *stencil.Pool) {
	rng := rand.New(rand.NewSource(seed))
	w := func() T { return T(0.02 + 0.12*rng.Float64()) }
	st := stencil.SevenPoint3D(0.3, w(), w(), w(), w(), w(), w())
	if seed <= 90 && rng.Intn(3) > 0 {
		r := [3]int{1 + rng.Intn(2), 1 + rng.Intn(2), 1 + rng.Intn(2)}
		st = &stencil.Stencil[T]{Name: "generated", Points: []stencil.Point[T]{{W: 0.3}}}
		used := map[[3]int]bool{{}: true}
		for _, d := range [][3]int{{r[0], 0, 0}, {0, -r[1], 0}, {0, 0, r[2]}, {-1, 1, -1}, {rng.Intn(3) - 1, rng.Intn(3) - 1, rng.Intn(3) - 1}} {
			if !used[d] {
				used[d] = true
				st.Points = append(st.Points, stencil.Point[T]{DX: d[0], DY: d[1], DZ: d[2], W: w()})
			}
		}
	}
	if seed > 60 && seed <= 90 {
		st = &stencil.Stencil[T]{Name: "box27"}
		for i := range 27 {
			st.Points = append(st.Points, stencil.Point[T]{DX: i%3 - 1, DY: i/3%3 - 1, DZ: i/9 - 1, W: w() / 4})
		}
	}
	rx, ry, rz := st.RadiusX(), st.RadiusY(), st.RadiusZ()
	nx, ny, nz := rx+2+rng.Intn(9), ry+2+rng.Intn(9), 2*rz+1+rng.Intn(4)
	op := &stencil.Op3D[T]{St: st, BC: grid.Boundary(rng.Intn(5)), BCValue: T(40 + 10*rng.Float64())}
	if seed > 90 {
		op.BC = grid.Boundary(seed % 5)
	}
	h := 0 // ghost layers of a slab's frame
	if rng.Intn(3) == 0 {
		h = rz
	}
	fnz := nz + 2*h
	if rng.Intn(2) == 0 {
		op.C = grid.New3D[T](nx, ny, fnz)
		op.C.FillFunc(func(x, y, z int) T { return T(rng.Float64()) })
	}
	init := grid.New3D[T](nx, ny, fnz)
	init.FillFunc(func(x, y, z int) T { return T(80 + 20*rng.Float64()) })
	var p *stencil.Pool
	if rng.Intn(2) == 0 {
		p = pool
	}
	what := fmt.Sprintf("%T seed %d: %q radius %d/%d/%d %s %dx%dx%d between %d ghost layers, pool=%v",
		T(0), seed, st.Name, rx, ry, rz, op.BC, nx, ny, nz, h, p != nil)
	build := func() (*grid.Buffer3D[T], *Chunk[T]) {
		frame := grid.Buffer3DFrom(init)
		c, err := NewChunk(op, frame, 0, 0, h, nx, ny, h+nz, ry, Options[T]{Pool: p})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return frame, c
	}
	fed, fedCh := build()
	own, ownCh := build()
	var fedSt, ownSt Stats
	for step := 0; step < 6; step++ {
		var sites []stencil.Site[T]
		if step%2 == 1 { // a flip on a z-face row of the box
			z, bit := h+[]int{0, nz - 1}[rng.Intn(2)], 50+rng.Intn(12)
			sites = []stencil.Site[T]{{X: rng.Intn(nx), Y: rng.Intn(ny), Z: z,
				Mutate: func(v T) T { return num.FlipBit(v, bit) }}}
		}
		fedCh.Step(p, sites, &fedSt, nil)
		op.SweepLayersInject(p, own.Write, own.Read, 0, 0, h, nx, ny, h+nz, ownCh.fused, sites)
		ownCh.Finish(p, ownCh.resweepFn, &ownSt, nil)
		for l := range nz {
			if !sameBitsAll(fedCh.interpB[l], ownCh.interpB[l]) || fedCh.flagged[l] != ownCh.flagged[l] {
				t.Fatalf("%s, step %d: layer %d interpolates %v (flagged %v) verified by Step, %v (%v) after the sweep",
					what, step, l, fedCh.interpB[l], fedCh.flagged[l], ownCh.interpB[l], ownCh.flagged[l])
			}
			if !sameBitsAll(fedCh.own(fedCh.PrevB, l), ownCh.own(ownCh.PrevB, l)) {
				t.Fatalf("%s, step %d: layer %d's verified checksums differ", what, step, l)
			}
		}
		fed.Swap()
		own.Swap()
		if !sameBitsAll(fed.Read.Data(), own.Read.Data()) || fedSt != ownSt {
			t.Fatalf("%s, step %d: grids or stats differ (%+v, %+v)", what, step, fedSt, ownSt)
		}
	}
	if fedSt.Detections == 0 {
		t.Fatalf("%s: no flip was detected (%+v)", what, fedSt)
	}
}
