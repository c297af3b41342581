package core

import (
	"slices"

	"stencilabft/internal/checksum"
	"stencilabft/internal/errs"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Chunk is the unit the paper's online method applies to — "the domain,
// chunk, or block" of Sections 3.4 and 5.1: a box [x0,x1) x [y0,y1) x
// [z0,z1) of a frame, the pair of layer stacks a sweep ping-pongs between. It
// owns the box's checksum state, one column checksum vector per layer — the
// method "applied independently within each layer" (Section 5.1), the layers
// coupled through the stencil's z points — and is the one implementation of
// interpolate → compare → re-evaluate the flagged rows → Equation (10).
//
// What lies outside the box is answered by the frame, by one halo rule. A
// line — a row, a column, a layer — beyond the box but inside the frame is
// summed from the frame as it stands: a neighbouring block's cells, a rank's
// halo rows received from its neighbour or synthesised from the boundary
// condition, a slab's ghost layers. A line beyond the frame is the boundary
// condition's projection: the box's own entry of the line it resolves to,
// that line summed from the frame, or a ghost line. So a domain is the chunk
// that is its whole frame, a block is one of N chunks of the domain, a rank's
// tile is the chunk inset by the halo widths in the rank's extended frame, and
// a z-slab is the chunk inset by its ghost layers; a 2-D frame is the
// one-layer stack (grid.Stack, Op2D.Stack). Nothing is exchanged in any of
// them: the window-shift sums the interpolation needs from beyond the box are
// O(r·(w+h)) partial sums a layer of the still-live t-grid.
//
// The owner sweeps, fusing the box's column checksums into NewB, and ends
// every step in Finish — verify, on a mismatch repair, then swap — beside the
// frame's own swap. A chunk of whole layers sweeps itself (Step).
type Chunk[T num.Float] struct {
	x0, y0, z0, x1, y1, z1 int
	rx, ry, rz, hy         int

	op   *stencil.Op3D[T] // the frame's operator: boundary condition, ghost value, 3-D sweep
	ip   *checksum.Interp3D[T]
	det  checksum.Detector[T]
	pol  checksum.PairPolicy
	corr checksum.Corrector[T]

	// src and dst are the frame's stacks of iteration t and t+1; edgeRead
	// and edgeWrite are them as the interpolator's edge stacks, boxed into
	// the EdgeSource interface once (boxing allocates). All swap alongside
	// the owner's grids.
	src, dst            *grid.Grid3D[T]
	edgeRead, edgeWrite []checksum.EdgeSource[T]

	// PrevB and NewB are the verified column checksums of iteration t and
	// the fused ones of t+1: stacks (Interp3D.NewStack) of the box's layers
	// between RadiusZ halo layers, each vector extended by hy entries each
	// side — entry hy+j of stack entry RadiusZ+l belongs to row y0+j of frame
	// layer z0+l. Verify fills the halo layers and the ry entries next to
	// each vector's own; the rest of the extension is the owner's (a rank
	// fuses the rows of its depth-k shell there).
	PrevB, NewB [][]T
	interpB     [][]T  // per box layer
	flagged     []bool // per box layer, the verdicts of the last verify
	// vecs holds one stack entry per frame layer the stacks hold, halo the
	// ones outside the box, whose vectors verify sums from the frame.
	vecs, halo []int

	// fused and fusedAlt view NewB and PrevB by frame layer and row, the way
	// the 3-D sweep fuses (fused[z][y] is row y of frame layer z) — for a
	// box of whole layers, which Step sweeps; nil otherwise.
	fused, fusedAlt [][]T
	// verifyLayers and resweep, bound once so a step allocates nothing.
	verifyFn  func(lo, hi int)
	resweepFn func(z, y int) T

	// Scratch of the repair path, allocated the first time the chunk is
	// flagged: newA, which doubles as the saved row of the re-evaluation;
	// then, the first time a detection takes the Equation-(10) path, the row
	// checksum stack, the interpolated row checksums per box layer and which
	// frame layers of the stack a repair has summed.
	newA    []T
	prevA   [][]T
	interpA [][]T
	have    []bool
}

// NewChunk builds the chunk over box [x0,x1) x [y0,y1) x [z0,z1) of frame,
// whose stacks op sweeps; hy >= RadiusY is the extension of the chunk's
// column checksum vectors. The frame's read stack holds iteration 0, assumed
// correct along with the checksums taken from it here (Theorem 2). A box no
// thicker than the stencil radius along an axis is a thin tile: a mistake of
// whoever declared the chunking or the decomposition.
func NewChunk[T num.Float](op *stencil.Op3D[T], frame *grid.Buffer3D[T], x0, y0, z0, x1, y1, z1, hy int, opt Options[T]) (*Chunk[T], error) {
	rx, ry, rz := op.St.RadiusX(), op.St.RadiusY(), op.St.RadiusZ()
	w, h, d := x1-x0, y1-y0, z1-z0
	for _, a := range []struct {
		n, r       int
		what, axis string
	}{{w, rx, "column(s) wide", "x"}, {h, ry, "row(s) tall", "y"}, {d, rz, "layer(s) deep", "z"}} {
		if a.n <= a.r {
			return nil, errs.Tagf([]error{errs.ErrThinTile, errs.ErrInvalidSpec}, "core: chunk [%d,%d)x[%d,%d)x[%d,%d) is only %d %s, need more than the stencil %s-radius %d",
				x0, x1, y0, y1, z0, z1, a.n, a.what, a.axis, a.r)
		}
	}
	src := frame.Read
	ip, err := checksum.NewInterp3DRect(op, src.Nx(), src.Ny(), src.Nz(), x0, y0, z0, x1, y1, z1)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	c := &Chunk[T]{
		x0: x0, y0: y0, z0: z0, x1: x1, y1: y1, z1: z1, rx: rx, ry: ry, rz: rz, hy: hy,
		op: op, ip: ip,
		det:     opt.Detector.WithDefaults(),
		pol:     opt.PairPolicy,
		corr:    checksum.Corrector[T]{PaperExact: opt.PaperExactCorrection},
		src:     frame.Read,
		dst:     frame.Write,
		PrevB:   ip.NewStack(checksum.VecB, hy),
		NewB:    ip.NewStack(checksum.VecB, hy),
		interpB: makeLayers[T](d, h),
		flagged: make([]bool, d),
	}
	c.verifyFn, c.resweepFn = c.verifyLayers, c.resweep
	c.edgeRead, c.edgeWrite = c.edges(frame.Read), c.edges(frame.Write)
	seen := make([]bool, src.Nz())
	for v := range c.PrevB {
		if f := ip.LayerOf(v); f >= 0 && !seen[f] {
			seen[f] = true
			c.vecs = append(c.vecs, v)
			if f < z0 || f >= z1 {
				c.halo = append(c.halo, v)
			}
		}
	}
	if x0 == 0 && y0 == 0 && x1 == src.Nx() && y1 == src.Ny() {
		c.fused, c.fusedAlt = c.byLayer(c.NewB), c.byLayer(c.PrevB)
	}
	// The layers' sums are independent: a stack's go over the pool, a 2-D
	// frame's one layer on the caller.
	opt.Pool.ForEachChunk(d, func(lo, hi int) {
		for l := lo; l < hi; l++ {
			stencil.ChecksumBRect(src.Layer(z0+l), x0, y0, x1, y1, c.own(c.PrevB, l))
		}
	})
	return c, nil
}

// edges boxes the layers of a stack of the frame as the interpolator's edge
// stack.
func (c *Chunk[T]) edges(g *grid.Grid3D[T]) []checksum.EdgeSource[T] {
	layers := make([]checksum.EdgeSource[T], g.Nz())
	for z := range layers {
		layers[z] = checksum.LiveEdges(g.Layer(z), c.op.BC, c.op.BCValue)
	}
	return c.ip.EdgeStack(nil, layers)
}

// byLayer views the own entries of a B stack by frame layer and row.
func (c *Chunk[T]) byLayer(stack [][]T) [][]T {
	out := make([][]T, c.src.Nz())
	for l := range c.z1 - c.z0 {
		out[c.z0+l] = stack[c.rz+l][c.hy:]
	}
	return out
}

// own returns box layer l's own entries of a B stack.
func (c *Chunk[T]) own(stack [][]T, l int) []T { return stack[c.rz+l][c.hy : c.hy+c.y1-c.y0] }

// extend fills the r entries each side of ext's own — ext a column checksum
// vector of frame layer g extended by h entries each side or, with cols, a
// row checksum vector — by the halo rule: a line inside the frame is summed
// from it over the box's span; one beyond the frame takes the entry of the
// line the boundary condition resolves it to, or a ghost line's sum.
func (c *Chunk[T]) extend(ext []T, h int, g *grid.Grid[T], cols bool) {
	r, lo, hi := c.ry, c.y0, c.y1
	if cols {
		r, lo, hi = c.rx, c.x0, c.x1
	}
	for j := 1; j <= r; j++ {
		for _, i := range [2]int{lo - j, hi + j - 1} {
			ext[h+i-lo] = c.lineSum(ext, h, g, i, cols)
		}
	}
}

// lineSum is ext's entry for frame row (with cols, column) i of g: the
// vector's own entry when i resolves into the box, otherwise the resolved
// line's cells over the box's span summed left to right (top to bottom), or
// the span times the ghost value where the condition has no cell to give.
func (c *Chunk[T]) lineSum(ext []T, h int, g *grid.Grid[T], i int, cols bool) T {
	n, lo, hi, slo, shi := g.Ny(), c.y0, c.y1, c.x0, c.x1
	if cols {
		n, lo, hi, slo, shi = g.Nx(), c.x0, c.x1, c.y0, c.y1
	}
	ri, ok := c.op.BC.ResolveIndex(i, n)
	switch {
	case !ok && c.op.BC == grid.Constant:
		return T(shi-slo) * c.op.BCValue
	case !ok:
		return 0
	case lo <= ri && ri < hi:
		return ext[h+ri-lo]
	case !cols:
		return num.Sum(g.Row(ri)[slo:shi])
	}
	var s T
	for y := slo; y < shi; y++ {
		s += g.At(ri, y)
	}
	return s
}

// verify interpolates the box's column checksums of iteration t+1 from the
// read stack and reports whether the fused ones in NewB disagree: first the
// halo — the halo layers' vectors summed from the frame, then every vector's
// ry entries next to its own — and then the layers, partitioned over pool.
func (c *Chunk[T]) verify(pool *stencil.Pool) bool {
	for _, v := range c.halo {
		stencil.ChecksumBRect(c.src.Layer(c.ip.LayerOf(v)), c.x0, c.y0, c.x1, c.y1, c.PrevB[v][c.hy:])
	}
	for _, v := range c.vecs {
		c.extend(c.PrevB[v], c.hy, c.src.Layer(c.ip.LayerOf(v)), false)
	}
	pool.ForEachChunk(c.z1-c.z0, c.verifyFn)
	return slices.Contains(c.flagged, true)
}

// verifyLayers verifies box layers [lo, hi), each interpolated and screened
// against its fused checksums in one pass; layers are independent, so ranges
// run concurrently.
func (c *Chunk[T]) verifyLayers(lo, hi int) {
	for l := lo; l < hi; l++ {
		c.flagged[l] = c.ip.Verify(l, c.PrevB, c.edgeRead, c.own(c.NewB, l), c.interpB[l], c.det)
	}
}

// repair is the detection slow path. The mismatching entries name the rows
// and the read stack still holds iteration t, so each flagged layer's
// flagged rows are re-evaluated (checksum.RepairRows): resweep(z, y) sweeps
// row y of frame layer z over the box from the read stack into the write
// stack again and returns the row's checksum entry composed the way the
// owner's sweep composes it. What that cannot serve — and all of it under
// PaperExactCorrection — takes the paper's two-vector path: the row checksum
// stack computed now (the previous one is recomputable from the read stack
// on demand — the property that lets the fast path maintain only one
// vector), for the frame layers the flagged layer's interpolation reads and
// extended by the halo rule, the mismatch lists intersected and
// Equation (10) applied. The outcome is booked to st.
func (c *Chunk[T]) repair(resweep func(z, y int) T, st *Stats) {
	w := c.x1 - c.x0
	if c.newA == nil {
		c.newA = make([]T, w)
	}
	pending := false
	for l, f := range c.flagged {
		if !f {
			continue
		}
		if !c.corr.PaperExact {
			z := c.z0 + l
			dst := c.dst.Layer(z)
			cells, ok := checksum.RepairRows(c.det, c.own(c.NewB, l), c.interpB[l], c.newA,
				func(j int) []T { return dst.Row(c.y0 + j)[c.x0:c.x1] },
				func(j int) T { return resweep(z, c.y0+j) })
			if ok {
				st.Repaired(cells)
				c.flagged[l] = false
				continue
			}
			st.CorrectedPoints += cells
		}
		pending = true
	}
	if !pending {
		return
	}
	if c.interpA == nil {
		c.prevA, c.interpA, c.have = c.ip.NewStack(checksum.VecA, c.rx), makeLayers[T](c.z1-c.z0, w), make([]bool, c.src.Nz())
	}
	clear(c.have)
	for l, f := range c.flagged {
		if !f {
			continue
		}
		// Layer l's interpolation reads stack entries l .. l+2·RadiusZ.
		for v := l; v <= l+2*c.rz; v++ {
			if z := c.ip.LayerOf(v); z >= 0 && !c.have[z] {
				g := c.src.Layer(z)
				stencil.ChecksumARect(g, c.x0, c.y0, c.x1, c.y1, c.prevA[v][c.rx:])
				c.extend(c.prevA[v], c.rx, g, true)
				c.have[z] = true
			}
		}
		dst := c.dst.Layer(c.z0 + l)
		c.ip.Interpolate(checksum.VecA, l, c.prevA, c.edgeRead, c.interpA[l])
		stencil.ChecksumARect(dst, c.x0, c.y0, c.x1, c.y1, c.newA)
		// No located point means the corruption sat in a checksum.
		st.Repaired(c.corr.RepairRect(c.det, c.pol, dst, c.x0, c.y0, c.x1, c.y1, c.newA, c.own(c.NewB, l), c.interpA[l], c.interpB[l]))
	}
}

// swap makes the fused checksums the verified ones, beside the frame's swap.
func (c *Chunk[T]) swap() {
	c.PrevB, c.NewB = c.NewB, c.PrevB
	c.src, c.dst = c.dst, c.src
	c.edgeRead, c.edgeWrite = c.edgeWrite, c.edgeRead
	c.fused, c.fusedAlt = c.fusedAlt, c.fused
}

// Finish is the tail of every step, once the owner's sweep has filled the
// write stack and NewB: verify, its layers partitioned over pool; on a
// mismatch repair, a flagged row re-evaluated through resweep (see repair);
// then swap. The outcome is booked to st and the phases timed on tel.
func (c *Chunk[T]) Finish(pool *stencil.Pool, resweep func(z, y int) T, st *Stats, tel *telemetry.Recorder) {
	t0 := tel.Begin()
	mismatch := c.verify(pool)
	st.Verifications++
	tel.End(telemetry.PhaseVerify, t0)
	if mismatch {
		st.Detections++
		t0 = tel.Begin()
		c.repair(resweep, st)
		tel.End(telemetry.PhaseRepair, t0)
	}
	c.swap()
}

// Step is the whole step of a chunk of whole layers: the 3-D sweep of the
// box's layers, their rows partitioned over pool, fusing NewB and applying
// sites (frame coordinates), then Finish, its layers partitioned over the
// same pool and a flagged row re-evaluated through the same sweep.
func (c *Chunk[T]) Step(pool *stencil.Pool, sites []stencil.Site[T], st *Stats, tel *telemetry.Recorder) {
	t0 := tel.Begin()
	c.op.SweepLayersInject(pool, c.dst, c.src, c.x0, c.y0, c.z0, c.x1, c.y1, c.z1, c.fused, sites)
	tel.End(telemetry.PhaseSweep, t0)
	c.Finish(pool, c.resweepFn, st, tel)
}

func (c *Chunk[T]) resweep(z, y int) T {
	b := c.fused[z]
	c.op.SweepRows(c.dst, c.src, z, c.x0, y, c.x1, y+1, b)
	return b[y]
}

// StateLen is the length of a PackState snapshot: the box's cells, then its
// verified column checksums.
func (c *Chunk[T]) StateLen() int {
	w, h, d := c.x1-c.x0, c.y1-c.y0, c.z1-c.z0
	return (w*h + h) * d
}

// PackState copies the chunk's restartable state into dst (len StateLen()):
// the box's rows layer by layer, then each layer's verified column checksums.
// Pure copies of IEEE-754 values, so a pack/restore round trip is bit-exact
// and a run resumed from it reproduces the uninterrupted one bit for bit.
// What lies outside the box is not state: the owner refreshes its halo at the
// next exchange. Call it between steps.
func (c *Chunk[T]) PackState(dst []T) { c.state(dst, true) }

// RestoreState is PackState's inverse.
func (c *Chunk[T]) RestoreState(src []T) { c.state(src, false) }

// state copies snapshot s out of the chunk (pack) or back into it.
func (c *Chunk[T]) state(s []T, pack bool) {
	i := 0
	move := func(v []T) {
		if pack {
			copy(s[i:], v)
		} else {
			copy(v, s[i:])
		}
		i += len(v)
	}
	for z := c.z0; z < c.z1; z++ {
		for y := c.y0; y < c.y1; y++ {
			move(c.src.Layer(z).Row(y)[c.x0:c.x1])
		}
	}
	for l := range c.z1 - c.z0 {
		move(c.own(c.PrevB, l))
	}
}

// makeLayers allocates nz vectors of n entries.
func makeLayers[T num.Float](nz, n int) [][]T {
	out := make([][]T, nz)
	for z := range out {
		out[z] = make([]T, n)
	}
	return out
}

// Online2D protects a 2-D stencil run with the paper's online ABFT scheme
// (Section 3) applied per chunk of the domain: one chunk that is the whole
// domain (NewOnline2D), or the tiles of the paper's Section 3.4/5.1
// (NewBlocked2D), where the detection threshold "depends on the domain,
// chunk, or block size on which the method is applied" — small blocks keep
// checksum magnitudes, and with them the round-off floor, low, so a tighter
// epsilon detects smaller corruptions. Per iteration a chunk pays one fused
// checksum accumulation and one O(h·k·(1+r)) interpolation; a detection
// re-evaluates the flagged rows, and the row-checksum passes of the
// Equation-(10) repair run only when that cannot serve.
type Online2D[T num.Float] struct {
	op     *stencil.Op2D[T]
	buf    *grid.Buffer[T]
	pool   *stencil.Pool
	inj    stencil.InjectSource[T]
	chunks []*Chunk[T]

	// The chunk functions the pool runs, bound once so a step allocates
	// nothing; sites is the running step's, flagged their verdicts.
	sweepChunks, verifyChunks func(lo, hi int)
	sites                     []stencil.Site[T]
	flagged                   []bool

	iter  int
	stats Stats
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// NewOnline2D builds the online protector whose one chunk is the domain,
// starting from the initial state init (copied; the caller's grid is not
// retained).
func NewOnline2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], opt Options[T]) (*Online2D[T], error) {
	return NewBlocked2D(op, init, init.Nx(), init.Ny(), opt)
}

// NewBlocked2D builds the online protector over chunks of nominal size
// bx-by-by. A trailing remainder no larger than the stencil radius is merged
// into the last full chunk of its axis, a chunk having to be wider than the
// radius. The chunks share the domain's one-layer stack views.
func NewBlocked2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], bx, by int, opt Options[T]) (*Online2D[T], error) {
	nx, ny := init.Nx(), init.Ny()
	if err := op.Validate(nx, ny); err != nil {
		return nil, err
	}
	if bx < 1 || by < 1 {
		return nil, errs.Tagf([]error{errs.ErrInvalidSpec}, "core: invalid chunk size %dx%d", bx, by)
	}
	p := &Online2D[T]{op: op, buf: grid.BufferFrom(init), pool: opt.Pool, inj: opt.Inject, tel: opt.Telemetry}
	sop, frame := op.Stack(), p.buf.Stack()
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	xs, ys := cuts(nx, bx, rx), cuts(ny, by, ry)
	for j := 0; j+1 < len(ys); j++ {
		for i := 0; i+1 < len(xs); i++ {
			c, err := NewChunk(sop, frame, xs[i], ys[j], 0, xs[i+1], ys[j+1], 1, ry, opt)
			if err != nil {
				return nil, err
			}
			p.chunks = append(p.chunks, c)
		}
	}
	p.flagged = make([]bool, len(p.chunks))
	p.sweepChunks = func(lo, hi int) {
		for _, c := range p.chunks[lo:hi] {
			p.op.SweepRectFused(p.buf.Write, p.buf.Read, c.x0, c.y0, c.x1, c.y1, c.NewB[0][c.hy:], p.sites)
		}
	}
	p.verifyChunks = func(lo, hi int) {
		for i, c := range p.chunks[lo:hi] {
			p.flagged[lo+i] = c.verify(nil)
		}
	}
	return p, nil
}

// cuts returns the chunk boundaries along an axis of length n with chunk
// size s, merging a trailing remainder of radius r or less into the last
// full chunk.
func cuts(n, s, r int) []int {
	out := make([]int, 1, n/s+2)
	for c := s; c < n; c += s {
		if n-c <= r {
			break
		}
		out = append(out, c)
	}
	return append(out, n)
}

// Grid returns the current domain state (iteration Iter()).
func (p *Online2D[T]) Grid() *grid.Grid[T] { return p.buf.Read }

// Grid3D returns nil: Online2D protects a 2-D domain.
func (p *Online2D[T]) Grid3D() *grid.Grid3D[T] { return nil }

// Iter returns the number of completed sweeps.
func (p *Online2D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters. One checksum comparison happens
// per chunk per step, so Verifications stays comparable across chunkings;
// Detections counts iterations with at least one flagged chunk, and
// FlaggedBlocks the flagged chunks of a domain cut into more than one.
func (p *Online2D[T]) Stats() Stats { return p.stats }

// Finalize is a no-op: the online scheme verifies every sweep, so nothing
// is ever pending at the end of a run.
func (p *Online2D[T]) Finalize() {}

// Step advances the domain by one sweep, verifying and (when needed)
// correcting afterwards; each of the configured injection source's sites
// (domain coordinates) is applied by the sweep of the chunk that holds it.
func (p *Online2D[T]) Step() {
	src, dst := p.buf.Read, p.buf.Write
	n := len(p.chunks)
	p.tel.SetIter(p.iter)
	sites := stencil.SitesAt(p.inj, p.iter)
	p.sites = sites
	t0 := p.tel.Begin()
	if p.pool != nil && p.pool.Workers > n {
		// Fewer chunks than workers: the rows of each go over the pool.
		for _, c := range p.chunks {
			p.op.SweepRectParallel(p.pool, dst, src, c.x0, c.y0, c.x1, c.y1, c.NewB[0][c.hy:], sites)
		}
	} else {
		p.pool.ForEachChunk(n, p.sweepChunks)
	}
	p.sites = nil
	t1 := p.tel.Begin()
	p.tel.End(telemetry.PhaseSweep, t0)
	p.pool.ForEachChunk(n, p.verifyChunks)
	p.stats.Verifications += n
	mismatch := slices.Contains(p.flagged, true)
	p.tel.End(telemetry.PhaseVerify, t1)

	// Repair runs serially over the (rare) flagged chunks: it reads
	// neighbouring cells while every other chunk is quiescent.
	if mismatch {
		t0 = p.tel.Begin()
		p.stats.Detections++
		for i, c := range p.chunks {
			if !p.flagged[i] {
				continue
			}
			if n > 1 {
				p.stats.FlaggedBlocks++
			}
			c.repair(func(_, y int) T {
				b := c.NewB[0][c.hy+y-c.y0:]
				p.op.SweepRectFused(dst, src, c.x0, y, c.x1, y+1, b, nil)
				return b[0]
			}, &p.stats)
		}
		p.tel.End(telemetry.PhaseRepair, t0)
	}

	for _, c := range p.chunks {
		c.swap()
	}
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// Run advances count iterations, applying the configured injection source.
func (p *Online2D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}
