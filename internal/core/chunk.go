package core

import (
	"stencilabft/internal/checksum"
	"stencilabft/internal/errs"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Chunk is the unit the paper's online method applies to — "the domain,
// chunk, or block" of Sections 3.4 and 5.1: a rectangle [x0,x1) x [y0,y1) of
// a frame, the pair of grids a sweep ping-pongs between. It owns the
// rectangle's checksum state and is the one 2-D implementation of
// interpolate → compare → re-evaluate the flagged rows → Equation (10).
//
// What lies outside the rectangle is answered by the frame. A cell of the
// frame is read as it stands — a neighbouring block's cell, a rank's halo
// cell received from its neighbour or synthesised from the boundary
// condition; what lies outside the frame is resolved through the operator's
// boundary condition. So the domain is the chunk that is its whole frame, a
// block is one of N chunks of the domain, and a rank's tile is the chunk
// inset by the halo widths in the rank's extended frame. Nothing is
// exchanged in any of them: the window-shift sums the interpolation needs
// from beyond the rectangle are O(r·(w+h)) partial sums of the still-live
// t-grid.
//
// The owner sweeps (fusing the rectangle's column checksums into NewB),
// calls Verify and, on a mismatch, Repair, then Swap beside the frame's own
// swap.
type Chunk[T num.Float] struct {
	x0, y0, x1, y1 int
	rx, ry, hy     int

	op   *stencil.Op2D[T] // the frame's operator: boundary condition and ghost value
	ip   *checksum.Interp2D[T]
	det  checksum.Detector[T]
	pol  checksum.PairPolicy
	corr checksum.Corrector[T]

	// PrevB and NewB are the verified column checksums of iteration t and
	// the fused ones of t+1, in the rectangle's y range extended by hy
	// entries each side: entry hy+j belongs to row y0+j. Verify fills the
	// ry halo entries of PrevB next to the rectangle — sums of the rows
	// above and below it over its own columns; the rest of the extension is
	// the owner's (a rank fuses the rows of its depth-k shell there).
	PrevB, NewB []T
	interpB     []T

	// edgeRead/edgeWrite are the frame's two grids as edge sources, boxed
	// into the EdgeSource interface once (boxing allocates) and swapped
	// alongside the grids. edgeRead views iteration t.
	edgeRead, edgeWrite checksum.EdgeSource[T]

	// Scratch of the repair path, allocated the first time the chunk is
	// flagged: newA, which doubles as the saved row of the re-evaluation,
	// and the Equation-(10) path's extended and interpolated row checksums.
	// InterpA stays nil until a detection takes that path.
	newA, aExt, InterpA []T
}

// NewChunk builds the chunk over rectangle [x0,x1) x [y0,y1) of frame, whose
// grids op sweeps; hy >= RadiusY is the extension of the chunk's checksum
// vectors. The frame's read grid holds iteration 0, assumed correct along
// with the checksums taken from it here (Theorem 2).
func NewChunk[T num.Float](op *stencil.Op2D[T], frame *grid.Buffer[T], x0, y0, x1, y1, hy int, opt Options[T]) (*Chunk[T], error) {
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	w, h := x1-x0, y1-y0
	if w <= rx {
		return nil, thinErrorf("core: chunk [%d,%d)x[%d,%d) is only %d column(s) wide, need more than the stencil x-radius %d", x0, x1, y0, y1, w, rx)
	}
	if h <= ry {
		return nil, thinErrorf("core: chunk [%d,%d)x[%d,%d) is only %d row(s) tall, need more than the stencil y-radius %d", x0, x1, y0, y1, h, ry)
	}
	ip, err := checksum.NewInterp2DRect(op, frame.Read.Nx(), frame.Read.Ny(), x0, y0, x1, y1)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	c := &Chunk[T]{
		x0: x0, y0: y0, x1: x1, y1: y1, rx: rx, ry: ry, hy: hy,
		op: op, ip: ip,
		det:     opt.Detector.WithDefaults(),
		pol:     opt.PairPolicy,
		corr:    checksum.Corrector[T]{PaperExact: opt.PaperExactCorrection},
		PrevB:   make([]T, h+2*hy),
		NewB:    make([]T, h+2*hy),
		interpB: make([]T, h),
	}
	c.edgeRead, c.edgeWrite = c.edges(frame.Read), c.edges(frame.Write)
	stencil.ChecksumBRect(frame.Read, x0, y0, x1, y1, c.PrevB[hy:hy+h])
	return c, nil
}

// thinErrorf classifies a rectangle no wider than the stencil radius: a thin
// tile, and a mistake of whoever declared the chunking.
func thinErrorf(format string, args ...any) error {
	return errs.Tagf([]error{errs.ErrThinTile, errs.ErrInvalidSpec}, format, args...)
}

// edges boxes a grid of the frame as the interpolator's edge source.
func (c *Chunk[T]) edges(g *grid.Grid[T]) checksum.EdgeSource[T] {
	return checksum.LiveEdges(g, c.op.BC, c.op.BCValue)
}

// PrimeBetaTablesMid and PrimeBetaTables fill the interpolator's beta tables
// ahead of Verify, for an owner whose schedule knows when the edge columns
// are warm (checksum.Interp2D has the contract).
func (c *Chunk[T]) PrimeBetaTablesMid() { c.ip.PrimeBetaTablesMid(c.edgeRead) }
func (c *Chunk[T]) PrimeBetaTables()    { c.ip.PrimeBetaTables(c.edgeRead) }

// lineSum sums the rectangle's span of frame row (or, with cols, column) i
// of g — a possibly out-of-frame line, resolved through the boundary
// condition as a whole: the resolved line's cells left to right, or the span
// times the ghost value where the condition has no cell to give.
func (c *Chunk[T]) lineSum(g *grid.Grid[T], i int, cols bool) T {
	n, lo, hi := g.Ny(), c.x0, c.x1
	if cols {
		n, lo, hi = g.Nx(), c.y0, c.y1
	}
	ri, ok := c.op.BC.ResolveIndex(i, n)
	if !ok {
		if c.op.BC == grid.Constant {
			return T(hi-lo) * c.op.BCValue
		}
		return 0
	}
	if !cols {
		return num.Sum(g.Row(ri)[lo:hi])
	}
	var s T
	for y := lo; y < hi; y++ {
		s += g.At(ri, y)
	}
	return s
}

// Verify interpolates the chunk's column checksums of iteration t+1 from
// src, the frame's grid of iteration t, and reports whether the fused ones
// in NewB disagree.
func (c *Chunk[T]) Verify(src *grid.Grid[T]) bool {
	h := c.y1 - c.y0
	for j := 1; j <= c.ry; j++ {
		c.PrevB[c.hy-j] = c.lineSum(src, c.y0-j, false)
		c.PrevB[c.hy+h+j-1] = c.lineSum(src, c.y1+j-1, false)
	}
	c.ip.Interpolate(checksum.VecB, c.PrevB, c.edgeRead, c.interpB)
	return c.det.AnyMismatch(c.NewB[c.hy:c.hy+h], c.interpB)
}

// Repair is the detection slow path. The mismatching entries name the rows
// and src still holds iteration t, so the flagged rows are re-evaluated
// (checksum.RepairRows): resweep(y) sweeps frame row y of the rectangle from
// src into dst again and returns the row's checksum entry composed the way
// the owner's sweep composes it. What that cannot serve — and all of it
// under PaperExactCorrection — takes the paper's two-vector path: the row
// checksum pair computed now (the previous one is recomputable from src on
// demand — the property that lets the fast path maintain only one vector),
// with the columns beside the rectangle as its halo entries, the mismatch
// lists intersected and Equation (10) applied. The outcome is booked to st.
func (c *Chunk[T]) Repair(src, dst *grid.Grid[T], resweep func(y int) T, st *Stats) {
	w, h, rx := c.x1-c.x0, c.y1-c.y0, c.rx
	newB := c.NewB[c.hy : c.hy+h]
	if c.newA == nil {
		c.newA, c.aExt = make([]T, w), make([]T, w+2*rx)
	}
	if !c.corr.PaperExact {
		cells, ok := checksum.RepairRows(c.det, newB, c.interpB, c.newA,
			func(j int) []T { return dst.Row(c.y0 + j)[c.x0:c.x1] },
			func(j int) T { return resweep(c.y0 + j) })
		if ok {
			st.Repaired(cells)
			return
		}
		st.CorrectedPoints += cells
	}
	if c.InterpA == nil {
		c.InterpA = make([]T, w)
	}
	for i := 1; i <= rx; i++ {
		c.aExt[rx-i] = c.lineSum(src, c.x0-i, true)
		c.aExt[rx+w+i-1] = c.lineSum(src, c.x1+i-1, true)
	}
	stencil.ChecksumARect(src, c.x0, c.y0, c.x1, c.y1, c.aExt[rx:rx+w])
	c.ip.Interpolate(checksum.VecA, c.aExt, c.edgeRead, c.InterpA)
	stencil.ChecksumARect(dst, c.x0, c.y0, c.x1, c.y1, c.newA)

	// No located point means the corruption sat in a checksum.
	st.Repaired(c.corr.RepairRect(c.det, c.pol, dst, c.x0, c.y0, c.x1, c.y1, c.newA, newB, c.InterpA, c.interpB))
}

// Swap makes the fused checksums the verified ones, beside the frame's swap.
func (c *Chunk[T]) Swap() {
	c.PrevB, c.NewB = c.NewB, c.PrevB
	c.edgeRead, c.edgeWrite = c.edgeWrite, c.edgeRead
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
// radius.
func NewBlocked2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], bx, by int, opt Options[T]) (*Online2D[T], error) {
	nx, ny := init.Nx(), init.Ny()
	if err := op.Validate(nx, ny); err != nil {
		return nil, err
	}
	if bx < 1 || by < 1 {
		return nil, errs.Tagf([]error{errs.ErrInvalidSpec}, "core: invalid chunk size %dx%d", bx, by)
	}
	p := &Online2D[T]{op: op, buf: grid.BufferFrom(init), pool: opt.Pool, inj: opt.Inject, tel: opt.Telemetry}
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	xs, ys := cuts(nx, bx, rx), cuts(ny, by, ry)
	for j := 0; j+1 < len(ys); j++ {
		for i := 0; i+1 < len(xs); i++ {
			c, err := NewChunk(op, p.buf, xs[i], ys[j], xs[i+1], ys[j+1], ry, opt)
			if err != nil {
				return nil, err
			}
			p.chunks = append(p.chunks, c)
		}
	}
	p.flagged = make([]bool, len(p.chunks))
	p.sweepChunks = func(lo, hi int) {
		for _, c := range p.chunks[lo:hi] {
			p.op.SweepRectFused(p.buf.Write, p.buf.Read, c.x0, c.y0, c.x1, c.y1, c.NewB[c.hy:], p.sites)
		}
	}
	p.verifyChunks = func(lo, hi int) {
		for i, c := range p.chunks[lo:hi] {
			p.flagged[lo+i] = c.Verify(p.buf.Read)
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
// correcting afterwards, applying the configured injection source.
func (p *Online2D[T]) Step() { p.StepInject(stencil.SitesAt(p.inj, p.iter)) }

// StepInject is Step with explicit per-call injection sites (domain
// coordinates); each is applied by the sweep of the chunk that holds it.
func (p *Online2D[T]) StepInject(sites []stencil.Site[T]) {
	src, dst := p.buf.Read, p.buf.Write
	n := len(p.chunks)
	p.tel.SetIter(p.iter)
	p.sites = sites
	t0 := p.tel.Begin()
	if p.pool != nil && p.pool.Workers > n {
		// Fewer chunks than workers: the rows of each go over the pool.
		for _, c := range p.chunks {
			p.op.SweepRectParallel(p.pool, dst, src, c.x0, c.y0, c.x1, c.y1, c.NewB[c.hy:], sites)
		}
	} else {
		p.pool.ForEachChunk(n, p.sweepChunks)
	}
	p.sites = nil
	t1 := p.tel.Begin()
	p.tel.End(telemetry.PhaseSweep, t0)
	p.pool.ForEachChunk(n, p.verifyChunks)
	p.stats.Verifications += n
	mismatch := false
	for _, f := range p.flagged {
		mismatch = mismatch || f
	}
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
			c.Repair(src, dst, func(y int) T {
				b := c.NewB[c.hy+y-c.y0:]
				p.op.SweepRectFused(dst, src, c.x0, y, c.x1, y+1, b, nil)
				return b[0]
			}, &p.stats)
		}
		p.tel.End(telemetry.PhaseRepair, t0)
	}

	for _, c := range p.chunks {
		c.Swap()
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
