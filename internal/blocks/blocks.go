// Package blocks applies the ABFT scheme per chunk of a 2-D domain — the
// tiled deployment of the paper's Section 3.4/5.1, where the detection
// threshold "depends on the domain, chunk, or block size on which the
// method is applied". Small blocks keep checksum magnitudes (and with them
// the floating-point round-off floor) low, so a tighter epsilon detects
// smaller corruptions; the block-size ablation (campaign.Ablations)
// quantifies the floor-vs-size trade-off.
//
// Each block owns its checksum pair and verifies independently. In shared
// memory nothing needs to be exchanged: the window-shift sums a block's
// interpolation needs from its neighbours are O(r·(bx+by)) partial sums
// read straight from the still-live t-buffer.
package blocks

import (
	"fmt"

	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stats"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Stats aggregates the tiled protector's counters through the unified
// counter model (FlaggedBlocks is the tile-specific entry: block-level
// verification failures; Detections counts iterations with at least one
// flagged block).
type Stats = stats.Stats

// block is one tile's geometry and checksum state.
type block[T num.Float] struct {
	x0, y0, x1, y1 int
	ip             *checksum.Interp2D[T]
	prevB          []T // verified partial column checksums at t
	newB           []T // fused partial column checksums at t+1
	interpB        []T
	bExt           []T // scratch: prevB plus halo row sums
	// Scratch of the repair path, allocated the first time the block is
	// flagged: newA, which doubles as the saved row of the re-evaluation,
	// and the Equation-(10) path's extended and interpolated row checksums.
	newA, aExt, interpA []T
	flagged             bool
}

func (b *block[T]) w() int { return b.x1 - b.x0 }
func (b *block[T]) h() int { return b.y1 - b.y0 }

// Protector runs a 2-D stencil with per-block online ABFT.
type Protector[T num.Float] struct {
	op   *stencil.Op2D[T]
	buf  *grid.Buffer[T]
	pool *stencil.Pool
	det  checksum.Detector[T]
	pol  checksum.PairPolicy

	rx, ry int // stencil radii (halo widths)
	blocks []*block[T]
	inj    stencil.InjectSource[T]

	iter  int
	stats Stats
	tel   *telemetry.Recorder // nil when telemetry is disabled
}

// Options configure the tiled protector.
type Options[T num.Float] struct {
	Detector   checksum.Detector[T]
	Pool       *stencil.Pool
	PairPolicy checksum.PairPolicy
	// Inject schedules fault injection for Step/Run; nil runs clean.
	Inject stencil.InjectSource[T]
	// DropBoundaryTerms reproduces the paper's simplified listings per
	// tile (ablation A1); leave false for exact interpolation.
	DropBoundaryTerms bool
	// Telemetry, when non-nil, attributes the protector's wall-clock to
	// phases (sweep, verify, repair); the tiled protector is a single rank
	// and records through one Recorder. Nil disables timing at no cost.
	Telemetry *telemetry.Recorder
}

// New builds a tiled protector with blocks of nominal size bx-by-by (edge
// blocks may be smaller). Blocks must be at least as large as the stencil
// radius so a block's halo touches only adjacent blocks' rows/columns.
func New[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], bx, by int, opt Options[T]) (*Protector[T], error) {
	nx, ny := init.Nx(), init.Ny()
	if err := op.Validate(nx, ny); err != nil {
		return nil, err
	}
	if bx < 1 || by < 1 {
		return nil, fmt.Errorf("blocks: invalid block size %dx%d", bx, by)
	}
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	if bx < rx || by < ry {
		return nil, fmt.Errorf("blocks: block size %dx%d below stencil radius %d/%d", bx, by, rx, ry)
	}

	p := &Protector[T]{
		op:   op,
		buf:  grid.BufferFrom(init),
		pool: opt.Pool,
		det:  opt.Detector.WithDefaults(),
		pol:  opt.PairPolicy,
		inj:  opt.Inject,
		rx:   rx, ry: ry,
		tel: opt.Telemetry,
	}
	// Cut points along each axis; a trailing remainder smaller than the
	// stencil radius + 1 is merged into the previous block, since an
	// interpolator needs its domain strictly wider than the radius.
	xs := cuts(nx, bx, rx)
	ys := cuts(ny, by, ry)
	for j := 0; j+1 < len(ys); j++ {
		for i := 0; i+1 < len(xs); i++ {
			b := &block[T]{x0: xs[i], y0: ys[j], x1: xs[i+1], y1: ys[j+1]}
			// The interpolator is built per block shape with the
			// block's slice of the constant field.
			iop := &stencil.Op2D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}
			if op.C != nil {
				cblk := grid.New[T](b.w(), b.h())
				for y := 0; y < b.h(); y++ {
					copy(cblk.Row(y), op.C.Row(b.y0 + y)[b.x0:b.x1])
				}
				iop.C = cblk
			}
			ip, err := checksum.NewInterp2D(iop, b.w(), b.h())
			if err != nil {
				return nil, err
			}
			ip.DropBoundaryTerms = opt.DropBoundaryTerms
			b.ip = ip
			b.prevB = make([]T, b.h())
			b.newB = make([]T, b.h())
			b.interpB = make([]T, b.h())
			b.bExt = make([]T, b.h()+2*ry)
			stencil.ChecksumBRect(p.buf.Read, b.x0, b.y0, b.x1, b.y1, b.prevB)
			p.blocks = append(p.blocks, b)
		}
	}
	return p, nil
}

// cuts returns the block boundaries along an axis of length n with block
// size s, merging a trailing remainder of radius r or less into the last
// full block.
func cuts(n, s, r int) []int {
	out := []int{0}
	for c := s; c < n; c += s {
		if n-c <= r {
			break
		}
		out = append(out, c)
	}
	return append(out, n)
}

// Grid returns the current domain state.
func (p *Protector[T]) Grid() *grid.Grid[T] { return p.buf.Read }

// Iter returns the number of completed sweeps.
func (p *Protector[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters.
func (p *Protector[T]) Stats() Stats { return p.stats }

// Grid3D returns nil: the tiled protector covers 2-D domains.
func (p *Protector[T]) Grid3D() *grid.Grid3D[T] { return nil }

// Finalize is a no-op: every block verifies every sweep.
func (p *Protector[T]) Finalize() {}

// Blocks returns the number of tiles.
func (p *Protector[T]) Blocks() int { return len(p.blocks) }

// Step advances one sweep with per-block fused checksums, verification and
// correction, applying the configured injection source.
func (p *Protector[T]) Step() { p.StepInject(stencil.SitesAt(p.inj, p.iter)) }

// StepInject is Step with explicit per-call injection sites (domain
// coordinates); each is applied by the sweep of the block that holds it.
func (p *Protector[T]) StepInject(sites []stencil.Site[T]) {
	src, dst := p.buf.Read, p.buf.Write
	p.tel.SetIter(p.iter)

	sweep := func(i int) {
		b := p.blocks[i]
		p.op.SweepRectFused(dst, src, b.x0, b.y0, b.x1, b.y1, b.newB, sites)
	}
	verify := func(i int) {
		b := p.blocks[i]
		p.verifyBlock(b, src)
	}
	t0 := p.tel.Begin()
	if p.pool != nil {
		p.pool.ForEach(len(p.blocks), sweep)
		t1 := p.tel.Begin()
		p.tel.End(telemetry.PhaseSweep, t0)
		p.pool.ForEach(len(p.blocks), verify)
		t0 = t1
	} else {
		for i := range p.blocks {
			sweep(i)
		}
		t1 := p.tel.Begin()
		p.tel.End(telemetry.PhaseSweep, t0)
		for i := range p.blocks {
			verify(i)
		}
		t0 = t1
	}

	// One checksum comparison happened per block, so the unified
	// Verifications counter stays comparable across deployments.
	p.stats.Verifications += len(p.blocks)

	// Correction runs serially over the (rare) flagged blocks: it reads
	// neighbouring data while other blocks' state is quiescent.
	any := false
	for _, b := range p.blocks {
		if b.flagged {
			any = true
			break
		}
	}
	p.tel.End(telemetry.PhaseVerify, t0)
	if any {
		t0 = p.tel.Begin()
		for _, b := range p.blocks {
			if b.flagged {
				p.stats.FlaggedBlocks++
				p.correctBlock(b, src, dst)
				b.flagged = false
			}
		}
		p.stats.Detections++
		p.tel.End(telemetry.PhaseRepair, t0)
	}

	for _, b := range p.blocks {
		b.prevB, b.newB = b.newB, b.prevB
	}
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// Run advances count iterations, applying the configured injection source.
func (p *Protector[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// verifyBlock interpolates the block's expected checksums from iteration t
// and flags a mismatch. The halo entries of the extended checksum vector
// are partial row sums over the block's columns just outside its y-range,
// read from the live t-buffer with global boundary resolution.
func (p *Protector[T]) verifyBlock(b *block[T], src *grid.Grid[T]) {
	ry := p.ry
	bg := grid.BoundedGrid[T]{G: src, Cond: p.op.BC, ConstVal: p.op.BCValue}
	for j := 0; j < ry; j++ {
		b.bExt[j] = p.partialRowSum(bg, b, b.y0-ry+j)
		b.bExt[ry+b.h()+j] = p.partialRowSum(bg, b, b.y1+j)
	}
	copy(b.bExt[ry:ry+b.h()], b.prevB)

	edges := checksum.OffsetEdges[T]{Src: bg, X0: b.x0, Y0: b.y0}
	b.ip.InterpolateBBand(b.bExt, ry, edges, b.interpB)
	b.flagged = p.det.AnyMismatch(b.newB, b.interpB)
}

// partialRowSum sums ũ(x, y) over the block's columns for a (possibly
// ghost) row y.
func (p *Protector[T]) partialRowSum(bg grid.BoundedGrid[T], b *block[T], y int) T {
	var s T
	for x := b.x0; x < b.x1; x++ {
		s += bg.At(x, y)
	}
	return s
}

// correctBlock runs the block-local slow path: the flagged rows of the
// block are re-evaluated (checksum.RepairRows); what that cannot serve takes
// the two-vector path — lazy row checksums with x-halos from the horizontal
// neighbours, localisation, and stable Equation-(10) repair in the write
// buffer.
func (p *Protector[T]) correctBlock(b *block[T], src, dst *grid.Grid[T]) {
	rx := p.rx
	if b.newA == nil {
		b.newA, b.aExt, b.interpA = make([]T, b.w()), make([]T, b.w()+2*rx), make([]T, b.w())
	}
	cells, ok := checksum.RepairRows(p.det, b.newB, b.interpB, b.newA,
		func(j int) []T { return dst.Row(b.y0 + j)[b.x0:b.x1] },
		func(j int) T {
			p.op.SweepRectFused(dst, src, b.x0, b.y0+j, b.x1, b.y0+j+1, b.newB[j:], nil)
			return b.newB[j]
		})
	if ok {
		p.stats.Repaired(cells)
		return
	}
	p.stats.CorrectedPoints += cells

	bg := grid.BoundedGrid[T]{G: src, Cond: p.op.BC, ConstVal: p.op.BCValue}
	for i := 0; i < rx; i++ {
		b.aExt[i] = p.partialColSum(bg, b, b.x0-rx+i)
		b.aExt[rx+b.w()+i] = p.partialColSum(bg, b, b.x1+i)
	}
	stencil.ChecksumARect(src, b.x0, b.y0, b.x1, b.y1, b.aExt[rx:rx+b.w()])

	edges := checksum.OffsetEdges[T]{Src: bg, X0: b.x0, Y0: b.y0}
	b.ip.InterpolateABlock(b.aExt, rx, edges, b.interpA)

	stencil.ChecksumARect(dst, b.x0, b.y0, b.x1, b.y1, b.newA)

	// No located point means the corruption sat in a checksum.
	p.stats.Repaired(checksum.RepairRect(p.det, p.pol, dst, b.x0, b.y0, b.x1, b.y1, b.newA, b.newB, b.interpA, b.interpB))
}

// partialColSum sums ũ(x, y) over the block's rows for a (possibly ghost)
// column x.
func (p *Protector[T]) partialColSum(bg grid.BoundedGrid[T], b *block[T], x int) T {
	var s T
	for y := b.y0; y < b.y1; y++ {
		s += bg.At(x, y)
	}
	return s
}
