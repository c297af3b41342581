package dist

import (
	"runtime"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// This file is the overlap/depth-k rank schedule — the one 2-D
// per-iteration path (rank.advance), built around two ideas:
//
// Compute/communication overlap. The x-phase of the exchange is software
// pipelined: a rank posts the boundary columns of iteration i+1 as soon as
// iteration i's verify, repair and swap have made them final — before
// iteration i's barrier, which then delivers them (runBatch, prePost). On
// the exchange iteration itself the rank sweeps the interior region —
// every point whose dependencies are already local — while any strip not
// yet delivered travels, and then sweeps each boundary strip as soon as
// that edge's halo lands (Transport.RecvEither completes the two edges of
// a phase in arrival order). The exchange is two-phase: boundary columns
// go Left/Right first, and the y-phase sends — full extended-width rows —
// go out only after both x halos have been folded in, so each Up/Down
// message threads the corner data a 9-point box kernel and the
// interpolation's beta terms need to the diagonal neighbour without any
// diagonal channel. Edges
// without a neighbour (the domain border under non-periodic boundaries)
// synthesise their ghost strips from the global boundary condition in the
// same order, which makes a corner ghost resolve each axis independently
// exactly like grid.BoundedGrid does.
//
// Depth-k ghost zones (communication-avoiding). With halo depth k the
// halo strips are k·radius wide and are exchanged only on iterations
// where iter%k == 0. The k-1 iterations in between sweep an extended
// rectangle that shrinks by one stencil radius per iteration on every
// side that has a real neighbour: the rank redundantly recomputes its
// neighbours' boundary shells from the wide halo instead of
// communicating. Because every recomputed point applies the same kernel
// to bit-identical inputs its owner applies, the schedule is bit-exact
// with the depth-1 run in fault-free executions.
//
// Progress polling rides on the same schedule: before committing to the
// interior sweep the rank polls each x edge (Transport.TryRecv), and a halo
// that is already delivered — there is no latency left to hide — is
// unpacked immediately so its strip is absorbed into the interior sweep,
// full-width, fused and row-major, instead of being swept later as a
// cache-cold column strip. Pre-posted x strips make absorption the rule on
// every backend; where a rank posts at the top of its exchange iteration
// (the pipeline's prologue, depth k > 1) a yield after the sends lets
// sibling ranks hosted on the same core post theirs first. The y phase
// yields and polls the same way after its sends.
//
// Checksum integrity across all of this: the fused column checksums b
// cover exactly the tile's own columns. Sweeping the tile in several
// rects splits a row's sum into segments; the interior sweep fuses its
// segment in place and combineRowChecksums folds the narrow boundary
// segments in afterwards, always in left-to-right segment order. How a
// row was segmented — one fused pass when a strip was absorbed, separate
// boundary folds when it was not — shifts the sum by round-off only,
// which is invisible to detection (the direct-vs-interpolated residual is
// ~1e-15 relative either way, detection thresholds are orders of
// magnitude wider) and irrelevant to the grid data, which stays
// bit-identical under every arrival order. Degenerate thin tiles keep the
// ChecksumBRect full-width repass — their rows are only a few points
// wide. Halo checksum entries are only needed within one stencil y-radius
// of the tile (the interpolation reads no deeper), so depth-k verification
// sums just the ry rows adjacent to the tile.

// bindTransport caches the rank's neighbour presence. Called once after
// r.tr is set; a zero stencil radius in an axis disables that axis's
// exchange.
func (r *rank[T]) bindTransport() {
	r.hasL = r.hx > 0 && r.tr.Neighbor(r.id, Left)
	r.hasR = r.hx > 0 && r.tr.Neighbor(r.id, Right)
	r.hasU = r.hy > 0 && r.tr.Neighbor(r.id, Up)
	r.hasD = r.hy > 0 && r.tr.Neighbor(r.id, Down)
}

// margins returns how far beyond the tile the sweep of sub-iteration s
// (0 <= s < depth) extends on each side: (depth-1-s)·radius on sides with
// a real neighbour, 0 on domain edges (BC ghosts are re-synthesised every
// iteration, so nothing shrinks there). At depth 1 all margins are zero.
func (r *rank[T]) margins(s int) (exL, exR, exU, exD int) {
	mx := (r.depth - 1 - s) * r.rx
	my := (r.depth - 1 - s) * r.ry
	if r.hasL {
		exL = mx
	}
	if r.hasR {
		exR = mx
	}
	if r.hasU {
		exU = my
	}
	if r.hasD {
		exD = my
	}
	return
}

// advance runs one full iteration of the overlap/depth-k schedule:
// sweep (exchanging or local, by the position in the depth-k cycle),
// then verification, correction and the buffer swaps. abs is the
// absolute iteration number; halo exchanges happen when abs%depth == 0,
// so a restored rank must resume on a multiple of depth (checkpoint
// periods are validated to be multiples of the halo depth).
func (r *rank[T]) advance(abs int, sites []stencil.Site[T]) {
	s := 0
	if r.depth > 1 {
		s = abs % r.depth
	}
	src, dst := r.buf.Read, r.buf.Write
	r.segY0, r.segY1 = 0, 0
	exL, exR, exU, exD := r.margins(s)
	sx0, sx1 := r.loX()-exL, r.hiX()+exR
	sy0, sy1 := r.loY()-exU, r.hiY()+exD
	if s == 0 {
		r.sweepExchange(src, dst, sx0, sx1, sy0, sy1, sites)
	} else {
		r.sweepLocal(src, dst, sx0, sx1, sy0, sy1, sites)
	}
	r.finishStep()
}

// sweepExchange is the overlapped exchange iteration: with the x strips
// out (postX), sweep the interior while they travel, sweep each boundary
// strip as its halo lands, then post y sends (corners now threaded) and do
// the same for the y strips. The sweep rectangle [sx0,sx1)x[sy0,sy1)
// extends beyond the tile by the depth-k margin on neighbour sides.
func (r *rank[T]) sweepExchange(src, dst *grid.Grid[T], sx0, sx1, sy0, sy1 int, sites []stencil.Site[T]) {
	// Ghost synthesis that does not depend on inbound halos: BC side
	// columns over the tile rows, then full-width BC edge rows. The edge
	// rows' halo-column segments may still be stale when a real x
	// neighbour exists; they are refreshed as each x strip lands, before
	// any sweep reads them.
	t0 := r.tel.Begin()
	if !r.hasL {
		r.fillSideHaloRows(true, r.loY(), r.hiY())
	}
	if !r.hasR {
		r.fillSideHaloRows(false, r.loY(), r.hiY())
	}
	if !r.hasU {
		r.fillEdgeHalo(true)
	}
	if !r.hasD {
		r.fillEdgeHalo(false)
	}
	r.tel.End(telemetry.PhaseUnpack, t0)

	// The x strips of this iteration normally left before the previous
	// iteration's barrier (prePost) and are waiting in the neighbours'
	// inboxes. What is left here is the pipeline's prologue — the first
	// exchange of a cluster's life, the first after a restore, and every
	// exchange at depth k > 1 (see runBatch) — followed by one yield: on an
	// oversubscribed host (several ranks per core) it lets sibling rank
	// goroutines post their own strips before this rank commits to its
	// interior sweep, so the polling below still finds most of them
	// delivered. The messages are charged to the iteration that consumes
	// them, whichever iteration posted them.
	if !r.posted {
		r.postX()
		if r.hasL || r.hasR {
			runtime.Gosched()
		}
	}
	r.posted = false
	if r.hasL {
		r.stats.HaloByDir[Left]++
	}
	if r.hasR {
		r.stats.HaloByDir[Right]++
	}

	// The interior region: inset one stencil radius from every side with
	// a real neighbour, so it depends on no inbound halo. Tiles thinner
	// than two strips degenerate to an empty interior and a merged strip
	// sweep after both halos land.
	ix0, ix1 := r.loX(), r.hiX()
	if r.hasL {
		ix0 += r.rx
	}
	if r.hasR {
		ix1 -= r.rx
	}
	iy0, iy1 := r.loY(), r.hiY()
	if r.hasU {
		iy0 += r.ry
	}
	if r.hasD {
		iy1 -= r.ry
	}
	thinX := ix1 < ix0
	thinY := iy1 < iy0
	if thinX {
		ix0, ix1 = r.loX(), r.loX()
	}
	if thinY {
		iy0, iy1 = r.loY(), r.loY()
	}

	// Progress polling: an x halo that has already been delivered has no
	// latency left to hide — fold it in now and widen the interior sweep
	// over its strip, full-width, fused and row-major, instead of sweeping
	// a cold column strip after the fact. Only sides with a zero depth-k
	// margin can be absorbed (the fused checksums must cover tile columns
	// exclusively); thin tiles keep the merged-strip path.
	gotL, gotR := false, false
	if !thinX {
		if r.hasL && sx0 == r.loX() {
			if in, ok := r.tr.TryRecv(r.id, Left); ok {
				t0 = r.tel.Begin()
				r.unpackCols(src, 0, in)
				r.refreshEdgeRowCols(0, r.loX())
				r.tel.End(telemetry.PhaseUnpack, t0)
				ix0 = r.loX()
				gotL = true
			}
		}
		if r.hasR && sx1 == r.hiX() {
			if in, ok := r.tr.TryRecv(r.id, Right); ok {
				t0 = r.tel.Begin()
				r.unpackCols(src, r.hiX(), in)
				r.refreshEdgeRowCols(r.hiX(), r.hiX()+r.hx)
				r.tel.End(telemetry.PhaseUnpack, t0)
				ix1 = r.hiX()
				gotR = true
			}
		}
	}

	// The interior sweep fuses its x segment of the row checksums in
	// place; boundary segments are folded in by combineRowChecksums after
	// both x strips land. fusedX marks rows already summed tile-width
	// (no neighbours, or every strip absorbed by the polling above).
	fusedX := !thinX && ix0 == r.loX() && ix1 == r.hiX()
	// With both x edges already resolved (BC-synthesised or absorbed), the
	// tile-row beta terms are final and their edge-column cache lines are
	// at their warmest — prime them before the interior sweep streams the
	// whole tile through the cache. Ranks still owed an x strip prime
	// after the strips fold in below.
	xPrimed := (!r.hasL || gotL) && (!r.hasR || gotR)
	if xPrimed {
		t0 = r.tel.Begin()
		r.ch.PrimeBetaTablesMid()
		r.tel.End(telemetry.PhaseVerify, t0)
	}
	t0 = r.tel.Begin()
	r.sweepRect(r.pool, dst, src, ix0, iy0, ix1, iy1, true, sites)
	r.tel.End(telemetry.PhaseInteriorSweep, t0)

	// x strips, each swept as its halo lands.
	needL, needR := r.hasL && !gotL, r.hasR && !gotR
	if needL || needR {
		if needL && needR && !thinX {
			t0 = r.tel.Begin()
			d, in := r.tr.RecvEither(r.id, Left, Right)
			r.tel.End(telemetry.PhaseBoundaryWait, t0)
			r.xStripLanded(dst, src, d, in, sx0, sx1, ix0, ix1, iy0, iy1, sites)
			d = d.Opposite()
			t0 = r.tel.Begin()
			in = r.tr.Recv(r.id, d)
			r.tel.End(telemetry.PhaseBoundaryWait, t0)
			r.xStripLanded(dst, src, d, in, sx0, sx1, ix0, ix1, iy0, iy1, sites)
		} else {
			// One strip outstanding, or a tile too thin for disjoint
			// strips (each strip then needs both halos): ordered receives.
			var inL, inR []T
			if needL {
				t0 = r.tel.Begin()
				inL = r.tr.Recv(r.id, Left)
				r.tel.End(telemetry.PhaseBoundaryWait, t0)
			}
			if needR {
				t0 = r.tel.Begin()
				inR = r.tr.Recv(r.id, Right)
				r.tel.End(telemetry.PhaseBoundaryWait, t0)
			}
			if thinX {
				t0 = r.tel.Begin()
				r.unpackCols(src, 0, inL)
				r.refreshEdgeRowCols(0, r.loX())
				r.unpackCols(src, r.hiX(), inR)
				r.refreshEdgeRowCols(r.hiX(), r.hiX()+r.hx)
				t1 := r.tel.Begin()
				r.tel.End(telemetry.PhaseUnpack, t0)
				r.sweepRect(nil, dst, src, sx0, iy0, sx1, iy1, false, sites)
				r.tel.End(telemetry.PhaseBoundarySweep, t1)
			} else {
				if inL != nil {
					r.xStripLanded(dst, src, Left, inL, sx0, sx1, ix0, ix1, iy0, iy1, sites)
				}
				if inR != nil {
					r.xStripLanded(dst, src, Right, inR, sx0, sx1, ix0, ix1, iy0, iy1, sites)
				}
			}
		}
	}

	if !xPrimed {
		t0 = r.tel.Begin()
		r.ch.PrimeBetaTablesMid()
		r.tel.End(telemetry.PhaseVerify, t0)
	}

	// Complete the checksums of rows the x split broke. The thin-tile
	// merged sweep left no usable interior segment, so it takes the
	// full-width repass; the regular split folds the narrow boundary
	// segments into the fused interior segment.
	if !fusedX && iy1 > iy0 {
		t0 = r.tel.Begin()
		if thinX {
			stencil.ChecksumBRect(dst, r.loX(), iy0, r.hiX(), iy1, r.ch.NewB[0][iy0:])
		} else {
			r.combineRowChecksums(dst, iy0, iy1, ix0, ix1, sx0 == r.loX(), sx1 == r.hiX())
			r.segX0, r.segX1, r.segY0, r.segY1 = ix0, ix1, iy0, iy1
		}
		r.tel.End(telemetry.PhaseBoundarySweep, t0)
	}

	// y phase: full-extended-width rows — the x halos they carry are what
	// threads corner data to diagonal neighbours — posted only now that
	// both x edges have been folded in.
	if r.hasU || r.hasD {
		nxExt := r.nxLoc + 2*r.hx
		data := src.Data()
		if r.hasU {
			t0 = r.tel.Begin()
			r.tr.Send(r.id, Up, data[r.loY()*nxExt:(r.loY()+r.hy)*nxExt])
			r.tel.End(telemetry.PhaseSend, t0)
			r.stats.HaloByDir[Up]++
		}
		if r.hasD {
			t0 = r.tel.Begin()
			r.tr.Send(r.id, Down, data[(r.hiY()-r.hy)*nxExt:r.hiY()*nxExt])
			r.tel.End(telemetry.PhaseSend, t0)
			r.stats.HaloByDir[Down]++
		}
		// Yield and poll exactly as in the x phase: ranks hosted on the
		// same core have had their interior sweeps to post these rows, so
		// most y strips are already waiting and fold in without a block.
		gotU, gotD := false, false
		if !thinY {
			runtime.Gosched()
			if r.hasU {
				if in, ok := r.tr.TryRecv(r.id, Up); ok {
					r.yStripLanded(dst, src, Up, in, sx0, sx1, sy0, sy1, iy0, iy1, sites)
					gotU = true
				}
			}
			if r.hasD {
				if in, ok := r.tr.TryRecv(r.id, Down); ok {
					r.yStripLanded(dst, src, Down, in, sx0, sx1, sy0, sy1, iy0, iy1, sites)
					gotD = true
				}
			}
		}
		needU, needD := r.hasU && !gotU, r.hasD && !gotD
		if needU && needD && !thinY {
			t0 = r.tel.Begin()
			d, in := r.tr.RecvEither(r.id, Up, Down)
			r.tel.End(telemetry.PhaseBoundaryWait, t0)
			r.yStripLanded(dst, src, d, in, sx0, sx1, sy0, sy1, iy0, iy1, sites)
			d = d.Opposite()
			t0 = r.tel.Begin()
			in = r.tr.Recv(r.id, d)
			r.tel.End(telemetry.PhaseBoundaryWait, t0)
			r.yStripLanded(dst, src, d, in, sx0, sx1, sy0, sy1, iy0, iy1, sites)
		} else if needU || needD {
			var inU, inD []T
			if needU {
				t0 = r.tel.Begin()
				inU = r.tr.Recv(r.id, Up)
				r.tel.End(telemetry.PhaseBoundaryWait, t0)
			}
			if needD {
				t0 = r.tel.Begin()
				inD = r.tr.Recv(r.id, Down)
				r.tel.End(telemetry.PhaseBoundaryWait, t0)
			}
			if thinY {
				t0 = r.tel.Begin()
				copy(data[0:r.hy*nxExt], inU)
				copy(data[r.hiY()*nxExt:(r.hiY()+r.hy)*nxExt], inD)
				t1 := r.tel.Begin()
				r.tel.End(telemetry.PhaseUnpack, t0)
				fusedY := sx0 == r.loX() && sx1 == r.hiX()
				r.sweepRect(nil, dst, src, sx0, sy0, sx1, sy1, fusedY, sites)
				if !fusedY {
					stencil.ChecksumBRect(dst, r.loX(), r.loY(), r.hiX(), r.hiY(), r.ch.NewB[0][r.loY():])
				}
				r.tel.End(telemetry.PhaseBoundarySweep, t1)
			} else {
				if inU != nil {
					r.yStripLanded(dst, src, Up, inU, sx0, sx1, sy0, sy1, iy0, iy1, sites)
				}
				if inD != nil {
					r.yStripLanded(dst, src, Down, inD, sx0, sx1, sy0, sy1, iy0, iy1, sites)
				}
			}
		}
	}
	r.stats.HaloExchanges++
}

// postX packs the boundary columns of the read buffer and posts them
// Left/Right: the x-phase sends of the exchange iteration that sweeps that
// buffer next, and the one place x strips are posted. The y-phase sends
// cannot move here with them — they carry the folded-in x halos that
// thread corner data to the diagonal neighbours.
func (r *rank[T]) postX() {
	slot := r.sendSlot
	r.sendSlot ^= 1
	if r.hasL {
		r.postCols(Left, r.loX(), r.sendL[slot])
	}
	if r.hasR {
		r.postCols(Right, r.hiX()-r.hx, r.sendR[slot])
	}
}

// postCols packs the hx columns of the read buffer starting at x0 into buf
// and posts it toward d.
func (r *rank[T]) postCols(d Dir, x0 int, buf []T) {
	t0 := r.tel.Begin()
	r.packCols(r.buf.Read, x0, buf)
	t1 := r.tel.Begin()
	r.tel.End(telemetry.PhasePack, t0)
	r.tr.Send(r.id, d, buf)
	r.tel.End(telemetry.PhaseSend, t1)
}

// prePost posts the next exchange iteration's x strips now that the step's
// verify, repair and swap have made them final. The barrier that follows
// delivers them: the next step's poll finds them and absorbs both strips
// into one fused full-width sweep, on sockets as on channels.
func (r *rank[T]) prePost() {
	r.postX()
	r.posted = true
}

// dropPosted discards the x strips the neighbours pre-posted for an
// iteration that will now not run on this state (a restore, a rebase). They
// have landed — the barrier behind them has released — so a poll takes them.
func (r *rank[T]) dropPosted() {
	if !r.posted {
		return
	}
	r.posted = false
	if r.hasL {
		r.tr.TryRecv(r.id, Left)
	}
	if r.hasR {
		r.tr.TryRecv(r.id, Right)
	}
}

// xStripLanded folds an arrived x halo in and sweeps the strip it
// unblocks: unpack the columns, refresh the BC ghost rows' now-stale
// column segments on that side, then sweep the boundary strip between the
// sweep rectangle's edge and the interior.
func (r *rank[T]) xStripLanded(dst, src *grid.Grid[T], d Dir, in []T, sx0, sx1, ix0, ix1, iy0, iy1 int, sites []stencil.Site[T]) {
	t0 := r.tel.Begin()
	if d == Left {
		r.unpackCols(src, 0, in)
		r.refreshEdgeRowCols(0, r.loX())
	} else {
		r.unpackCols(src, r.hiX(), in)
		r.refreshEdgeRowCols(r.hiX(), r.hiX()+r.hx)
	}
	t1 := r.tel.Begin()
	r.tel.End(telemetry.PhaseUnpack, t0)
	// When the strip spans tile columns only (no depth-k margin on its
	// side), fuse its per-row checksum segments into the side scratch as
	// the sweep runs, sparing combineRowChecksums the strided re-read.
	if d == Left {
		var b []T
		if sx0 == r.loX() {
			b = r.stripBL[iy0:]
		}
		r.op.SweepRectFused(dst, src, sx0, iy0, ix0, iy1, b, sites)
	} else {
		var b []T
		if sx1 == r.hiX() {
			b = r.stripBR[iy0:]
		}
		r.op.SweepRectFused(dst, src, ix1, iy0, sx1, iy1, b, sites)
	}
	r.tel.End(telemetry.PhaseBoundarySweep, t1)
}

// yStripLanded folds an arrived y halo in (full-extended-width rows,
// corners included) and sweeps the strip between the sweep rectangle's
// edge and the interior. When the x margins are zero the strip spans
// exactly the tile width and the checksum fusion holds; otherwise the
// strip's tile rows get the ChecksumBRect post-pass.
func (r *rank[T]) yStripLanded(dst, src *grid.Grid[T], d Dir, in []T, sx0, sx1, sy0, sy1, iy0, iy1 int, sites []stencil.Site[T]) {
	nxExt := r.nxLoc + 2*r.hx
	data := src.Data()
	t0 := r.tel.Begin()
	if d == Up {
		copy(data[0:r.hy*nxExt], in)
	} else {
		copy(data[r.hiY()*nxExt:(r.hiY()+r.hy)*nxExt], in)
	}
	t1 := r.tel.Begin()
	r.tel.End(telemetry.PhaseUnpack, t0)
	var y0, y1 int
	if d == Up {
		y0, y1 = sy0, iy0
	} else {
		y0, y1 = iy1, sy1
	}
	fusedY := sx0 == r.loX() && sx1 == r.hiX()
	r.sweepRect(nil, dst, src, sx0, y0, sx1, y1, fusedY, sites)
	if !fusedY {
		ty0, ty1 := max(y0, r.loY()), min(y1, r.hiY())
		if ty1 > ty0 {
			stencil.ChecksumBRect(dst, r.loX(), ty0, r.hiX(), ty1, r.ch.NewB[0][ty0:])
		}
	}
	r.tel.End(telemetry.PhaseBoundarySweep, t1)
}

// combineRowChecksums assembles the tile-width column checksums of rows
// [y0,y1) from the x segments the overlapped sweep produced: the fused
// interior segment [ix0,ix1) already sits in newExtB, and the boundary
// strips' narrow segments (one stencil radius each) are folded in as
// left + interior + right — a fixed order, so the value does not depend on
// which halo landed first. Segments the strip sweeps fused into the side
// scratch (useL/useR, the zero-margin case) are read from there; otherwise
// they are summed from dst (the strip then also covered depth-k shell
// columns the checksum must exclude).
func (r *rank[T]) combineRowChecksums(dst *grid.Grid[T], y0, y1, ix0, ix1 int, useL, useR bool) {
	lo, hi := r.loX(), r.hiX()
	for y := y0; y < y1; y++ {
		b := r.ch.NewB[0][y]
		if ix0 > lo {
			if useL {
				b = r.stripBL[y] + b
			} else {
				b = num.Sum(dst.Row(y)[lo:ix0]) + b
			}
		}
		if ix1 < hi {
			if useR {
				b += r.stripBR[y]
			} else {
				b += num.Sum(dst.Row(y)[ix1:hi])
			}
		}
		r.ch.NewB[0][y] = b
	}
}

// rowChecksum is the tile-width column checksum of row y of dst, summed the
// way this iteration's sweep composed the row's entry: left + interior +
// right for the rows combineRowChecksums folded, one left-to-right pass for
// every other. It is what the repair path refreshes a re-evaluated row's
// entry with, so a repaired step leaves the checksums a clean one would.
func (r *rank[T]) rowChecksum(dst *grid.Grid[T], y int) T {
	row, lo, hi := dst.Row(y), r.loX(), r.hiX()
	if y < r.segY0 || y >= r.segY1 {
		return num.Sum(row[lo:hi])
	}
	b := num.Sum(row[r.segX0:r.segX1])
	if r.segX0 > lo {
		b = num.Sum(row[lo:r.segX0]) + b
	}
	if r.segX1 < hi {
		b += num.Sum(row[r.segX1:hi])
	}
	return b
}

// refreshEdgeRowCols re-synthesises the [x0,x1) column segment of any
// BC-synthesised ghost rows after an inbound x strip rewrote the halo
// columns the full-width edge fill copied from. Rows with a real y
// neighbour are untouched — their data arrives whole in the y phase.
func (r *rank[T]) refreshEdgeRowCols(x0, x1 int) {
	if !r.hasU {
		r.fillEdgeHaloCols(true, x0, x1)
	}
	if !r.hasD {
		r.fillEdgeHaloCols(false, x0, x1)
	}
}

// sweepLocal is a communication-free sub-iteration of a depth-k cycle
// (s > 0): re-synthesise the BC ghosts, sweep the tile fused, and sweep
// the shrinking shell of redundantly recomputed neighbour points — the
// same kernel over bit-identical inputs the owners sweep, so the shell
// stays bit-exact with the communicated run.
func (r *rank[T]) sweepLocal(src, dst *grid.Grid[T], sx0, sx1, sy0, sy1 int, sites []stencil.Site[T]) {
	// BC ghosts are re-synthesised from current shell data every
	// iteration: side columns over every row the shell sweeps read, then
	// full-width edge rows (whose corner segments pick up the fresh side
	// columns, keeping both axes' resolution independent).
	t0 := r.tel.Begin()
	if !r.hasL {
		r.fillSideHaloRows(true, sy0-r.ry, sy1+r.ry)
	}
	if !r.hasR {
		r.fillSideHaloRows(false, sy0-r.ry, sy1+r.ry)
	}
	if !r.hasU {
		r.fillEdgeHalo(true)
	}
	if !r.hasD {
		r.fillEdgeHalo(false)
	}
	r.tel.End(telemetry.PhaseUnpack, t0)

	t0 = r.tel.Begin()
	// Shell rects around the tile (no checksum fusion — checksums only
	// ever cover the tile's own rows and columns).
	if sy0 < r.loY() {
		r.sweepRect(nil, dst, src, sx0, sy0, sx1, r.loY(), false, sites)
	}
	if sy1 > r.hiY() {
		r.sweepRect(nil, dst, src, sx0, r.hiY(), sx1, sy1, false, sites)
	}
	if sx0 < r.loX() {
		r.sweepRect(nil, dst, src, sx0, r.loY(), r.loX(), r.hiY(), false, sites)
	}
	if sx1 > r.hiX() {
		r.sweepRect(nil, dst, src, r.hiX(), r.loY(), sx1, r.hiY(), false, sites)
	}
	// The tile itself, fused.
	r.sweepRect(r.pool, dst, src, r.loX(), r.loY(), r.hiX(), r.hiY(), true, sites)
	r.tel.End(telemetry.PhaseSweep, t0)
}

// finishStep is the tail shared by both schedules: the chunk's Finish
// verifies the tile — halo checksum sums over the ry rows adjacent to it, all
// the interpolation reads at any halo depth, plain sums of local data, so no
// checksum ever crosses a rank — and on a mismatch repairs it, re-evaluating
// a flagged row through resweep so a repaired step leaves the checksums a
// clean one would; then the swaps.
func (r *rank[T]) finishStep() {
	r.ch.Finish(nil, r.resweepFn, &r.stats, r.tel)
	r.buf.Swap()
	r.stats.Iterations++
}

// resweep re-evaluates row y of the tile from the read buffer into the write
// buffer through the rank's own sweep and returns its entry as rowChecksum
// composes it.
func (r *rank[T]) resweep(_, y int) T {
	dst := r.buf.Write
	r.op.SweepRectFused(dst, r.buf.Read, r.loX(), y, r.hiX(), y+1, nil, nil)
	return r.rowChecksum(dst, y)
}

// sweepRect sweeps [x0,x1)x[y0,y1), fusing the tile column checksums when
// fuse is set (the rect must then span the full tile width). Strips and
// shells pass a nil pool and are swept on the rank goroutine; the large
// rects (interior, tile middle), where the parallelism pays for the
// chunking, pass the rank's and have their rows split over it when one is
// attached. Empty rects are no-ops.
func (r *rank[T]) sweepRect(pool *stencil.Pool, dst, src *grid.Grid[T], x0, y0, x1, y1 int, fuse bool, sites []stencil.Site[T]) {
	if x1 <= x0 || y1 <= y0 {
		return
	}
	var b []T
	if fuse {
		b = r.ch.NewB[0][y0:]
	}
	r.op.SweepRectParallel(pool, dst, src, x0, y0, x1, y1, b, sites)
}
