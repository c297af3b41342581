package dist

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// This file is the tile rank's step — the one 2-D per-iteration path
// (rank.advance). An exchange iteration takes every halo strip in, then
// sweeps once; the iterations between exchanges sweep the same way.
//
// The exchange. Boundary columns go Left/Right first; the y-phase sends —
// full extended-width rows — go out only after both x halos are in, so each
// Up/Down message threads the corner data a 9-point box kernel and the
// interpolation's beta terms need to the diagonal neighbour without any
// diagonal channel. Edges without a neighbour (the domain border under
// non-periodic boundaries) synthesise their ghost strips from the global
// boundary condition between the two phases: side columns first, then
// full-width edge rows that copy them and the x halos, which makes a corner
// ghost resolve each axis independently exactly like grid.BoundedGrid does.
//
// The pipelined x phase. A rank posts the boundary columns of iteration i+1
// as soon as iteration i's verify, repair and swap have made them final —
// before iteration i's barrier, which then delivers them (runBatch,
// prePost) — so the exchange's x receives find them waiting. Between Run
// calls the strips of the next iteration are therefore in the neighbours'
// inboxes; a restore or rebase discards them (dropPosted) before anything
// else runs.
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
// Checksums. The sweep fuses the column checksums b over exactly the tile's
// own rows and columns — each entry its row summed left to right in one
// pass — and leaves the depth-k shell unfused. Halo checksum entries are
// only needed within one stencil y-radius of the tile (the interpolation
// reads no deeper), so depth-k verification sums just the ry rows adjacent
// to the tile.

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

// advance runs one full iteration: the halo exchange on the first
// sub-iteration of a depth-k cycle or the BC ghosts alone on the others,
// then the sweep, verification, correction and the buffer swaps. abs is the
// absolute iteration number; halo exchanges happen when abs%depth == 0, so
// a restored rank must resume on a multiple of depth (checkpoint periods
// are validated to be multiples of the halo depth).
func (r *rank[T]) advance(abs int, sites []stencil.Site[T]) {
	s := 0
	if r.depth > 1 {
		s = abs % r.depth
	}
	exL, exR, exU, exD := r.margins(s)
	sx0, sx1 := r.loX()-exL, r.hiX()+exR
	sy0, sy1 := r.loY()-exU, r.hiY()+exD
	if s == 0 {
		r.exchange()
	} else {
		// BC ghosts are re-synthesised from current shell data every
		// iteration, over every row the shell sweeps read.
		r.fillGhosts(sy0-r.ry, sy1+r.ry)
	}
	r.sweep(sx0, sx1, sy0, sy1, sites)
	r.finishStep()
}

// exchange refreshes every halo of the read buffer with iteration-t data:
// the x strips (posted here unless prePost already did), the BC ghosts,
// then the y strips, which carry the x halos to the diagonal neighbours.
// With the tile's edge columns final it primes the tile rows' beta terms
// while they are warm.
func (r *rank[T]) exchange() {
	if !r.posted {
		r.postX()
	}
	r.posted = false
	if r.hasL {
		r.recv(Left)
	}
	if r.hasR {
		r.recv(Right)
	}
	r.fillGhosts(r.loY(), r.hiY())
	nxExt, data := r.buf.Read.Nx(), r.buf.Read.Data()
	if r.hasU {
		r.send(Up, data[r.loY()*nxExt:(r.loY()+r.hy)*nxExt])
	}
	if r.hasD {
		r.send(Down, data[(r.hiY()-r.hy)*nxExt:r.hiY()*nxExt])
	}
	if r.hasU {
		r.recv(Up)
	}
	if r.hasD {
		r.recv(Down)
	}
	r.stats.HaloExchanges++

	t0 := r.tel.Begin()
	r.ch.PrimeBetaTablesMid()
	r.tel.End(telemetry.PhaseVerify, t0)
}

// postX packs the boundary columns of the read buffer and posts them
// Left/Right: the x-phase sends of the exchange iteration that sweeps that
// buffer next, and the one place x strips are posted. The y-phase sends
// cannot move here with them — they carry the received x halos that
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
	r.tel.End(telemetry.PhasePack, t0)
	r.send(d, buf)
}

// send posts a strip toward d.
func (r *rank[T]) send(d Dir, strip []T) {
	t0 := r.tel.Begin()
	r.tr.Send(r.id, d, strip)
	r.tel.End(telemetry.PhaseSend, t0)
}

// recv waits for the strip from direction d and copies it into the read
// buffer's halo on that side — hx columns over the tile rows for Left and
// Right, hy full extended-width rows for Up and Down — counting the strip
// against the exchange that consumes it, whichever iteration posted it.
func (r *rank[T]) recv(d Dir) {
	t0 := r.tel.Begin()
	in := r.tr.Recv(r.id, d)
	t1 := r.tel.Begin()
	r.tel.End(telemetry.PhaseRecvWait, t0)
	src := r.buf.Read
	nxExt, data := src.Nx(), src.Data()
	switch d {
	case Left:
		r.unpackCols(src, 0, in)
	case Right:
		r.unpackCols(src, r.hiX(), in)
	case Up:
		copy(data[:r.hy*nxExt], in)
	case Down:
		copy(data[r.hiY()*nxExt:(r.hiY()+r.hy)*nxExt], in)
	}
	r.tel.End(telemetry.PhaseUnpack, t1)
	r.stats.HaloByDir[d]++
}

// prePost posts the next exchange iteration's x strips now that the step's
// verify, repair and swap have made them final. The barrier that follows
// delivers them, so the next exchange receives them without a wait.
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

// fillGhosts synthesises the BC ghosts of the read buffer: the side columns
// over the extended-frame rows [y0, y1), then the full-width edge rows,
// whose corner segments pick up the side columns and x halos already in
// place, keeping both axes' resolution independent.
func (r *rank[T]) fillGhosts(y0, y1 int) {
	t0 := r.tel.Begin()
	if !r.hasL {
		r.fillSideHaloRows(true, y0, y1)
	}
	if !r.hasR {
		r.fillSideHaloRows(false, y0, y1)
	}
	if !r.hasU {
		r.fillEdgeHalo(true)
	}
	if !r.hasD {
		r.fillEdgeHalo(false)
	}
	r.tel.End(telemetry.PhaseUnpack, t0)
}

// sweep computes the write buffer over the rect [sx0,sx1)x[sy0,sy1): the
// depth-k shell around the tile — redundantly recomputed neighbour points,
// the same kernel over bit-identical inputs the owners sweep, and unfused,
// since checksums only ever cover the tile's own rows and columns — then
// the tile itself, fused and split over the rank's pool.
func (r *rank[T]) sweep(sx0, sx1, sy0, sy1 int, sites []stencil.Site[T]) {
	src, dst := r.buf.Read, r.buf.Write
	t0 := r.tel.Begin()
	r.sweepRect(nil, dst, src, sx0, sy0, sx1, r.loY(), false, sites)
	r.sweepRect(nil, dst, src, sx0, r.hiY(), sx1, sy1, false, sites)
	r.sweepRect(nil, dst, src, sx0, r.loY(), r.loX(), r.hiY(), false, sites)
	r.sweepRect(nil, dst, src, r.hiX(), r.loY(), sx1, r.hiY(), false, sites)
	r.sweepRect(r.pool, dst, src, r.loX(), r.loY(), r.hiX(), r.hiY(), true, sites)
	r.tel.End(telemetry.PhaseSweep, t0)
}

// finishStep is the step's tail: the chunk's Finish verifies the tile — halo
// checksum sums over the ry rows adjacent to it, all the interpolation reads
// at any halo depth, plain sums of local data, so no checksum ever crosses a
// rank — and on a mismatch repairs it, re-evaluating a flagged row through
// resweep so a repaired step leaves the checksums a clean one would; then
// the swaps.
func (r *rank[T]) finishStep() {
	r.ch.Finish(nil, r.resweepFn, &r.stats, r.tel)
	r.buf.Swap()
	r.stats.Iterations++
}

// resweep re-evaluates row y of the tile from the read buffer into the write
// buffer through the rank's own sweep and returns its checksum entry.
func (r *rank[T]) resweep(_, y int) T {
	dst := r.buf.Write
	r.op.SweepRectFused(dst, r.buf.Read, r.loX(), y, r.hiX(), y+1, nil, nil)
	return r.rowChecksum(dst, y)
}

// rowChecksum is the tile-width column checksum of row y of dst, summed left
// to right in one pass as the fused sweep sums it.
func (r *rank[T]) rowChecksum(dst *grid.Grid[T], y int) T {
	return num.Sum(dst.Row(y)[r.loX():r.hiX()])
}

// sweepRect sweeps [x0,x1)x[y0,y1), fusing the tile column checksums when
// fuse is set (the rect must then span the full tile width). Shells pass a
// nil pool and are swept on the rank goroutine; the tile passes the rank's
// and has its rows split over it when one is attached. Empty rects are
// no-ops.
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
