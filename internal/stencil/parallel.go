package stencil

import (
	"runtime"
	"sync"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// Pool is a persistent worker pool for domain-decomposed sweeps. The zero
// value runs everything on the calling goroutine; NewPool sizes the pool
// from GOMAXPROCS. On the first parallel call the pool spawns Workers-1
// long-lived goroutines fed row-range jobs over a channel — the calling
// goroutine always executes the final chunk itself — so a protected
// Run(iters) pays the goroutine spawn cost once, not iters x workers times
// (the pre-persistent pool forked fresh goroutines for every sweep).
//
// A Pool is safe for concurrent use: multiple ranks or protectors may share
// one pool, and their jobs interleave over the same workers. Workers must
// not be changed after the first parallel call. Workers idle on a channel
// receive between calls; Close releases them when a pool is truly done
// (letting them idle for the process lifetime is also fine — each parked
// goroutine costs only its stack).
type Pool struct {
	Workers int

	once   sync.Once
	jobs   chan poolJob
	closed bool

	// joins recycles the per-call WaitGroups. Every job carries a pointer
	// to its call's group, so a group declared in ForEachChunk would be one
	// heap allocation per parallel call — the last one on the step path.
	mu    sync.Mutex
	joins []*sync.WaitGroup
}

// poolJob is one row-range task: run fn(lo, hi), then signal wg.
type poolJob struct {
	lo, hi int
	fn     func(lo, hi int)
	wg     *sync.WaitGroup
}

// NewPool returns a pool sized to the machine (GOMAXPROCS).
func NewPool() *Pool { return &Pool{Workers: runtime.GOMAXPROCS(0)} }

// workers returns the effective worker count, at least 1.
func (p *Pool) workers() int {
	if p == nil || p.Workers < 1 {
		return 1
	}
	return p.Workers
}

// start spawns the persistent workers, once. Workers-1 goroutines drain the
// job channel for the pool's lifetime; the caller of each parallel call is
// the pool's remaining worker.
func (p *Pool) start() {
	p.once.Do(func() {
		jobs := make(chan poolJob, p.workers())
		p.jobs = jobs
		for i := 0; i < p.workers()-1; i++ {
			go func() {
				for j := range jobs {
					j.fn(j.lo, j.hi)
					j.wg.Done()
				}
			}()
		}
	})
}

// Close stops the persistent workers. It must only be called once no
// parallel call is in flight and no further ones will follow; a pool that
// was never used in parallel closes as a no-op, and closing twice is safe.
// A parallel call after Close panics (fail fast, not a silent hang).
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() {}) // never started: consume the once so jobs stays nil
	if p.jobs != nil {
		close(p.jobs)
		p.jobs = nil
	}
	p.closed = true
}

// ForEachChunk splits [0, n) into at most workers contiguous chunks and
// invokes fn(lo, hi) for each, returning when all complete. Chunks differ
// in size by at most one element. The final chunk always runs on the
// calling goroutine — with a single worker (or n <= 1) the call degenerates
// to a plain fn(0, n) with no synchronisation at all — and the remaining
// chunks are dispatched to the persistent workers.
func (p *Pool) ForEachChunk(n int, fn func(lo, hi int)) {
	p.forEachChunk(n, p.workers(), fn)
}

// sweepGrain is the fewest cells a sweep hands one part of the pool: a
// sweep of fewer than two grains runs on the calling goroutine, never
// starting or waking a worker, and a larger one splits into at most one
// part a grain. Handing a part to a parked worker and joining it costs
// microseconds, which the part must pay back. One sweep on a pool of two
// against the same sweep on the caller (medians of repeated sweeps, 2-vCPU
// Xeon 2.1 GHz, go1.24): 0.82 at 768 cells (serve_small's 32x24 job),
// 0.6-1.0 with 4-8 Ki-cell parts, 1.0 (star7) and 1.2-1.6 (star5) with
// 16 Ki, 1.1-1.4 with 24 Ki and 1.3-1.4 with 32 Ki (serve_grid's 256x256
// job); bench's stencil.pool2_speedup read 0.66 on serve_small, 0.97 on
// tile_small (16 Ki-cell parts) and 1.37 on serve_grid. The grain sits
// above the break-even because a gain measured alone is lent by an idle
// core, which a service running jobs side by side does not have. So
// serve_grid's 64 Ki cells and tile_large's 2 Mi still split, and
// tile_small's 32 Ki and every smaller sweep do not.
const sweepGrain = 24 << 10

// sweepParts is how many parts a sweep of cells takes: the pool's workers,
// but no more than one a grain.
func (p *Pool) sweepParts(cells int) int {
	return min(p.workers(), cells/sweepGrain)
}

// forEachChunk is ForEachChunk over at most w chunks.
func (p *Pool) forEachChunk(n, w int, fn func(lo, hi int)) {
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	p.start()
	jobs := p.jobs
	if jobs == nil || p.closed {
		panic("stencil: Pool used after Close")
	}
	wg := p.join()
	wg.Add(w - 1)
	chunk := n / w
	rem := n % w
	lo := 0
	for i := 0; i < w-1; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		jobs <- poolJob{lo: lo, hi: hi, fn: fn, wg: wg}
		lo = hi
	}
	fn(lo, n) // the caller is the last worker
	wg.Wait()
	p.mu.Lock()
	p.joins = append(p.joins, wg)
	p.mu.Unlock()
}

// join returns an idle WaitGroup, allocating only when every recycled one
// is in use by a concurrent call.
func (p *Pool) join() *sync.WaitGroup {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.joins); n > 0 {
		wg := p.joins[n-1]
		p.joins = p.joins[:n-1]
		return wg
	}
	return new(sync.WaitGroup)
}

// SweepParallel computes one full 2-D iteration with rows partitioned over
// the pool. Each worker owns a disjoint y-range of dst and the matching
// entries of b, so no synchronisation beyond the final join is needed —
// the "up to nx threads" independence the paper relies on.
func (op *Op2D[T]) SweepParallel(p *Pool, dst, src *grid.Grid[T], b []T) {
	op.SweepParallelInject(p, dst, src, b, nil)
}

// SweepParallelInject is SweepParallel with the iteration's injection
// sites; each lands in exactly one worker's row range.
func (op *Op2D[T]) SweepParallelInject(p *Pool, dst, src *grid.Grid[T], b []T, sites []Site[T]) {
	op.SweepRectParallel(p, dst, src, 0, 0, src.Nx(), src.Ny(), b, sites)
}

// SweepRectParallel is SweepRectFused with the rectangle's rows partitioned
// over the pool (a nil pool, or a rectangle under two sweepGrains, sweeps
// on the calling goroutine): b, indexed by rectangle row, is written by the
// worker that owns the row. A steady-state call allocates nothing: what the
// workers need travels in a rectSweep the operator keeps between calls
// instead of in a fresh closure.
func (op *Op2D[T]) SweepRectParallel(p *Pool, dst, src *grid.Grid[T], x0, y0, x1, y1 int, b []T, sites []Site[T]) {
	c := op.sweepc.Take() // nil on first use, or while a concurrent call holds it
	if c == nil {
		c = new(rectSweep[T])
		c.run = c.rows
	}
	c.op, c.dst, c.src, c.x0, c.y0, c.x1, c.b, c.sites = op, dst, src, x0, y0, x1, b, sites
	p.forEachChunk(y1-y0, p.sweepParts((x1-x0)*(y1-y0)), c.run)
	*c = rectSweep[T]{run: c.run} // do not pin the caller's grids
	op.sweepc.Store(c)
}

// rectSweep is the argument block of one SweepRectParallel call, with the
// chunk function the pool runs bound to it once.
type rectSweep[T num.Float] struct {
	op         *Op2D[T]
	dst, src   *grid.Grid[T]
	x0, y0, x1 int
	b          []T
	sites      []Site[T]
	run        func(lo, hi int)
}

func (c *rectSweep[T]) rows(lo, hi int) {
	var b []T
	if c.b != nil {
		b = c.b[lo:]
	}
	c.op.SweepRectFused(c.dst, c.src, c.x0, c.y0+lo, c.x1, c.y0+hi, b, c.sites)
}

// SweepParallel computes one full 3-D iteration with the stack's rows
// partitioned over the pool. bs, when non-nil, must hold one checksum slice
// per layer (bs[z] of length ny); each row's fused checksum entry is written
// by the worker that owns the row.
func (op *Op3D[T]) SweepParallel(p *Pool, dst, src *grid.Grid3D[T], bs [][]T) {
	op.SweepLayersInject(p, dst, src, 0, 0, 0, src.Nx(), src.Ny(), src.Nz(), bs, nil)
}

// SweepLayersInject sweeps the box [x0,x1) x [y0,y1) x [z0,z1) only — a whole
// stack, the layers of a z-slab between its ghost layers, or a tile of a
// rank's extended frame — applying the iteration's injection sites, each in
// the worker that owns its row. The pool partitions the box's rows counted
// layer by layer, not whole layers, so a one-layer stack (a 2-D domain) still
// splits, and a box whose layer count the workers divide splits at layer
// boundaries; a box under two sweepGrains sweeps on the calling goroutine.
// bs is indexed by layer of the grid and bs[z] by row, like SweepParallel's;
// bs[z][y] is row y's sum over [x0, x1). A steady-state call allocates
// nothing: what the workers need travels in a layerSweep the operator keeps
// between calls instead of in a fresh closure.
func (op *Op3D[T]) SweepLayersInject(p *Pool, dst, src *grid.Grid3D[T], x0, y0, z0, x1, y1, z1 int, bs [][]T, sites []Site[T]) {
	c := op.sweepc.Take() // nil on first use, or while a concurrent call holds it
	if c == nil {
		c = new(layerSweep[T])
		c.run = c.rows
	}
	c.op, c.dst, c.src, c.x0, c.y0, c.z0, c.x1, c.y1, c.bs, c.sites = op, dst, src, x0, y0, z0, x1, y1, bs, sites
	p.forEachChunk((z1-z0)*(y1-y0), p.sweepParts((x1-x0)*(y1-y0)*(z1-z0)), c.run)
	*c = layerSweep[T]{run: c.run} // do not pin the caller's grids
	op.sweepc.Store(c)
}

// layerSweep is the argument block of one SweepLayersInject call, with the
// chunk function the pool runs bound to it once.
type layerSweep[T num.Float] struct {
	op                 *Op3D[T]
	dst, src           *grid.Grid3D[T]
	x0, y0, z0, x1, y1 int
	bs                 [][]T
	sites              []Site[T]
	run                func(lo, hi int)
}

// rows sweeps rows [lo, hi) of the call's box counted layer by layer: row r
// is row y0 + r mod h of layer z0 + r/h, h = y1-y0.
func (c *layerSweep[T]) rows(lo, hi int) {
	h := c.y1 - c.y0
	for r := lo; r < hi; {
		z, y0 := c.z0+r/h, c.y0+r%h
		y1 := min(c.y1, y0+hi-r)
		var b []T
		if c.bs != nil {
			b = c.bs[z]
		}
		c.op.sweepRowsInject(c.dst, c.src, z, c.x0, y0, c.x1, y1, b, c.sites)
		r += y1 - y0
	}
}
