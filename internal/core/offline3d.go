package core

import (
	"stencilabft/internal/checkpoint"
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Offline3D applies the offline scheme to a 3-D domain: per-layer fused
// checksums every sweep, per-layer Δ-step interpolation chains verified
// every Δ iterations, and whole-domain checkpoint/rollback recovery. The
// chain for layer z reads neighbouring layers' chain values of the same
// step, so all layers advance the chain in lockstep.
type Offline3D[T num.Float] struct {
	op     *stencil.Op3D[T]
	buf    *grid.Buffer3D[T]
	ip     *checksum.Interp3D[T]
	det    checksum.Detector[T]
	pool   *stencil.Pool
	period int
	inj    stencil.InjectSource[T]

	curB     [][]T // fused per-layer checksums of the current iteration
	verified [][]T // per-layer checksums at the last verified iteration
	// chain and chainNxt are the interpolation chain's state: stacks of the
	// layers' column checksums extended by RadiusY entries, between RadiusZ
	// halo layers that alias the layers they resolve to (Interp3D.NewStack).
	chain, chainNxt [][]T

	ring [][]*checksum.EdgeSnapshot[T] // [step][layer] edge strips
	// ringEdges[s] is step s's strips as the stack the chain reads
	// (Interp3D.EdgeStack); edges is the step being interpolated.
	ringEdges [][]checksum.EdgeSource[T]
	edges     []checksum.EdgeSource[T]
	store     checkpoint.Store3D[T]

	// sweepFn and interpFn are sweepLayers and interpLayers bound once, so
	// handing them to the pool does not allocate a closure every step; sites
	// and ringStep carry the current step's arguments to them.
	sweepFn, interpFn func(lo, hi int)
	sites             []stencil.Site[T]
	ringStep          int

	iter     int
	lastSafe int
	stats    Stats
	tel      *telemetry.Recorder // nil when telemetry is disabled
}

// NewOffline3D builds an offline protector for op with detection period
// opt.Period, starting from init (copied). The initial state is
// checkpointed immediately.
func NewOffline3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (*Offline3D[T], error) {
	opt = opt.withDefaults()
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	ip, err := checksum.NewInterp3D(op, nx, ny, nz)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	p := &Offline3D[T]{
		op:        op,
		buf:       grid.Buffer3DFrom(init),
		ip:        ip,
		det:       opt.Detector,
		pool:      opt.Pool,
		period:    opt.Period,
		inj:       opt.Inject,
		curB:      makeLayers[T](nz, ny),
		verified:  makeLayers[T](nz, ny),
		chain:     ip.NewStack(checksum.VecB, 0),
		chainNxt:  ip.NewStack(checksum.VecB, 0),
		ring:      make([][]*checksum.EdgeSnapshot[T], opt.Period),
		ringEdges: make([][]checksum.EdgeSource[T], opt.Period),
		tel:       opt.Telemetry,
	}
	p.sweepFn, p.interpFn = p.sweepLayers, p.interpLayers
	r := ip.EdgeRadius()
	for s := range p.ring {
		p.ring[s] = make([]*checksum.EdgeSnapshot[T], nz)
		layers := make([]checksum.EdgeSource[T], nz)
		for z := 0; z < nz; z++ {
			p.ring[s][z] = checksum.NewEdgeSnapshot[T](nx, ny, r, op.BC, op.BCValue)
			layers[z] = p.ring[s][z]
		}
		p.ringEdges[s] = ip.EdgeStack(nil, layers)
	}
	for z := 0; z < nz; z++ {
		stencil.ChecksumB(p.buf.Read.Layer(z), p.curB[z])
		copy(p.verified[z], p.curB[z])
	}
	p.store.Save(0, p.buf.Read, p.curB)
	return p, nil
}

// Grid3D returns the current domain state.
func (p *Offline3D[T]) Grid3D() *grid.Grid3D[T] { return p.buf.Read }

// Grid returns nil: Offline3D protects a 3-D domain; use Grid3D.
func (p *Offline3D[T]) Grid() *grid.Grid[T] { return nil }

// Iter returns the number of completed sweeps.
func (p *Offline3D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters.
func (p *Offline3D[T]) Stats() Stats {
	s := p.stats
	s.Checkpoint = p.store.Stats()
	return s
}

// Step advances one sweep applying the configured injection source,
// verifying (and recovering) when the detection period elapses.
func (p *Offline3D[T]) Step() { p.StepInject(stencil.SitesAt(p.inj, p.iter)) }

// StepInject is Step with explicit per-call injection sites.
func (p *Offline3D[T]) StepInject(sites []stencil.Site[T]) {
	p.sweep(sites)
	if p.iter-p.lastSafe >= p.period {
		p.verify(p.iter - p.lastSafe)
	}
}

// Run advances count iterations, applying the configured injection source.
func (p *Offline3D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// Finalize verifies any iterations still pending since the last periodic
// check. Call it once after the last Step.
func (p *Offline3D[T]) Finalize() {
	if n := p.iter - p.lastSafe; n > 0 {
		p.verify(n)
	}
}

func (p *Offline3D[T]) sweep(sites []stencil.Site[T]) {
	p.sites, p.ringStep = sites, (p.iter-p.lastSafe)%p.period
	p.tel.SetIter(p.iter)
	t0 := p.tel.Begin()
	p.pool.ForEachChunk(p.buf.Read.Nz(), p.sweepFn)
	p.tel.End(telemetry.PhaseSweep, t0)
	p.sites = nil
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// sweepLayers captures the edge strips of layers [lo, hi) for the current
// ring step and sweeps them; layers are independent, so chunks run
// concurrently.
func (p *Offline3D[T]) sweepLayers(lo, hi int) {
	src, dst := p.buf.Read, p.buf.Write
	for z := lo; z < hi; z++ {
		p.ring[p.ringStep][z].Capture(src.Layer(z))
		p.op.SweepLayer(dst, src, z, p.curB[z], p.sites)
	}
}

// interpLayers advances the interpolation chain of layers [lo, hi) by one
// step, reading the edge strips verify placed in p.edges.
func (p *Offline3D[T]) interpLayers(lo, hi int) {
	rz, ry, ny := p.op.St.RadiusZ(), p.op.St.RadiusY(), p.buf.Read.Ny()
	for z := lo; z < hi; z++ {
		p.ip.Interpolate(checksum.VecB, z, p.chain, p.edges, p.chainNxt[rz+z][ry:ry+ny])
	}
}

// verify advances the per-layer interpolation chains `steps` iterations
// from the last verified checksums and compares them with the current
// fused checksums; on mismatch it rolls back to the last checkpoint and
// recomputes the segment.
func (p *Offline3D[T]) verify(steps int) {
	p.stats.Verifications++
	t0 := p.tel.Begin()
	nz, ny := p.buf.Read.Nz(), p.buf.Read.Ny()
	rz, ry := p.op.St.RadiusZ(), p.op.St.RadiusY()
	for z := 0; z < nz; z++ {
		copy(p.chain[rz+z][ry:], p.verified[z])
	}
	for s := 0; s < steps; s++ {
		for z := 0; z < nz; z++ {
			p.ip.FillHalo(checksum.VecB, p.chain[rz+z])
		}
		p.edges = p.ringEdges[s]
		p.pool.ForEachChunk(nz, p.interpFn)
		p.chain, p.chainNxt = p.chainNxt, p.chain
	}
	dirty := false
	for z := 0; z < nz; z++ {
		if p.det.AnyMismatch(p.curB[z], p.chain[rz+z][ry:ry+ny]) {
			dirty = true
			break
		}
	}
	p.tel.End(telemetry.PhaseVerify, t0)
	if !dirty {
		for z := 0; z < nz; z++ {
			copy(p.verified[z], p.curB[z])
		}
		p.lastSafe = p.iter
		p.store.Save(p.iter, p.buf.Read, p.curB)
		return
	}
	p.stats.Detections++
	p.stats.Rollbacks++
	target := p.iter
	// Recomputed sweeps and the re-verification attribute themselves;
	// only the checkpoint restore is charged to Repair.
	t0 = p.tel.Begin()
	p.store.Restore(p.buf.Read, p.curB)
	p.tel.End(telemetry.PhaseRepair, t0)
	for z := 0; z < nz; z++ {
		copy(p.verified[z], p.curB[z])
	}
	p.iter = p.lastSafe
	for p.iter < target {
		p.sweep(nil)
		p.stats.RecomputedIters++
	}
	p.verify(target - p.lastSafe)
}
