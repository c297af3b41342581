package core

import (
	"stencilabft/internal/checkpoint"
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Offline protects a stencil run with the paper's offline ABFT scheme
// (Section 4) over a stack of nz layers — a 3-D domain, or a 2-D domain as
// the one-layer stack. The fused per-layer column checksums are accumulated
// every sweep (one extra add per point), but verification happens only every
// Δ iterations, by interpolating the last verified checksums Δ steps forward
// and comparing them with the current fused ones. A detected corruption is
// repaired by recomputing its light cone (ConeRecovery) or by rolling back to
// the last clean checkpoint and recomputing the lost iterations — the paper's
// standard checkpoint-and-recovery coupling.
//
// The chain for layer z reads neighbouring layers' chain values of the same
// step, so all layers advance it in lockstep. Its per-step boundary terms
// need the layers' edge strips of every intermediate iteration; those are
// retained in a ring of Δ edge snapshots a layer, O(Δ·nz·r·(nx+ny)) memory.
type Offline[T num.Float] struct {
	op     *stencil.Op3D[T]
	buf    *grid.Buffer3D[T]
	flat   bool // a 2-D domain: Grid answers, Grid3D does not
	ip     *checksum.Interp3D[T]
	det    checksum.Detector[T]
	pool   *stencil.Pool
	period int
	inj    stencil.InjectSource[T]

	curB     [][]T // fused per-layer column checksums of the current iteration
	verified [][]T // per-layer column checksums at the last verified iteration
	// chainB is the B chain's pair of stacks: the layers' column checksums
	// extended by RadiusY entries, between RadiusZ halo layers that alias the
	// layers they resolve to (Interp3D.NewStack). chainB[0] holds the
	// chain's result.
	chainB [2][][]T

	// Cone-recovery state (allocated only in ConeRecovery mode): the
	// per-layer row checksums at the last verified iteration, their chain's
	// pair of stacks, and one layer's direct row checksums.
	recovery  RecoveryMode
	verifiedA [][]T
	chainA    [2][][]T
	directA   []T

	// ring[s][z] holds layer z's edge strips of the s-th pre-sweep state
	// since the last verification; ringEdges[s] is step s's strips as the
	// stack the chain reads (Interp3D.EdgeStack).
	ring      [][]*checksum.EdgeSnapshot[T]
	ringEdges [][]checksum.EdgeSource[T]
	store     checkpoint.Store[T]

	// interpFn is interpLayers bound once, so handing it to the pool does
	// not allocate a closure every step; vec, edges, from and to carry the
	// chain step's arguments to it.
	interpFn func(lo, hi int)
	vec      checksum.Vec
	edges    []checksum.EdgeSource[T]
	from, to [][]T

	iter     int // completed sweeps
	lastSafe int // iteration of the last verified checkpoint
	stats    Stats
	tel      *telemetry.Recorder // nil when telemetry is disabled
}

// NewOffline2D builds an offline protector for a 2-D domain with detection
// period opt.Period (Δ), starting from init (copied). op and init enter as
// the one-layer stack (Op2D.Stack, grid.Stack): the stencil and constant
// field are shared, not copied.
func NewOffline2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], opt Options[T]) (*Offline[T], error) {
	if err := op.Validate(init.Nx(), init.Ny()); err != nil {
		return nil, err
	}
	return newOffline(op.Stack(), grid.Stack(init), true, opt)
}

// NewOffline3D builds an offline protector for a 3-D domain with detection
// period opt.Period (Δ), starting from init (copied).
func NewOffline3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (*Offline[T], error) {
	return newOffline(op, init, false, opt)
}

// newOffline builds the protector of the stack init; the initial state is
// checkpointed immediately, so the first rollback target always exists.
func newOffline[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], flat bool, opt Options[T]) (*Offline[T], error) {
	opt = opt.withDefaults()
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	ip, err := checksum.NewInterp3D(op, nx, ny, nz)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	p := &Offline[T]{
		op:        op,
		buf:       grid.Buffer3DFrom(init),
		flat:      flat,
		ip:        ip,
		det:       opt.Detector,
		pool:      opt.Pool,
		period:    opt.Period,
		inj:       opt.Inject,
		curB:      makeLayers[T](nz, ny),
		verified:  makeLayers[T](nz, ny),
		chainB:    [2][][]T{ip.NewStack(checksum.VecB, op.St.RadiusY()), ip.NewStack(checksum.VecB, op.St.RadiusY())},
		recovery:  opt.Recovery,
		ring:      make([][]*checksum.EdgeSnapshot[T], opt.Period),
		ringEdges: make([][]checksum.EdgeSource[T], opt.Period),
		tel:       opt.Telemetry,
	}
	p.interpFn = p.interpLayers
	r := ip.EdgeRadius()
	for s := range p.ring {
		p.ring[s] = make([]*checksum.EdgeSnapshot[T], nz)
		layers := make([]checksum.EdgeSource[T], nz)
		for z := range layers {
			p.ring[s][z] = checksum.NewEdgeSnapshot[T](nx, ny, r, op.BC, op.BCValue)
			layers[z] = p.ring[s][z]
		}
		p.ringEdges[s] = ip.EdgeStack(nil, layers)
	}
	if p.recovery == ConeRecovery {
		p.verifiedA = makeLayers[T](nz, nx)
		p.chainA = [2][][]T{ip.NewStack(checksum.VecA, op.St.RadiusX()), ip.NewStack(checksum.VecA, op.St.RadiusX())}
		p.directA = make([]T, nx)
	}
	for z, b := range p.curB {
		stencil.ChecksumB(p.buf.Read.Layer(z), b)
	}
	p.markVerified()
	return p, nil
}

// Grid returns the current state of a 2-D domain, nil for a 3-D one.
func (p *Offline[T]) Grid() *grid.Grid[T] {
	if p.flat {
		return p.buf.Read.Layer(0)
	}
	return nil
}

// Grid3D returns the current state of a 3-D domain, nil for a 2-D one.
func (p *Offline[T]) Grid3D() *grid.Grid3D[T] {
	if p.flat {
		return nil
	}
	return p.buf.Read
}

// Iter returns the number of completed sweeps.
func (p *Offline[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters.
func (p *Offline[T]) Stats() Stats {
	s := p.stats
	s.Checkpoint = p.store.Stats()
	return s
}

// Step advances one sweep applying the configured injection source,
// verifying (and recovering) when the detection period elapses.
func (p *Offline[T]) Step() {
	p.sweep(stencil.SitesAt(p.inj, p.iter))
	if p.iter-p.lastSafe >= p.period {
		p.verify(p.iter - p.lastSafe)
	}
}

// Run advances count iterations, applying the configured injection source.
func (p *Offline[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// Finalize verifies any iterations still pending since the last periodic
// check (the "after the application completes" mode of Section 4). Call it
// once after the last Step.
func (p *Offline[T]) Finalize() {
	if n := p.iter - p.lastSafe; n > 0 {
		p.verify(n)
	}
}

// sweep runs one fused sweep, the stack's rows partitioned over the pool,
// after capturing the pre-sweep edge strips the interpolation chain will
// need.
func (p *Offline[T]) sweep(sites []stencil.Site[T]) {
	src := p.buf.Read
	p.tel.SetIter(p.iter)
	t0 := p.tel.Begin()
	for z, e := range p.ring[(p.iter-p.lastSafe)%p.period] {
		e.Capture(src.Layer(z))
	}
	p.op.SweepLayersInject(p.pool, p.buf.Write, src, 0, 0, 0, src.Nx(), src.Ny(), src.Nz(), p.curB, sites)
	p.tel.End(telemetry.PhaseSweep, t0)
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// verify interpolates the last verified checksums steps iterations forward
// and compares them with the current fused checksums. Clean: checkpoint and
// move the verification window. Dirty: repair the light cone or roll back
// and recompute; because the fault model is transient (a bit-flip corrupts a
// value once), the recomputed segment is clean and its verification
// succeeds; should it not (e.g. a fault injected during recomputation),
// verify recurses until it does, counting every extra rollback.
func (p *Offline[T]) verify(steps int) {
	p.stats.Verifications++
	t0 := p.tel.Begin()
	p.chain(checksum.VecB, p.verified, &p.chainB, steps)
	dirty := false
	for z, b := range p.curB {
		if p.det.AnyMismatch(b, own(p.chainB[0], len(p.curB), z, len(b))) {
			dirty = true
			break
		}
	}
	p.tel.End(telemetry.PhaseVerify, t0)
	if !dirty {
		p.markVerified()
		return
	}
	p.stats.Detections++
	// Try light-cone recovery first when configured: repair in place,
	// re-verify, and only fall back to a full rollback if the cone could
	// not be bounded or the repair did not reconcile the checksums.
	if p.recovery == ConeRecovery {
		t0 = p.tel.Begin()
		ok := p.coneRecover(steps)
		p.tel.End(telemetry.PhaseRepair, t0)
		if ok {
			p.stats.ConeRecoveries++
			p.markVerified()
			return
		}
	}
	// Corruption somewhere in the last `steps` sweeps: roll back and
	// recompute the segment. The recomputation attributes itself: the
	// replayed sweeps count as Sweep time and the re-verification as
	// Verify time; only the checkpoint restore is charged to Repair.
	p.stats.Rollbacks++
	target := p.iter
	t0 = p.tel.Begin()
	p.store.Restore(p.buf.Read, p.curB)
	p.tel.End(telemetry.PhaseRepair, t0)
	p.iter = p.lastSafe
	for p.iter < target {
		p.sweep(nil)
		p.stats.RecomputedIters++
	}
	p.verify(target - p.lastSafe)
}

// chain interpolates the stack of vector v from the last verified
// iteration's, from, steps iterations forward through the ring of edge
// snapshots, in the pair of stacks, leaving the result in pair[0]. Each
// step refills the in-layer halos from the vectors' own entries (the chain
// spans the domain); the layers of a step interpolate concurrently.
func (p *Offline[T]) chain(v checksum.Vec, from [][]T, pair *[2][][]T, steps int) {
	nz := len(from)
	for z, f := range from {
		copy(own(pair[0], nz, z, len(f)), f)
	}
	p.vec = v
	for s := 0; s < steps; s++ {
		for z := range nz {
			p.ip.FillHalo(v, pair[0][(len(pair[0])-nz)/2+z])
		}
		p.edges, p.from, p.to = p.ringEdges[s], pair[0], pair[1]
		p.pool.ForEachChunk(nz, p.interpFn)
		pair[0], pair[1] = pair[1], pair[0]
	}
}

// interpLayers advances the chain of layers [lo, hi) by one step.
func (p *Offline[T]) interpLayers(lo, hi int) {
	nz, n := len(p.curB), p.buf.Read.Ny()
	if p.vec == checksum.VecA {
		n = p.buf.Read.Nx()
	}
	for z := lo; z < hi; z++ {
		p.ip.Interpolate(p.vec, z, p.from, p.edges, own(p.to, nz, z, n))
	}
}

// own views the n own entries of layer z in a stack of nz layers between
// its halo layers, each an extended vector.
func own[T num.Float](stack [][]T, nz, z, n int) []T {
	e := stack[(len(stack)-nz)/2+z]
	h := (len(e) - n) / 2
	return e[h : h+n]
}

// markVerified promotes the current state to the verification baseline:
// checksums become the chain origin and the domain is checkpointed.
func (p *Offline[T]) markVerified() {
	for z, b := range p.curB {
		copy(p.verified[z], b)
	}
	for z, a := range p.verifiedA {
		stencil.ChecksumA(p.buf.Read.Layer(z), a)
	}
	p.lastSafe = p.iter
	p.store.Save(p.iter, p.buf.Read, p.curB)
}

// coneRecover attempts a light-cone repair of the corruption verify
// detected (p.chainB[0] holds the interpolated column checksums of the
// current iteration). It returns true when the repair succeeded and the
// checksums reconcile; the caller then re-baselines. On any doubt it returns
// false and the caller performs a full rollback.
func (p *Offline[T]) coneRecover(steps int) bool {
	g := p.buf.Read
	nx, ny, nz := g.Nx(), g.Ny(), g.Nz()

	// Locate the corrupted columns with the A-vector chain, mirroring the
	// B-vector detection, layer by layer: the box spans the flagged columns,
	// rows and layers.
	p.chain(checksum.VecA, p.verifiedA, &p.chainA, steps)
	final := box{x0: nx, y0: ny, z0: nz}
	for z := range nz {
		stencil.ChecksumA(g.Layer(z), p.directA)
		am := p.det.Compare(p.directA, own(p.chainA[0], nz, z, nx))
		bm := p.det.Compare(p.curB[z], own(p.chainB[0], nz, z, ny))
		if len(am) > 0 {
			final.x0, final.x1 = min(final.x0, am[0].Index), max(final.x1, am[len(am)-1].Index+1)
		}
		if len(bm) > 0 {
			final.y0, final.y1 = min(final.y0, bm[0].Index), max(final.y1, bm[len(bm)-1].Index+1)
		}
		if len(am) > 0 || len(bm) > 0 {
			final.z0, final.z1 = min(final.z0, z), z+1
		}
	}
	if final.x1 == 0 || final.y1 == 0 {
		return false // unlocatable (checksum corruption or cancellation)
	}

	// Pad by one stencil radius to cover fringe cells below the detection
	// floor; the cone grows by the same radius a step on every axis.
	radius := max(p.ip.EdgeRadius(), p.op.St.RadiusZ(), 1)
	final = final.expand(radius, nx, ny, nz)
	window := final.expand(steps*radius, nx, ny, nz)
	if 2*window.volume() >= nx*ny*nz {
		return false // the cone covers most of the domain; rollback is cheaper
	}
	// If the cone touched the edge strips the interpolation chain reads,
	// the ring data is polluted and the post-repair re-verification would
	// fail anyway; detect that cheaply up front. Along z the window may
	// reach the domain's ends — its ghost reads resolve into it — except
	// under Periodic, where reaching one end but not the other would read
	// across the wrap, outside it.
	strip := p.ip.EdgeRadius() + 1
	if window.x0 < strip || window.y0 < strip || window.x1 > nx-strip || window.y1 > ny-strip {
		return false
	}
	if p.op.BC == grid.Periodic && (window.z0 == 0) != (window.z1 == nz) {
		return false
	}

	w := newConeWindow(window, p.op.BC, p.op.BCValue, nx, ny, nz)
	w.load(p.store.Domain())
	for _, region := range coneRegions(final, steps, radius, nx, ny, nz) {
		w.sweepRegion(p.op, region)
		p.stats.ConePointsSwept += region.volume()
	}
	w.store(g, final)

	// Reconcile: recompute the fused checksums from the repaired domain
	// and re-compare against the already-interpolated chain.
	clean := true
	for z, b := range p.curB {
		stencil.ChecksumB(g.Layer(z), b)
		clean = clean && !p.det.AnyMismatch(b, own(p.chainB[0], nz, z, ny))
	}
	return clean
}
