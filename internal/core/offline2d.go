package core

import (
	"stencilabft/internal/checkpoint"
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Offline2D protects a 2-D stencil run with the paper's offline ABFT
// scheme (Section 4): the fused column checksum is accumulated every sweep
// (one extra add per point), but verification happens only every Δ
// iterations, by interpolating the last verified checksum Δ steps forward
// and comparing it with the current fused checksum. A detected corruption
// triggers rollback to the last clean checkpoint and recomputation of the
// lost iterations — the paper's standard checkpoint-and-recovery coupling.
//
// The per-step boundary terms of the interpolation chain need the domain's
// edge strips of every intermediate iteration; those are retained in a ring
// of Δ edge snapshots, O(Δ·r·(nx+ny)) memory.
type Offline2D[T num.Float] struct {
	op     *stencil.Op2D[T]
	buf    *grid.Buffer[T]
	ip     *checksum.Interp2D[T]
	det    checksum.Detector[T]
	pool   *stencil.Pool
	period int
	inj    stencil.InjectSource[T]

	curB     []T // fused column checksums of the current iteration
	verified []T // column checksums at the last verified iteration
	// chainB is the interpolation chain's scratch pair: column checksums
	// extended by RadiusY halo entries; interpB views the chain's result.
	chainB  [2][]T
	interpB []T

	// Cone-recovery state (allocated only in ConeRecovery mode): the row
	// checksums at the last verified iteration and their chain's pair.
	recovery  RecoveryMode
	verifiedA []T
	chainA    [2][]T

	ring  []*checksum.EdgeSnapshot[T] // edge strips of the last Δ pre-sweep states
	store checkpoint.Store2D[T]

	iter     int // completed sweeps
	lastSafe int // iteration of the last verified checkpoint
	stats    Stats
	tel      *telemetry.Recorder // nil when telemetry is disabled
}

// NewOffline2D builds an offline protector for op with detection period
// opt.Period (Δ), starting from init (copied). The initial state is
// checkpointed immediately, so the first rollback target always exists.
func NewOffline2D[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], opt Options[T]) (*Offline2D[T], error) {
	opt = opt.withDefaults()
	nx, ny := init.Nx(), init.Ny()
	ip, err := checksum.NewInterp2D(op, nx, ny)
	if err != nil {
		return nil, err
	}
	ip.DropBoundaryTerms = opt.DropBoundaryTerms
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	p := &Offline2D[T]{
		op:       op,
		buf:      grid.BufferFrom(init),
		ip:       ip,
		det:      opt.Detector,
		pool:     opt.Pool,
		period:   opt.Period,
		inj:      opt.Inject,
		curB:     make([]T, ny),
		verified: make([]T, ny),
		chainB:   [2][]T{make([]T, ny+2*ry), make([]T, ny+2*ry)},
		ring:     make([]*checksum.EdgeSnapshot[T], opt.Period),
		tel:      opt.Telemetry,
	}
	r := ip.EdgeRadius()
	for i := range p.ring {
		p.ring[i] = checksum.NewEdgeSnapshot[T](nx, ny, r, op.BC, op.BCValue)
	}
	p.recovery = opt.Recovery
	if p.recovery == ConeRecovery {
		p.verifiedA = make([]T, nx)
		p.chainA = [2][]T{make([]T, nx+2*rx), make([]T, nx+2*rx)}
		stencil.ChecksumA(p.buf.Read, p.verifiedA)
	}
	stencil.ChecksumB(p.buf.Read, p.curB)
	copy(p.verified, p.curB)
	p.store.Save(0, p.buf.Read, p.curB)
	p.stats.Checkpoint = p.store.Stats()
	return p, nil
}

// Grid returns the current domain state.
func (p *Offline2D[T]) Grid() *grid.Grid[T] { return p.buf.Read }

// Iter returns the number of completed sweeps.
func (p *Offline2D[T]) Iter() int { return p.iter }

// Stats returns the accumulated counters.
func (p *Offline2D[T]) Stats() Stats {
	s := p.stats
	s.Checkpoint = p.store.Stats()
	return s
}

// Grid3D returns nil: Offline2D protects a 2-D domain.
func (p *Offline2D[T]) Grid3D() *grid.Grid3D[T] { return nil }

// Step advances one sweep applying the configured injection source,
// verifying (and recovering) when the detection period elapses.
func (p *Offline2D[T]) Step() { p.StepInject(stencil.SitesAt(p.inj, p.iter)) }

// StepInject is Step with explicit per-call injection sites.
func (p *Offline2D[T]) StepInject(sites []stencil.Site[T]) {
	p.sweep(sites)
	if p.iter-p.lastSafe >= p.period {
		p.verify(p.iter - p.lastSafe)
	}
}

// Run advances count iterations, applying the configured injection source.
func (p *Offline2D[T]) Run(count int) {
	for i := 0; i < count; i++ {
		p.Step()
	}
}

// Finalize verifies any iterations still pending since the last periodic
// check (the "after the application completes" mode of Section 4). Call it
// once after the last Step.
func (p *Offline2D[T]) Finalize() {
	if n := p.iter - p.lastSafe; n > 0 {
		p.verify(n)
	}
}

// sweep runs one fused sweep, capturing the pre-sweep edge strips the
// interpolation chain will need.
func (p *Offline2D[T]) sweep(sites []stencil.Site[T]) {
	src, dst := p.buf.Read, p.buf.Write
	p.tel.SetIter(p.iter)
	t0 := p.tel.Begin()
	p.ring[(p.iter-p.lastSafe)%p.period].Capture(src)
	p.op.SweepParallelInject(p.pool, dst, src, p.curB, sites)
	p.tel.End(telemetry.PhaseSweep, t0)
	p.buf.Swap()
	p.iter++
	p.stats.Iterations++
}

// verify interpolates the last verified checksum steps iterations forward
// and compares with the current fused checksum. Clean: checkpoint and move
// the verification window. Dirty: roll back and recompute; because the
// fault model is transient (a bit-flip corrupts a value once), the
// recomputed segment is clean and its verification succeeds; should it not
// (e.g. a fault injected during recomputation), verify recurses until it
// does, counting every extra rollback.
func (p *Offline2D[T]) verify(steps int) {
	p.stats.Verifications++
	t0 := p.tel.Begin()
	p.interpB = p.chain(checksum.VecB, p.verified, p.chainB, steps)
	mismatch := p.det.AnyMismatch(p.curB, p.interpB)
	p.tel.End(telemetry.PhaseVerify, t0)
	if !mismatch {
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
	copy(p.verified, p.curB)
	p.iter = p.lastSafe
	for p.iter < target {
		p.sweep(nil)
		p.stats.RecomputedIters++
	}
	p.verify(target - p.lastSafe)
}

// chain interpolates vector v of the last verified iteration, from, steps
// iterations forward through the ring of edge snapshots, in the extended
// scratch pair, and returns the result's own entries. Each step refills the
// halo from the vector's own entries: the chain spans the domain.
func (p *Offline2D[T]) chain(v checksum.Vec, from []T, pair [2][]T, steps int) []T {
	cur, next := pair[0], pair[1]
	h := (len(cur) - len(from)) / 2
	copy(cur[h:], from)
	for s := 0; s < steps; s++ {
		p.ip.FillHalo(v, cur)
		p.ip.Interpolate(v, cur, p.ring[s], next[h:h+len(from)])
		cur, next = next, cur
	}
	return cur[h : h+len(from)]
}

// markVerified promotes the current state to the verification baseline:
// checksums become the chain origin and the domain is checkpointed.
func (p *Offline2D[T]) markVerified() {
	copy(p.verified, p.curB)
	if p.recovery == ConeRecovery {
		stencil.ChecksumA(p.buf.Read, p.verifiedA)
	}
	p.lastSafe = p.iter
	p.store.Save(p.iter, p.buf.Read, p.curB)
}

// coneRecover attempts a light-cone repair of the corruption detected by
// the chain comparison (p.interpB holds the interpolated column checksums of
// the current iteration). It returns true when the repair succeeded and
// the checksums reconcile; the caller then re-baselines. On any doubt it
// returns false and the caller performs a full rollback.
func (p *Offline2D[T]) coneRecover(steps int) bool {
	nx, ny := p.buf.Read.Nx(), p.buf.Read.Ny()

	// Locate the corrupted columns with the A-vector chain, mirroring
	// the B-vector detection.
	interpA := p.chain(checksum.VecA, p.verifiedA, p.chainA, steps)
	directA := make([]T, nx)
	stencil.ChecksumA(p.buf.Read, directA)

	bm := p.det.Compare(p.curB, p.interpB)
	am := p.det.Compare(directA, interpA)
	if len(am) == 0 || len(bm) == 0 {
		return false // unlocatable (checksum corruption or cancellation)
	}

	// Bounding box of the flagged rows and columns, padded by one
	// stencil radius to cover fringe cells below the detection floor.
	radius := max(p.ip.EdgeRadius(), 1)
	final := rect{
		x0: am[0].Index, x1: am[len(am)-1].Index + 1,
		y0: bm[0].Index, y1: bm[len(bm)-1].Index + 1,
	}.expand(radius, nx, ny)

	window := final.expand(steps*radius, nx, ny)
	if 2*window.area() >= nx*ny {
		return false // the cone covers most of the domain; rollback is cheaper
	}
	// If the cone touched the edge strips the interpolation chain reads,
	// the ring data is polluted and the post-repair re-verification would
	// fail anyway; detect that cheaply up front.
	strip := p.ip.EdgeRadius() + 1
	if window.x0 < strip || window.y0 < strip || window.x1 > nx-strip || window.y1 > ny-strip {
		return false
	}

	w := newConeWindow(window, p.op.BC, p.op.BCValue, nx, ny)
	w.load(p.store.Domain())
	regions := coneRegions(final, steps, radius, nx, ny)
	for _, region := range regions {
		w.sweepRegion(p.op, region)
		p.stats.ConePointsSwept += region.area()
	}
	w.store(p.buf.Read, final)

	// Reconcile: recompute the fused checksums from the repaired domain
	// and re-compare against the already-interpolated chain.
	stencil.ChecksumB(p.buf.Read, p.curB)
	return !p.det.AnyMismatch(p.curB, p.interpB)
}
