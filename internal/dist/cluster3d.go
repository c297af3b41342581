package dist

import (
	"fmt"

	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Cluster3D runs a 3-D stencil domain decomposed into z-layer slabs over
// simulated ranks, each protected by its own per-layer online ABFT
// instance — the layer deployment of the topology-neutral decomposition.
// Along z it is structurally the 1-D row-band cluster (a chain of ranks
// exchanging one halo strip per side through the same Transport seam,
// wired as a 1-by-nRanks grid), which is what makes it nearly free on top
// of the Decomp refactor. It satisfies the unified protector contract:
// Step and Run apply the injection plan configured in Options, Grid3D
// gathers the global domain, Stats merges the per-rank counters.
type Cluster3D[T num.Float] struct {
	nx, ny, nz int
	decomp     Decomp // z chain as a 1-by-nRanks grid over (1, nz)
	ranks      []*rank3d[T]
	tr         Transport[T]
	plans      []*fault.Injector[T] // per-rank routed Options.Inject (absolute iterations)
	iter       int
}

// NewCluster3D decomposes init into nRanks z-layer slabs wired through the
// transport. Remainder layers are distributed one per rank from the bottom,
// so slab depths differ by at most one layer. Every slab must be strictly
// thicker than the stencil's z-radius; a larger nRanks returns an error.
func NewCluster3D[T num.Float](op *stencil.Op3D[T], init *grid.Grid3D[T], nRanks int, opt Options[T]) (*Cluster3D[T], error) {
	nx, ny, nz := init.Nx(), init.Ny(), init.Nz()
	if err := op.Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	// The z chain reuses the band geometry: a 1-by-nRanks rank grid whose
	// "rows" are layer slabs. Decomp.Validate supplies the thin-slab
	// invariant (slabs strictly thicker than the z-radius); only the error
	// wording is re-phrased in layer terms.
	d := Decomp{Nx: 1, Ny: nz, RanksX: 1, RanksY: nRanks}
	rz := op.St.RadiusZ()
	if d.RanksY < 1 {
		return nil, fmt.Errorf("dist: invalid rank count %d", nRanks)
	}
	if err := d.Validate(0, rz); err != nil {
		return nil, fmt.Errorf("dist: %d ranks over %d layers leaves slabs of %d layer(s), need more than the stencil z-radius %d (at most %d rank(s) fit)",
			nRanks, nz, nz/nRanks, rz, maxParts(nz, rz))
	}
	if opt.LocalRanks != nil {
		return nil, fmt.Errorf("dist: LocalRanks (multi-process hosting) supports 2-D grid clusters only; the 3-D layer cluster runs all slabs in-process")
	}
	if opt.HaloDepth > 1 {
		return nil, fmt.Errorf("dist: HaloDepth %d (depth-k ghost zones) supports 2-D grid clusters only; the 3-D layer cluster exchanges every iteration", opt.HaloDepth)
	}
	opt = opt.withDefaults()

	c := &Cluster3D[T]{nx: nx, ny: ny, nz: nz, decomp: d}
	c.tr = opt.NewTransport(1, nRanks, op.BC == grid.Periodic)
	for i := 0; i < nRanks; i++ {
		t := d.TileOf(i) // Y axis carries the layer range
		r, err := newRank3D(op, init, i, t.Y0, t.Y1, rz, opt)
		if err != nil {
			return nil, err
		}
		r.tr = c.tr
		r.stats.Topology = fmt.Sprintf("layers %d", nRanks)
		r.tel = opt.Telemetry.Recorder(i)
		c.ranks = append(c.ranks, r)
	}
	c.plans = c.routePlan(opt.Inject)
	return c, nil
}

// Ranks returns the number of ranks in the cluster.
func (c *Cluster3D[T]) Ranks() int { return len(c.ranks) }

// Slab returns the global layer range [z0, z1) owned by rank i.
func (c *Cluster3D[T]) Slab(i int) (z0, z1 int) {
	r := c.ranks[i]
	return r.z0, r.z1
}

// Iter returns the number of completed cluster iterations.
func (c *Cluster3D[T]) Iter() int { return c.iter }

// RankStats returns each rank's counters, indexed by rank. When telemetry
// is enabled each entry carries that rank's phase-time breakdown.
func (c *Cluster3D[T]) RankStats() []Stats {
	out := make([]Stats, len(c.ranks))
	m := c.tr.Metrics()
	for i, r := range c.ranks {
		out[i] = r.stats
		out[i].Timing = r.tel.Timing()
		out[i].Transport = m.PerRank(r.id)
	}
	if len(out) > 0 {
		out[0].Transport.DialRetries += m.DialRetries
		out[0].Transport.PoisonEvents += m.Poisoned
	}
	return out
}

// Stats returns the cluster-wide merge of the per-rank counters, with
// Iterations normalised to lockstep sweeps (Iter), like the 2-D cluster.
func (c *Cluster3D[T]) Stats() Stats {
	var total Stats
	for _, s := range c.RankStats() {
		total = total.Merge(s)
	}
	total.Iterations = c.iter
	return total
}

// TransportMetrics returns the transport's per-edge traffic snapshot.
func (c *Cluster3D[T]) TransportMetrics() telemetry.TransportMetrics { return c.tr.Metrics() }

// Gather reassembles the global domain from the ranks' current slab states.
// Call it between Run calls, never concurrently with one.
func (c *Cluster3D[T]) Gather() *grid.Grid3D[T] {
	g := grid.New3D[T](c.nx, c.ny, c.nz)
	for _, r := range c.ranks {
		for z := r.z0; z < r.z1; z++ {
			g.Layer(z).CopyFrom(r.buf.Read.Layer(r.slabLo() + z - r.z0))
		}
	}
	return g
}

// Grid3D gathers and returns the global domain state; an alias for Gather
// that completes the unified protector contract. Each call reassembles the
// domain from the rank slabs, so hoist it out of hot loops.
func (c *Cluster3D[T]) Grid3D() *grid.Grid3D[T] { return c.Gather() }

// Grid returns nil: Cluster3D decomposes 3-D domains.
func (c *Cluster3D[T]) Grid() *grid.Grid[T] { return nil }

// Finalize is a no-op: every rank verifies every sweep, so nothing is
// pending at the end of a run.
func (c *Cluster3D[T]) Finalize() {}

// Close closes the cluster's transport. The slab ranks run on per-Run
// goroutines, so there is nothing else to stop. Call it after the final
// Run/Gather.
func (c *Cluster3D[T]) Close() error { return c.tr.Close() }

// Step advances the cluster by one lockstep iteration; like the 2-D
// cluster, batch known iteration counts through Run.
func (c *Cluster3D[T]) Step() { c.Run(1) }

// Run advances the cluster by count lockstep iterations, applying the
// injection plan configured in Options (absolute iteration numbers).
func (c *Cluster3D[T]) Run(count int) {
	if count <= 0 {
		return
	}
	base := c.iter
	done := make(chan struct{}, len(c.ranks))
	for i, r := range c.ranks {
		go func(r *rank3d[T], cfg *fault.Injector[T]) {
			for t := 0; t < count; t++ {
				r.tel.SetIter(base + t)
				r.exchangeHalos()
				r.step(stencil.HookAt[T](injSource(cfg), base+t))
				tb := r.tel.Begin()
				c.tr.Barrier()
				r.tel.End(telemetry.PhaseBarrierWait, tb)
			}
			done <- struct{}{}
		}(r, c.plans[i])
	}
	for range c.ranks {
		<-done
	}
	c.iter += count
}

// routePlan splits a global fault plan into per-rank plans with the
// injection layer translated into the owning rank's extended-grid frame.
// Injections outside the domain are dropped.
func (c *Cluster3D[T]) routePlan(plan *fault.Plan) []*fault.Injector[T] {
	out := make([]*fault.Injector[T], len(c.ranks))
	if plan == nil {
		return out
	}
	perRank := make([][]fault.Injection, len(c.ranks))
	for _, inj := range plan.Injections() {
		if inj.X < 0 || inj.X >= c.nx || inj.Y < 0 || inj.Y >= c.ny || inj.Z < 0 || inj.Z >= c.nz {
			continue
		}
		i := c.decomp.OwnerOf(0, inj.Z)
		r := c.ranks[i]
		local := inj
		local.Z = inj.Z - r.z0 + r.h
		perRank[i] = append(perRank[i], local)
	}
	for i, injs := range perRank {
		if len(injs) > 0 {
			out[i] = fault.NewInjector[T](fault.NewPlan(injs...))
		}
	}
	return out
}
