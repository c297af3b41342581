// Package dist is the distributed-memory deployment of the ABFT scheme —
// the paper's headline setting (Section 1): a domain decomposed over
// simulated ranks, each rank running the online detect-and-correct
// protector on the subdomain it owns while exchanging only halo strips with
// its neighbours. No checksum ever crosses a rank: each tile owns its
// checksum pair, halo strips enter the interpolation as locally computed
// sums of the received data, and a corruption is detected, located and
// repaired entirely by the rank that owns it — the method's "intrinsically
// parallel" property.
//
// The decomposition is topology-neutral, described by Decomp: a 2-D domain
// splits over a RanksX-by-RanksY Cartesian rank grid (NewClusterGrid; the
// historical 1-D row bands are the RanksX == 1 column), and a 3-D domain
// splits into z-layer slabs (NewCluster3D). Either rank is a frame — the
// owned tile or slab between its halo — plus a core.Chunk inset by the halo,
// and a halo exchange. Both run on one shell — rank goroutines,
// Run/RunRecover, stats — and communicate through the Transport seam.
// The default ChanTransport wires them with paired channels in the MPI
// neighbour pattern and separates iterations with a cyclic barrier, so
// every rank's halo data is always exactly one iteration fresh — the
// lockstep of a bulk-synchronous MPI stencil code. TCPTransport carries the
// same contract over sockets; any backend implementing Transport plugs in
// via Options.NewTransport.
package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stats"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Options configure the per-rank protection of a Cluster. The zero value
// uses the paper's defaults (epsilon 1e-5, residual pairing, sequential
// per-rank sweeps, in-process channel transport).
type Options[T num.Float] struct {
	// Detector's Epsilon defaults to the paper's 1e-5 when zero, with an
	// absolute floor of 1.
	Detector checksum.Detector[T]
	// PairPolicy selects multi-error pairing (default PairByResidual).
	PairPolicy checksum.PairPolicy
	// Pool partitions each rank's local sweep over workers; nil runs each
	// rank's sweep sequentially on the rank goroutine. The pool's
	// persistent workers are spawned once and safely shared by all ranks:
	// every rank's row-range jobs interleave over the same goroutines.
	Pool *stencil.Pool
	// DropBoundaryTerms reproduces the paper's simplified listings for the
	// x-direction beta terms (ablation A1); leave false for exact
	// interpolation.
	DropBoundaryTerms bool
	// HaloDepth selects depth-k ghost zones (communication-avoiding
	// clusters): halo strips k·radius wide are exchanged once every k
	// iterations, and on the k-1 iterations in between each rank
	// redundantly recomputes a shrinking shell of its neighbours' boundary
	// points instead of communicating — trading O(k·radius) extra compute
	// per boundary for a k-fold cut in message rounds and barriers.
	// 0 and 1 both mean the classic exchange-every-iteration schedule.
	// Fault-free results are bit-identical to depth 1 at every depth, a
	// constant field included: a shell cell adds the global field's value
	// at that cell, as its owner does.
	// Exchanges happen on iterations where Iter%k == 0, so checkpoint
	// restores must land on multiples of k (resilience.Buddy validates its
	// Period against this). Tiles must be strictly wider than k·radius in
	// each axis; NewClusterGrid rejects grids that are not.
	HaloDepth int
	// Inject schedules bit-flip injections in global coordinates for
	// Step/Run; each injection is routed to the rank owning its point and
	// applied during that rank's local sweep. Iteration numbers are
	// absolute (compared against Iter), so plans survive split Run calls.
	Inject *fault.Plan
	// RecvTimeout bounds each blocking halo/checkpoint receive, so a stalled
	// sibling rank surfaces as a classified *Fault (ClassTimeout) instead of
	// a hang: it is applied through SetRecvTimeout to whichever backend
	// NewTransport resolves to. Zero keeps the backend's default (the
	// channel backend waits forever, the tcp backend its 2-minute bound);
	// negative waits forever on either.
	RecvTimeout time.Duration
	// NewTransport overrides the communication backend. It receives the
	// rank-grid shape (columns × rows; a 3-D layer cluster passes its slab
	// chain as 1 × nRanks) and whether the grid closes into a torus
	// (periodic global boundaries), and returns the Transport the halo
	// exchange and iteration barrier run through. Nil uses
	// NewChanTransport.
	NewTransport func(ranksX, ranksY int, ring bool) Transport[T]
	// WrapTransport, when non-nil, layers a wrapper over whichever backend
	// NewTransport resolves to — tracing, delaying, or chaos fault
	// injection (internal/chaos) — without replacing the backend itself.
	// It receives the built transport plus the same shape arguments.
	WrapTransport func(tr Transport[T], ranksX, ranksY int, ring bool) Transport[T]
	// LocalRanks restricts which ranks of the grid this Cluster
	// materialises (nil = all) — the multi-process deployment, where each
	// OS process hosts a subset (typically one) of the ranks and the rest
	// live behind a cross-process Transport such as TCPTransport. The
	// transport must span the full grid: the default in-process channel
	// backend cannot (its barrier would wait for ranks that run
	// elsewhere), so LocalRanks requires NewTransport. 2-D grid clusters
	// only; Cluster3D rejects it.
	LocalRanks []int
	// AfterStep, when non-nil, runs on each materialised rank's goroutine
	// after its sweep/verify/repair step of every iteration, before the
	// iteration barrier — the seam the resilience layer hangs buddy
	// checkpointing on, so snapshot traffic overlaps the barrier wait
	// instead of serialising with the compute. It receives the global rank
	// id and the absolute iteration just completed. It must not touch other
	// ranks' state.
	AfterStep func(rank, iter int)
	// Telemetry, when non-nil, hands each materialised rank a phase-timer
	// and span recorder (keyed by global rank id), making sweep, halo
	// exchange, verification and barrier-wait time attributable per rank.
	// Nil disables instrumentation entirely: the rank step then pays only
	// nil checks, adding zero allocations and no clock reads.
	Telemetry *telemetry.Collector
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (o Options[T]) withDefaults() Options[T] {
	o.Detector = o.Detector.WithDefaults()
	if o.NewTransport == nil {
		o.NewTransport = func(rx, ry int, ring bool) Transport[T] { return NewChanTransport[T](rx, ry, ring) }
	}
	if o.RecvTimeout != 0 {
		base, timeout := o.NewTransport, o.RecvTimeout
		o.NewTransport = func(rx, ry int, ring bool) Transport[T] {
			t := base(rx, ry, ring)
			t.SetRecvTimeout(timeout)
			return t
		}
	}
	if o.WrapTransport != nil {
		base, wrap := o.NewTransport, o.WrapTransport
		o.NewTransport = func(rx, ry int, ring bool) Transport[T] {
			return wrap(base(rx, ry, ring), rx, ry, ring)
		}
	}
	return o
}

// Stats aggregates one rank's ABFT counters through the unified counter
// model; Cluster.Stats merges them over the cluster. Topology carries the
// cluster's rank-grid shape and HaloByDir the per-direction message counts
// (indexed by Dir), so 1-D band versus 2-D grid communication overhead is
// directly observable.
type Stats = stats.Stats

// Cluster runs a 2-D stencil domain decomposed over a Cartesian rank grid,
// each rank protected by its own online ABFT instance. It satisfies the
// same unified protector contract as the local runners: Step and Run apply
// the injection plan configured in Options, Grid gathers the global domain,
// Stats merges the per-rank counters.
//
// By default every rank is a goroutine in this process; under
// Options.LocalRanks the Cluster materialises only the listed ranks and the
// rest of the grid lives in peer processes behind a cross-process
// Transport — Step/Run then advance the hosted ranks in lockstep with the
// remote ones through the transport's barrier, and Gather/Stats cover the
// hosted tiles only.
type Cluster[T num.Float] struct {
	shell[T]
	ranks []*rank[T] // the hosted tile ranks, aligned with shell.hosted
}

// engine is one rank as the cluster shell drives it. The 2-D tile rank
// (rank.go, overlap.go) and the 3-D slab rank (rank3d.go) are the two.
type engine[T num.Float] interface {
	// advance runs iteration abs in full on the rank's goroutine: halo
	// exchange, sweep, verification, repair, buffer swap.
	advance(abs int, sites []stencil.Site[T])
	// prePost posts, ahead of the barrier, whatever strips of the next
	// exchange iteration are final once advance has returned; dropPosted
	// discards the ones pre-posted to this rank when that iteration will
	// not run on the state they were cut from. The slab rank posts inside
	// advance, so both are no-ops there.
	prePost()
	dropPosted()
	// counters returns the rank's ABFT and halo counters.
	counters() Stats
	// chunk is the rank's owned box as a core.Chunk of its frame, whose
	// snapshot is the rank's restartable state (see shell.PackState).
	chunk() *core.Chunk[T]
}

// hostedRank is what the shell keeps per materialised rank.
type hostedRank[T num.Float] struct {
	id   int // global rank id
	eng  engine[T]
	tel  *telemetry.Recorder     // nil when telemetry is disabled
	plan stencil.InjectSource[T] // routed Options.Inject (absolute iterations); nil when none lands here
	cmds chan rankCmd
}

// shell is the part of a cluster that does not depend on what a rank
// sweeps: the persistent rank goroutines and their run loop, fault capture,
// the iteration counter, counters and state snapshots. Cluster and
// Cluster3D embed it, so its methods are theirs.
type shell[T num.Float] struct {
	decomp    Decomp // a slab chain is the 1-by-nRanks grid over (1, nz)
	hosted    []hostedRank[T]
	tr        Transport[T]
	afterStep func(rank, iter int)
	iter      int
	haloDepth int

	// Each materialised rank runs on one persistent goroutine, spawned at
	// construction and fed batches through its command channel — Run then
	// costs a channel send and a join per rank instead of a goroutine
	// spawn, keeping the steady-state iteration path allocation-free.
	// Close shuts them down.
	done       chan struct{}
	faultMu    sync.Mutex
	firstFault error
	closeOnce  sync.Once
}

// rankCmd is one Run batch handed to a rank goroutine: iters iterations
// starting at absolute iteration base.
type rankCmd struct {
	iters, base int
}

// NewClusterGrid decomposes init over a ranksX-by-ranksY Cartesian rank
// grid wired through the transport. Remainder points are distributed one
// per rank from the low end of each axis, so tile edges differ by at most
// one point. Every tile must be strictly wider than the stencil's x-radius
// and strictly taller than its y-radius (the minimum domain an interpolator
// accepts, and what lets Clamp/Mirror ghost synthesis resolve inside the
// tile); a finer grid returns an error.
func NewClusterGrid[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], ranksX, ranksY int, opt Options[T]) (*Cluster[T], error) {
	nx, ny := init.Nx(), init.Ny()
	if err := op.Validate(nx, ny); err != nil {
		return nil, err
	}
	d := Decomp{Nx: nx, Ny: ny, RanksX: ranksX, RanksY: ranksY}
	rx, ry := op.St.RadiusX(), op.St.RadiusY()
	depth := opt.HaloDepth
	if depth < 1 {
		depth = 1
	}
	if err := d.ValidateDepth(rx, ry, depth); err != nil {
		return nil, err
	}
	hx, hy := depth*rx, depth*ry
	local, err := resolveLocalRanks(opt.LocalRanks, d.NumRanks())
	if err != nil {
		return nil, err
	}
	if opt.LocalRanks != nil && opt.NewTransport == nil {
		return nil, fmt.Errorf("dist: LocalRanks hosts %d of %d ranks in this process; the default in-process channel transport cannot reach the others — set NewTransport to a cross-process backend (e.g. NewTCPTransport)", len(local), d.NumRanks())
	}
	opt = opt.withDefaults()
	opt.HaloDepth = depth

	c := &Cluster[T]{}
	tr := opt.NewTransport(ranksX, ranksY, op.BC == grid.Periodic)
	c.ranks, err = buildRanks(len(local), func(p int) (*rank[T], error) {
		return newRank(op, init, local[p], d.TileOf(local[p]), hx, hy, opt)
	})
	if err != nil {
		return nil, err
	}
	for _, r := range c.ranks {
		r.tr = tr
		r.bindTransport()
		r.stats.Topology = "grid " + d.String()
		r.tel = opt.Telemetry.Recorder(r.id)
		c.hosted = append(c.hosted, hostedRank[T]{id: r.id, eng: r, tel: r.tel})
	}
	// Injections with a non-zero Z or outside the domain are dropped; the
	// rest land in the owning tile's extended frame.
	c.start(d, depth, tr, opt, func(inj fault.Injection) (int, fault.Injection, bool) {
		if inj.Z != 0 || inj.X < 0 || inj.X >= nx || inj.Y < 0 || inj.Y >= ny {
			return 0, inj, false
		}
		id := d.OwnerOf(inj.X, inj.Y)
		t := d.TileOf(id)
		inj.X += hx - t.X0
		inj.Y += hy - t.Y0
		return id, inj, true
	})
	return c, nil
}

// Decomp returns the cluster's decomposition geometry.
func (c *Cluster[T]) Decomp() Decomp { return c.decomp }

// Tile returns the global sub-rectangle owned by rank i — pure geometry,
// answerable for remote ranks too.
func (c *Cluster[T]) Tile(i int) Tile { return c.decomp.TileOf(i) }

// Gather reassembles the global domain from the ranks' current tile
// states — the MPI_Gather at the end of a distributed run. Call it between
// Run calls, never concurrently with one. Under LocalRanks only the hosted
// tiles are filled (remote tiles stay zero): a multi-process deployment
// gathers by collecting each process's tiles, as stencilrun -launch does.
func (c *Cluster[T]) Gather() *grid.Grid[T] {
	g := grid.New[T](c.decomp.Nx, c.decomp.Ny)
	fanOut(len(c.ranks), func(p int) { // the tiles are disjoint
		r := c.ranks[p]
		for y := r.tile.Y0; y < r.tile.Y1; y++ {
			copy(g.Row(y)[r.tile.X0:r.tile.X1], r.buf.Read.Row(r.loY() + y - r.tile.Y0)[r.loX():r.hiX()])
		}
	})
	return g
}

// Grid gathers and returns the global domain state; an alias for Gather
// that completes the unified protector contract. Each call reassembles the
// domain from the rank tiles, so hoist it out of hot loops.
func (c *Cluster[T]) Grid() *grid.Grid[T] { return c.Gather() }

// Grid3D returns nil: this cluster decomposes 2-D domains (Cluster3D is
// the z-layer deployment).
func (c *Cluster[T]) Grid3D() *grid.Grid3D[T] { return nil }

// start wires the ranks already listed in c.hosted (id, eng, tel) to tr and
// spawns their goroutines. locate maps an injection of the global
// Options.Inject plan to the rank owning its point and to that rank's
// extended-grid frame — the coordinates its sweep's sites are in — or reports
// that it falls outside the domain. Injections owned by a rank another
// process hosts are dropped: each process routes the same global plan, so
// every injection is applied exactly once cluster-wide.
func (c *shell[T]) start(d Decomp, depth int, tr Transport[T], opt Options[T], locate func(fault.Injection) (id int, local fault.Injection, ok bool)) {
	c.decomp, c.haloDepth, c.tr, c.afterStep = d, depth, tr, opt.AfterStep
	pos := make(map[int]int, len(c.hosted))
	for p, h := range c.hosted {
		pos[h.id] = p
	}
	perRank := make([][]fault.Injection, len(c.hosted))
	if opt.Inject != nil {
		for _, inj := range opt.Inject.Injections() {
			id, local, ok := locate(inj)
			if p, hosted := pos[id]; ok && hosted {
				perRank[p] = append(perRank[p], local)
			}
		}
	}
	c.done = make(chan struct{}, len(c.hosted))
	for p := range c.hosted {
		h := &c.hosted[p]
		if len(perRank[p]) > 0 {
			h.plan = fault.NewInjector[T](fault.NewPlan(perRank[p]...))
		}
		h.cmds = make(chan rankCmd, 1)
		go func() { // the rank's persistent goroutine: Run batches until Close
			for cmd := range h.cmds {
				c.runBatch(h, cmd)
			}
		}()
	}
}

// buildRanks builds the n hosted ranks build(0) … build(n-1), each on its
// own goroutine — a rank's frame, tile copy and initial checksums are its
// own — and returns them in that order, or the error of the first that
// failed. Whatever the ranks share (transport, telemetry, the hosted list)
// the caller wires after the join.
func buildRanks[R any](n int, build func(p int) (R, error)) ([]R, error) {
	out, errs := make([]R, n), make([]error, n)
	fanOut(n, func(p int) { out[p], errs[p] = build(p) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fanOut runs f(0) … f(n-1) concurrently, f(0) on the calling goroutine and
// each other on its own, and returns when all have: one call (a process
// hosting one rank) spawns nothing.
func fanOut(n int, f func(p int)) {
	var wg sync.WaitGroup
	wg.Add(max(n-1, 0))
	for p := 1; p < n; p++ {
		go func() {
			defer wg.Done()
			f(p)
		}()
	}
	if n > 0 {
		f(0)
	}
	wg.Wait()
}

// resolveLocalRanks normalises an Options.LocalRanks list against an n-rank
// grid: nil means every rank; explicit lists are sorted, bounds-checked and
// must be duplicate-free.
func resolveLocalRanks(list []int, n int) ([]int, error) {
	if list == nil {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	if len(list) == 0 {
		return nil, fmt.Errorf("dist: LocalRanks is empty; a cluster must host at least one rank (nil hosts all)")
	}
	local := append([]int(nil), list...)
	sort.Ints(local)
	for i, id := range local {
		if id < 0 || id >= n {
			return nil, fmt.Errorf("dist: local rank %d outside the %d-rank grid", id, n)
		}
		if i > 0 && local[i-1] == id {
			return nil, fmt.Errorf("dist: local rank %d listed twice", id)
		}
	}
	return local, nil
}

// Ranks returns the number of ranks in the whole cluster — including, for
// a LocalRanks deployment, the ranks hosted by peer processes.
func (c *shell[T]) Ranks() int { return c.decomp.NumRanks() }

// LocalRanks returns the rank ids materialised in this process, sorted.
// For a default (all-local) cluster this is 0..Ranks()-1.
func (c *shell[T]) LocalRanks() []int {
	ids := make([]int, len(c.hosted))
	for p := range c.hosted {
		ids[p] = c.hosted[p].id
	}
	return ids
}

// Iter returns the number of completed cluster iterations.
func (c *shell[T]) Iter() int { return c.iter }

// HaloDepth returns the cluster's ghost-zone depth k: halo exchanges
// happen on iterations where Iter%k == 0, and checkpoint restores must
// land on multiples of k. 1 is the classic exchange-every-iteration
// schedule.
func (c *shell[T]) HaloDepth() int { return c.haloDepth }

// RankStats returns the materialised ranks' counters, aligned with
// LocalRanks — for a default cluster, indexed by rank id. When telemetry
// is enabled each entry carries that rank's phase-time breakdown.
func (c *shell[T]) RankStats() []Stats {
	out := make([]Stats, len(c.hosted))
	m := c.tr.Metrics()
	for i, h := range c.hosted {
		out[i] = h.eng.counters()
		out[i].Timing = h.tel.Timing()
		out[i].Transport = m.PerRank(h.id)
	}
	// The transport-global counters have no owning rank; park them on the
	// first entry so merging RankStats reproduces the cluster totals.
	if len(out) > 0 {
		out[0].Transport.DialRetries += m.DialRetries
		out[0].Transport.PoisonEvents += m.Poisoned
		out[0].Transport.CrcErrors += m.CrcErrors
	}
	return out
}

// Stats returns the cluster-wide merge of the per-rank counters, with
// Iterations normalised to lockstep sweeps (Iter) so the count stays
// comparable across deployments: like the local and blocked protectors, a
// cluster reports one iteration per global sweep. Event counters
// (Verifications, Detections, HaloExchanges, the per-direction HaloByDir, …)
// remain per-rank sums, just as the blocked protector counts one
// verification per block.
func (c *shell[T]) Stats() Stats {
	var total Stats
	for _, s := range c.RankStats() {
		total = total.Merge(s)
	}
	total.Iterations = c.iter
	return total
}

// TransportMetrics returns the transport's per-edge traffic snapshot.
func (c *shell[T]) TransportMetrics() telemetry.TransportMetrics { return c.tr.Metrics() }

// Finalize is a no-op: every rank verifies every sweep, so nothing is
// pending at the end of a run.
func (c *shell[T]) Finalize() {}

// Close stops the persistent rank goroutines and closes the cluster's
// transport (the TCP backend's sockets and goroutines; the in-process
// channel backend has nothing to release). Call it after the final
// Run/Gather, never concurrently with one.
func (c *shell[T]) Close() error {
	c.closeOnce.Do(func() {
		for _, h := range c.hosted {
			close(h.cmds)
		}
	})
	return c.tr.Close()
}

// Step advances the cluster by one lockstep iteration, applying the
// injection plan configured in Options. Each call dispatches to and joins
// the persistent rank goroutines, so batch iterations through Run(count)
// whenever the iteration count is known up front.
func (c *shell[T]) Step() { c.Run(1) }

// Run advances the cluster by count lockstep iterations, applying the
// injection plan configured in Options (injections match on the absolute
// iteration number, Iter-based). A transport fault is fatal, matching the
// TCP backend's MPI_ERRORS_ARE_FATAL semantics; use RunRecover to survive
// one.
func (c *shell[T]) Run(count int) {
	if err := c.run(count); err != nil {
		panic(err)
	}
}

// RunRecover is the fault-tolerant Run: a transport fault (typically a
// *Fault from a dead peer process) is returned instead of panicking, after
// every hosted rank has unwound. On fault the cluster's iteration counter
// is NOT advanced — the hosted tiles are mid-iteration garbage and the
// caller (the resilience layer) is expected to restore a checkpoint with
// RestoreState/SetIter, or rebuild the cluster, before running again.
func (c *shell[T]) RunRecover(count int) error { return c.run(count) }

// run advances iters lockstep iterations by handing each persistent rank
// goroutine a command and joining them. Each rank's sweep applies the
// configured Options.Inject plan, looked up at the absolute iteration. A
// rank that panics with an error (the transport fault path) aborts
// the transport so its sibling ranks unwind from their own blocked
// Recv/Barrier calls, and run returns the first such fault once every rank
// has stopped; the rank goroutines survive an error fault and accept
// further commands (the resilience layer restores state and reruns).
// Non-error panics (programming bugs) abort the siblings too, then
// re-panic, killing the process.
func (c *shell[T]) run(iters int) error {
	if iters <= 0 {
		return nil
	}
	c.faultMu.Lock()
	c.firstFault = nil
	c.faultMu.Unlock()
	base := c.iter
	for _, h := range c.hosted {
		h.cmds <- rankCmd{iters: iters, base: base}
	}
	for range c.hosted {
		<-c.done
	}
	c.faultMu.Lock()
	err := c.firstFault
	c.faultMu.Unlock()
	if err == nil {
		c.iter += iters
	}
	return err
}

// runBatch executes one Run batch on the rank's goroutine. The iteration
// body is the rank's own (engine.advance); the cluster-wide
// barrier separates exchange rounds only — at halo depth k that is one
// barrier every k iterations, since the intervening local iterations
// touch no shared state. The barrier placed at the END of an exchange
// iteration is also what fences the in-process transport's zero-copy y
// payloads: a receiver has copied them before its barrier, so the sender
// may overwrite the underlying rows on its next sweep.
//
// The x strips of the next iteration are posted ahead of that barrier
// (engine.prePost) exactly when the barrier follows at once and the next
// iteration exchanges — at depth 1 every iteration, the last of a batch
// included, so a strip is in flight between Run calls; the barrier behind
// it is what guarantees it has landed by the time Run returns, which is
// what lets RestoreState and SetIter discard it with a poll. At depth
// k > 1 the iteration before an exchange is a local one with no barrier
// behind it — no latency to hide the strip behind, and nothing that would
// land it before a batch end — so depth-k ranks never pre-post and post at
// the top of their exchange iteration instead.
func (c *shell[T]) runBatch(h *hostedRank[T], cmd rankCmd) {
	defer func() {
		p := recover()
		if p != nil {
			err, ok := p.(error)
			if ok {
				c.faultMu.Lock()
				if c.firstFault == nil {
					c.firstFault = err
				}
				c.faultMu.Unlock()
				p = nil
			} else {
				err = fmt.Errorf("dist: rank %d panic: %v", h.id, p)
			}
			// Wake the sibling ranks blocked in the transport.
			c.tr.Abort(err)
		}
		c.done <- struct{}{}
		if p != nil {
			panic(p)
		}
	}()
	for t := 0; t < cmd.iters; t++ {
		abs := cmd.base + t
		h.tel.SetIter(abs)
		h.eng.advance(abs, stencil.SitesAt(h.plan, abs))
		if c.afterStep != nil {
			c.afterStep(h.id, abs)
		}
		if c.haloDepth == 1 {
			h.eng.prePost()
		}
		if c.haloDepth == 1 || abs%c.haloDepth == 0 {
			tb := h.tel.Begin()
			c.tr.Barrier()
			h.tel.End(telemetry.PhaseBarrierWait, tb)
		}
	}
}

// Transport exposes the cluster's communication backend — how the
// resilience layer reaches the checkpoint and abort calls of the transport
// it configured.
func (c *shell[T]) Transport() Transport[T] { return c.tr }

// SetIter rebases the cluster's absolute iteration counter — the rollback
// half of a checkpoint restore. Injection plans and telemetry keep working
// across a rebase because both are keyed on absolute iterations. The strips
// pre-posted for the iteration the counter pointed at are discarded on every
// hosted rank: the next Run re-posts from the state it finds.
func (c *shell[T]) SetIter(n int) {
	c.dropPosted()
	c.iter = n
}

// dropPosted discards the pre-posted strips of every hosted rank — all of
// them, because a strip cut from the state one rank is about to lose sits
// in its neighbour's inbox, not its own.
func (c *shell[T]) dropPosted() {
	for _, h := range c.hosted {
		h.eng.dropPosted()
	}
}

// rankByID returns the hosted rank with the given global id.
func (c *shell[T]) rankByID(id int) engine[T] {
	for _, h := range c.hosted {
		if h.id == id {
			return h.eng
		}
	}
	panic(fmt.Sprintf("dist: rank %d is not hosted by this cluster", id))
}

// StateLen returns the packed resilience-snapshot length of hosted rank id
// (its tile's or slab's points plus their verified checksums), in elements.
func (c *shell[T]) StateLen(id int) int { return c.rankByID(id).chunk().StateLen() }

// PackState serialises hosted rank id's restartable state into dst (len >=
// StateLen(id)): the tile's rows (the slab's layers) in storage order,
// then the verified column checksums — one layout for both rank shapes,
// core.Chunk.PackState's. Bit-exact. Call it only between iterations — from
// Options.AfterStep (on the rank's own goroutine) or while no Run is in
// flight.
func (c *shell[T]) PackState(id int, dst []T) { c.rankByID(id).chunk().PackState(dst) }

// RestoreState overwrites hosted rank id's points and verified checksums from
// a PackState snapshot, between Run calls. Strips pre-posted from the state
// being replaced are discarded on every hosted rank, and every rank's halo
// strips refresh at its next exchange. Pair with SetIter to complete a
// rollback; in a multi-process cluster every process restores or rebases
// before any runs again, as a rollback already requires.
func (c *shell[T]) RestoreState(id int, src []T) {
	c.dropPosted()
	c.rankByID(id).chunk().RestoreState(src)
}
