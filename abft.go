// Package stencilabft is a Go implementation of "Algorithm-Based Fault
// Tolerance for Parallel Stencil Computations" (Cavelan & Ciorba, CLUSTER
// 2019): checksum-based detection and correction of silent data corruptions
// (SDCs, e.g. memory bit-flips) in arbitrary 2-D and 3-D stencil
// computations.
//
// # The method in one paragraph
//
// A stencil sweep does not preserve the row/column checksums of its domain,
// so classic ABFT cannot compare checksums across iterations. The paper's
// insight is that the checksums of iteration t+1 can be *interpolated* from
// the checksums of iteration t by applying the stencil kernel, collapsed to
// one dimension, to the checksum vectors themselves (plus boundary terms
// that depend only on the domain's edge strips). Comparing the interpolated
// checksum with the directly computed one detects corruption; intersecting
// the mismatching row and column indices locates it; and simple algebra on
// the checksums recovers the original value.
//
// # Quick start
//
// Declare the run as a Spec and hand it to Build — one factory for every
// scheme × deployment × dimensionality combination:
//
//	op := &stencilabft.Op2D[float32]{
//		St: stencilabft.Laplace5[float32](0.2),
//		BC: stencilabft.Clamp,
//	}
//	p, err := stencilabft.Build(stencilabft.Spec[float32]{
//		Scheme: stencilabft.Online, // verify + correct every sweep, ~8% overhead
//		Op2D:   op,
//		Init:   initialGrid,
//	})
//	if err != nil { ... }
//	p.Run(iterations)
//	p.Finalize() // no-op for online; offline verifies the partial period
//	result, stats := p.Grid(), p.Stats()
//
// Swapping Scheme to Offline (periodic checkpoint/rollback), Blocked
// (per-tile checksums) or None (the unprotected baseline) — or Deployment
// to Clustered (row bands over ranks exchanging halos through the Transport
// seam) — changes nothing else about the calling code: every protector
// satisfies the unified Protector interface. Fault-injection campaigns set
// Spec.Inject (a declarative bit-flip Plan) or Spec.InjectSource (a custom
// source of per-iteration Sites); Step then applies them with no per-call
// plumbing.
//
// See examples/ for complete programs and DESIGN.md for the architecture
// and the Unified API section for the Build registry. Build + Spec is the
// only construction path: the pre-Spec per-scheme constructors were removed
// after a deprecation cycle (DESIGN.md §11 maps each to its Spec form).
// Specs without process-local state also have a JSON wire form — see
// WireSpec and API.md — which is what cmd/stencilserve serves.
//
// # Choosing a scheme
//
//   - Online: verification after every sweep, on-the-fly correction with a
//     small floating-point residual. Lowest time-to-detection; no
//     checkpoint memory.
//   - Offline: verification every Period sweeps, recovery by rollback to an
//     in-memory checkpoint and recomputation — the error is erased exactly,
//     at the cost of checkpoint memory and a recomputation spike.
//   - Blocked: the online scheme per tile; small tiles keep checksum
//     magnitudes (and the detection floor) low.
//   - None: the unprotected baseline.
//
// All protectors run the same sweep engine and accept a worker Pool for
// row-partitioned parallel execution (a 3-D stack's rows counted layer by
// layer).
package stencilabft

import (
	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
	"stencilabft/internal/fault"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Float is the element-type constraint: float32 or float64. The paper's
// experiments use float32; float64 lowers the detection floor by nine
// orders of magnitude.
type Float = num.Float

// Grid is a dense 2-D domain. See New.
type Grid[T Float] = grid.Grid[T]

// Grid3D is a dense 3-D domain stored as z-layers. See New3D.
type Grid3D[T Float] = grid.Grid3D[T]

// New allocates an nx-by-ny grid initialised to zero.
func New[T Float](nx, ny int) *Grid[T] { return grid.New[T](nx, ny) }

// New3D allocates an nx-by-ny-by-nz grid initialised to zero.
func New3D[T Float](nx, ny, nz int) *Grid3D[T] { return grid.New3D[T](nx, ny, nz) }

// Boundary selects how out-of-domain points are resolved.
type Boundary = grid.Boundary

// Boundary conditions.
const (
	Clamp    = grid.Clamp    // repeat the border value (paper's "bounce-back")
	Periodic = grid.Periodic // wrap around; boundary terms vanish
	Mirror   = grid.Mirror   // reflect about the border
	Constant = grid.Constant // substitute a fixed ghost value
	Zero     = grid.Zero     // treat ghosts as zero ("empty boundaries")
)

// Point is one weighted stencil offset.
type Point[T Float] = stencil.Point[T]

// Stencil is an arbitrary set of weighted offsets (the paper's S).
type Stencil[T Float] = stencil.Stencil[T]

// Op2D binds a 2-D stencil to its boundary condition and optional constant
// field.
type Op2D[T Float] = stencil.Op2D[T]

// Op3D binds a (possibly 3-D) stencil to a 3-D sweep context.
type Op3D[T Float] = stencil.Op3D[T]

// Pool partitions sweeps over workers; nil runs sequentially.
type Pool = stencil.Pool

// NewPool returns a pool sized to GOMAXPROCS.
func NewPool() *Pool { return stencil.NewPool() }

// FivePoint builds the classic 2-D five-point stencil with individual
// weights for centre, west, east, north and south.
func FivePoint[T Float](c, w, e, n, s T) *Stencil[T] { return stencil.FivePoint(c, w, e, n, s) }

// Laplace5 returns the five-point Jacobi heat kernel
// u' = u + alpha*(sum of neighbours - 4u).
func Laplace5[T Float](alpha T) *Stencil[T] { return stencil.Laplace5(alpha) }

// Jacobi4 returns the paper's four-point averaging example stencil.
func Jacobi4[T Float]() *Stencil[T] { return stencil.Jacobi4[T]() }

// BoxBlur returns the 3x3 uniform averaging stencil.
func BoxBlur[T Float]() *Stencil[T] { return stencil.BoxBlur[T]() }

// SevenPoint3D returns the 3-D seven-point stencil (centre, west, east,
// north, south, below, above) — the HotSpot3D shape.
func SevenPoint3D[T Float](c, w, e, n, s, b, a T) *Stencil[T] {
	return stencil.SevenPoint3D(c, w, e, n, s, b, a)
}

// Advect2D returns the asymmetric first-order upwind advection stencil
// u' = u - cx*(u - u_west) - cy*(u - u_north); its boundary terms do not
// cancel under clamp, exercising the exact Theorem-1 interpolation path.
func Advect2D[T Float](cx, cy T) *Stencil[T] { return stencil.Advect2D(cx, cy) }

// NewStencil builds a custom stencil from explicit points.
func NewStencil[T Float](name string, points ...Point[T]) *Stencil[T] {
	return &Stencil[T]{Name: name, Points: points}
}

// Detector compares direct against interpolated checksums.
type Detector[T Float] = checksum.Detector[T]

// Stats is the unified counter model every protector reports through:
// per-rank and per-block counters roll up with Merge instead of living in
// parallel structs.
type Stats = core.Stats

// Online2D is the per-iteration detect-and-correct protector (Section 3),
// applied per chunk of the domain; the Online scheme's one chunk is the
// domain itself.
type Online2D[T Float] = core.Online2D[T]

// None2D is the unprotected baseline runner.
type None2D[T Float] = core.None2D[T]

// Online3D applies the online scheme per z-layer with exact cross-layer
// checksum coupling: the sweep plus one chunk that is the whole domain.
type Online3D[T Float] = core.Online3D[T]

// None3D is the unprotected 3-D baseline runner.
type None3D[T Float] = core.None3D[T]

// RecoveryMode selects the offline repair strategy.
type RecoveryMode = core.RecoveryMode

// Offline recovery strategies.
const (
	// FullRollback restores the whole domain from the last checkpoint
	// (the paper's Section 4.2 scheme).
	FullRollback = core.FullRollback
	// ConeRecovery recomputes only the error's light cone, falling back
	// to FullRollback when the cone cannot be bounded.
	ConeRecovery = core.ConeRecovery
)

// Cluster is the 2-D distributed-memory deployment: the domain decomposed
// over a Cartesian rank grid of simulated ranks (Spec.RanksX × Spec.RanksY,
// or Spec.Ranks row bands) exchanging halo strips through the Transport
// seam, each rank running the online ABFT scheme on its own tile. It
// satisfies the unified Protector contract (Grid gathers the global
// domain); RankStats exposes the per-rank counters Stats merges, including
// the topology shape and per-direction halo traffic.
type Cluster[T Float] = dist.Cluster[T]

// Cluster3D is the 3-D distributed-memory deployment: the domain
// decomposed into z-layer slabs over Spec.Ranks simulated ranks — the 1-D
// band cluster lifted one dimension. Each slab rank is the chunk the local
// Online 3-D protector is one of, inset by ghost layers in a frame of its
// layers, plus a halo exchange, so gathered grids are bit-identical to the
// Local build's, and the cluster runs on the shell
// Cluster runs on: Run and RunRecover, RankStats, Stats, TransportMetrics
// and Close (which stops the rank goroutines) are the same code. Slabs
// exchange every iteration and are all hosted in-process. Built by Build
// from a 3-D Clustered spec.
type Cluster3D[T Float] = dist.Cluster3D[T]

// Calibration reports the error-free checksum noise floor of a
// configuration, used to pick a detection threshold.
type Calibration[T Float] = core.Calibration[T]

// CalibrateEpsilon measures the floating-point checksum noise floor of op
// on init over iters error-free sweeps and suggests a detection threshold
// with a safety margin — the measurement behind the paper's epsilon = 1e-5
// choice.
func CalibrateEpsilon[T Float](op *Op2D[T], init *Grid[T], iters int) (Calibration[T], error) {
	return core.CalibrateEpsilon(op, init, iters)
}

// Blocked2D applies the online scheme per chunk of a tiled 2-D domain
// (paper Section 3.4): each block owns its checksums, keeping magnitudes —
// and with them the floating-point detection floor — low. It is Online2D
// built over BlockX-by-BlockY chunks.
type Blocked2D[T Float] = core.Online2D[T]

// Injection describes one planned bit-flip for fault-injection campaigns.
type Injection = fault.Injection

// Plan schedules injections by iteration; Spec.Inject consumes it.
type Plan = fault.Plan

// NewPlan builds a fault plan from explicit injections.
func NewPlan(injs ...Injection) *Plan { return fault.NewPlan(injs...) }

// Injector adapts a plan to the InjectSource seam the protectors consult
// each iteration.
type Injector[T Float] = fault.Injector[T]

// NewInjector wraps a plan for element type T.
func NewInjector[T Float](plan *Plan) *Injector[T] { return fault.NewInjector[T](plan) }
