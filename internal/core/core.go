// Package core assembles the paper's ABFT method into runnable protectors:
//
//   - Online2D / Online3D — Section 3: fused checksum every sweep,
//     interpolation + comparison every iteration, on-the-fly localisation
//     and correction. The method is applied per Chunk — a box of a frame
//     of layers, a 2-D frame the one-layer stack: Online2D is one chunk
//     (the domain) or N (the Blocked scheme's tiles), Online3D is one, and
//     a dist rank's tile or slab is a chunk inset by its halo.
//   - Offline — Section 4: fused checksum every sweep, Δ-step
//     interpolation chain verified every Δ iterations, light-cone or
//     in-memory checkpoint/rollback recovery. It protects a stack of nz
//     layers; a 2-D domain is the one-layer stack.
//   - None2D / None3D — the unprotected baseline every experiment
//     compares against.
//
// The 3-D protectors apply the 2-D scheme per z-layer with exact
// cross-layer checksum coupling, work partitioned over a worker pool — the
// paper's "intrinsically parallel" property (each worker owns its rows'
// checksum entries; iterations are separated by a single barrier).
package core

import (
	"stencilabft/internal/checksum"
	"stencilabft/internal/num"
	"stencilabft/internal/stats"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Options configure a protector. The zero value is usable: paper-default
// detection threshold, residual pairing, sequential execution, Δ=16.
type Options[T num.Float] struct {
	// Detector's Epsilon defaults to the paper's 1e-5 when zero.
	Detector checksum.Detector[T]
	// PairPolicy selects multi-error pairing (default PairByResidual).
	PairPolicy checksum.PairPolicy
	// Pool partitions parallel work; nil runs sequentially. The pool's
	// persistent workers are spawned on first use and live for the pool's
	// lifetime, so a protected Run(iters) pays the spawn cost once, not
	// once per sweep; one pool may be shared by several protectors.
	Pool *stencil.Pool
	// Period is the offline detection/checkpoint period Δ (default 16,
	// the paper's Table 1 value). Ignored by online protectors.
	Period int
	// DropBoundaryTerms reproduces the paper's simplified listings
	// (ablation A1); leave false for exact interpolation.
	DropBoundaryTerms bool
	// PaperExactCorrection uses the paper's literal Equation (10)
	// evaluation, which loses accuracy for overflow-scale corruption
	// (Section 5.3); the default is the numerically stable equivalent.
	PaperExactCorrection bool
	// Recovery selects the offline repair strategy: FullRollback
	// (default, the paper's scheme) or ConeRecovery (recompute only the
	// error's light cone; falls back to a full rollback when the cone
	// cannot be bounded). Offline only: the online protectors repair
	// algebraically.
	Recovery RecoveryMode
	// Inject schedules fault injection: Step and Run consult it each
	// iteration for the sites the sweep applies. Nil runs clean.
	// fault.NewInjector adapts a fault.Plan to this seam.
	Inject stencil.InjectSource[T]
	// Telemetry, when non-nil, attributes the protector's wall-clock to
	// phases (sweep, verify, repair) — a local protector is a single rank,
	// so it records through one Recorder (telemetry.Collector.Recorder(0)
	// by convention). Nil disables timing: the step then pays only nil
	// checks, no clock reads, no allocations.
	Telemetry *telemetry.Recorder
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (o Options[T]) withDefaults() Options[T] {
	o.Detector = o.Detector.WithDefaults()
	if o.Period <= 0 {
		o.Period = 16
	}
	return o
}

// Stats aggregates what a protector observed over a run — the unified
// counter model shared with the dist deployments.
type Stats = stats.Stats
