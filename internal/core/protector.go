package core

import (
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Protector is the protocol shared by every runner regardless of scheme or
// dimensionality: advance sweeps, expose the current state and the unified
// counters, and discharge any end-of-run obligation (Finalize folds the old
// Finalizer type-assertion hack into the contract — protectors without
// pending work implement it as a no-op). A 2-D protector returns nil from
// Grid3D and vice versa; callers pick the accessor matching the spec they
// built. Fault injection is configured up front (Options.Inject), so Step
// takes no arguments; StepInject remains on the concrete types for callers
// that drive injection per call.
type Protector[T num.Float] interface {
	Step()
	Run(count int)
	Grid() *grid.Grid[T]
	Grid3D() *grid.Grid3D[T]
	Iter() int
	Stats() Stats
	Finalize()
}

// Compile-time interface conformance checks for all six core protectors.
var (
	_ Protector[float32] = (*None2D[float32])(nil)
	_ Protector[float32] = (*Online2D[float32])(nil)
	_ Protector[float32] = (*Offline2D[float32])(nil)
	_ Protector[float32] = (*None3D[float32])(nil)
	_ Protector[float32] = (*Online3D[float32])(nil)
	_ Protector[float32] = (*Offline3D[float32])(nil)
	_ Protector[float64] = (*None2D[float64])(nil)
	_ Protector[float64] = (*Online2D[float64])(nil)
	_ Protector[float64] = (*Offline2D[float64])(nil)
	_ Protector[float64] = (*None3D[float64])(nil)
	_ Protector[float64] = (*Online3D[float64])(nil)
	_ Protector[float64] = (*Offline3D[float64])(nil)
)

// New2D constructs a protector by mode name ("none", "online", "offline").
// The root package's Build is the public entry point and calls the typed
// constructors directly; this by-name form is what the tests compare Build
// against.
func New2D[T num.Float](mode string, op *stencil.Op2D[T], init *grid.Grid[T], opt Options[T]) (Protector[T], error) {
	switch mode {
	case "none":
		return NewNone2D(op, init, opt)
	case "online":
		return NewOnline2D(op, init, opt)
	case "offline":
		return NewOffline2D(op, init, opt)
	default:
		return nil, errUnknownMode(mode)
	}
}

// New3D constructs a 3-D protector by mode name.
func New3D[T num.Float](mode string, op *stencil.Op3D[T], init *grid.Grid3D[T], opt Options[T]) (Protector[T], error) {
	switch mode {
	case "none":
		return NewNone3D(op, init, opt)
	case "online":
		return NewOnline3D(op, init, opt)
	case "offline":
		return NewOffline3D(op, init, opt)
	default:
		return nil, errUnknownMode(mode)
	}
}

type errUnknownMode string

func (e errUnknownMode) Error() string {
	return "core: unknown protection mode " + string(e) + " (want none|online|offline)"
}
