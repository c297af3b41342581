package stencilabft

import (
	"errors"

	"stencilabft/internal/errs"
	"stencilabft/internal/stencil"
)

// Typed sentinels of the validation surface. Every error Build and the
// Parse* helpers return for a malformed or unsupported Spec matches
// ErrInvalidSpec under errors.Is; the narrower sentinels classify the
// specific complaint. Message text stays the caller-actionable prose it has
// always been — the sentinels add classification, not wording, so an HTTP
// layer can map client errors to 400 without string matching.
var (
	// ErrInvalidSpec is the umbrella class: the Spec (or wire form) as
	// declared cannot be built. Every narrower sentinel below implies it.
	ErrInvalidSpec = errs.ErrInvalidSpec
	// ErrUnknownScheme classifies an unrecognised Scheme name.
	ErrUnknownScheme = errors.New("stencilabft: unknown scheme")
	// ErrUnknownDeployment classifies an unrecognised Deployment name.
	ErrUnknownDeployment = errors.New("stencilabft: unknown deployment")
	// ErrUnknownTransport classifies an unrecognised TransportKind name.
	ErrUnknownTransport = errors.New("stencilabft: unknown transport")
	// ErrUnsupportedCombination classifies a scheme × deployment cell Build
	// has no constructor for; the error text lists the supported cells.
	ErrUnsupportedCombination = errors.New("stencilabft: unsupported scheme/deployment combination")

	// ErrThinTile classifies a rectangle too thin for the stencil that is
	// to sweep it: a cluster decomposition's tile (dist.Decomp rejects the
	// rank grid) or a Blocked scheme's block (the chunk constructor names
	// it, and tags ErrInvalidSpec as well).
	ErrThinTile = errs.ErrThinTile
	// ErrInvalidOp classifies an operator that fails validation against
	// its domain (bad stencil, invalid boundary condition, radius exceeding
	// the domain, mis-shaped constant field) — re-exported from the stencil
	// package. Unlike the spec sentinels it does not imply ErrInvalidSpec:
	// operator validation also runs on paths that never saw a Spec.
	ErrInvalidOp = stencil.ErrInvalidOp

	// ErrBadWireSpec is the umbrella class of the wire surface: a WireSpec
	// JSON document that cannot be parsed or resolved. It implies
	// ErrInvalidSpec (a bad wire spec is an invalid spec), so HTTP layers
	// can map on the umbrella alone.
	ErrBadWireSpec = errors.New("stencilabft: malformed wire spec")
	// ErrUnknownStencil classifies a WireStencil naming no registry entry.
	ErrUnknownStencil = errors.New("stencilabft: unknown stencil")
	// ErrUnknownGenerator classifies a WireGrid naming no grid generator.
	ErrUnknownGenerator = errors.New("stencilabft: unknown grid generator")
	// ErrUnresolvedUpload classifies a WireGrid referencing an upload id
	// that has not been resolved to inline data — the service layer splices
	// uploads in before SpecFromWire runs.
	ErrUnresolvedUpload = errors.New("stencilabft: unresolved grid upload reference")

	// ErrNotSerializable reports a Spec that cannot round-trip through the
	// wire form because it carries process-local state (function pointers,
	// worker pools, transport endpoints). It does NOT imply ErrInvalidSpec:
	// such specs build and run fine in-process, they just cannot travel.
	ErrNotSerializable = errors.New("stencilabft: spec is not wire-serializable")
)

// specErrorf builds a Spec-validation error: errors.Is-true for
// ErrInvalidSpec plus any extra kinds, with exactly the formatted message.
func specErrorf(format string, args ...any) error {
	return errs.Tagf([]error{ErrInvalidSpec}, format, args...)
}

// kindErrorf tags a formatted error with kind and the ErrInvalidSpec
// umbrella — the shape of the Parse* helpers' unknown-name errors.
func kindErrorf(kind error, format string, args ...any) error {
	return errs.Tagf([]error{kind, ErrInvalidSpec}, format, args...)
}

// wireErrorf builds a wire-surface error: errors.Is-true for kind (when
// non-nil), ErrBadWireSpec and ErrInvalidSpec.
func wireErrorf(kind error, format string, args ...any) error {
	kinds := []error{ErrBadWireSpec, ErrInvalidSpec}
	if kind != nil {
		kinds = append([]error{kind}, kinds...)
	}
	return errs.Tagf(kinds, format, args...)
}

// notSerializablef builds a Spec.MarshalJSON refusal naming the offending
// field with an actionable remedy.
func notSerializablef(format string, args ...any) error {
	return errs.Tagf([]error{ErrNotSerializable}, format, args...)
}
