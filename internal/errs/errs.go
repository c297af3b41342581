// Package errs backs the library's errors.Is-able validation sentinels.
//
// The public error surface wants two properties at once: stable,
// caller-actionable message text (the fmt.Errorf strings the packages have
// always produced) and typed classification (errors.Is(err, ErrInvalidSpec)
// so an HTTP layer can map 400-vs-500 without string matching). Wrapping
// with %w would force the sentinel's text into every message; Tagf instead
// attaches one or more sentinel "kinds" to an error whose Error() string is
// exactly the formatted message. errors.Is matches any of the kinds through
// the Is method, so a single error can satisfy both a specific sentinel
// (ErrUnknownScheme) and its umbrella class (ErrInvalidSpec).
package errs

import (
	"errors"
	"fmt"
)

// tagged is an error carrying sentinel kinds for errors.Is classification;
// its message is free of the sentinels' own text.
type tagged struct {
	kinds []error
	msg   string
}

func (e *tagged) Error() string { return e.msg }

// Is reports whether target is one of the error's kinds — the hook
// errors.Is consults after direct equality fails.
func (e *tagged) Is(target error) bool {
	for _, k := range e.kinds {
		if target == k {
			return true
		}
	}
	return false
}

// Tagf formats an error message and tags it with the given sentinel kinds.
// errors.Is(err, k) is true for every k in kinds; Error() returns only the
// formatted message.
func Tagf(kinds []error, format string, args ...any) error {
	return &tagged{kinds: kinds, msg: fmt.Sprintf(format, args...)}
}

// Sentinels more than one layer tags: the root package re-exports both, and
// the geometry checks below it (core's chunk constructor, dist's Decomp)
// classify with them directly.
var (
	// ErrInvalidSpec is the umbrella class: the Spec (or wire form) as
	// declared cannot be built.
	ErrInvalidSpec = errors.New("stencilabft: invalid spec")
	// ErrThinTile classifies a rectangle — a rank's tile, a block — too
	// thin for the stencil that is to sweep it.
	ErrThinTile = errors.New("stencilabft: tile too thin for the stencil halo")
)
