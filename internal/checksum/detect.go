package checksum

import (
	"fmt"
	"math"

	"stencilabft/internal/num"
)

// Detector compares directly computed checksums against interpolated ones
// (the paper's Section 3.4): index i is flagged when the relative error
// |interp[i]/direct[i] - 1| exceeds Epsilon. AbsFloor guards the division:
// when |direct[i]| < AbsFloor the comparison falls back to the absolute
// difference scaled by 1/AbsFloor, so zero-sum lines neither divide by zero
// nor trigger spuriously.
type Detector[T num.Float] struct {
	Epsilon  T
	AbsFloor T
}

// NewDetector returns a detector with the paper's default threshold 1e-5
// and an absolute floor of 1 (checksums are sums of O(n) application-scale
// values, so |direct| < 1 means an essentially empty line).
func NewDetector[T num.Float]() Detector[T] {
	return Detector[T]{Epsilon: 1e-5, AbsFloor: 1}
}

// WithDefaults resolves an options struct's Detector field: a zero Epsilon
// means the field was left unset and selects NewDetector whole; a zero
// AbsFloor beside a chosen Epsilon becomes the same floor of 1.
func (d Detector[T]) WithDefaults() Detector[T] {
	if d.Epsilon == 0 {
		return NewDetector[T]()
	}
	if d.AbsFloor == 0 {
		d.AbsFloor = 1
	}
	return d
}

// Mismatch is one flagged checksum entry.
type Mismatch[T num.Float] struct {
	Index    int // x for vector A, y for vector B
	Direct   T   // checksum computed from the domain
	Interp   T   // checksum interpolated from iteration t
	Residual T   // Interp - Direct (≈ clean - corrupted = -error magnitude)
}

// Compare scans the two vectors and returns the flagged entries in index
// order. direct and interp must have equal length. The returned slice is
// nil when the vectors agree everywhere — the error-free fast path
// allocates nothing.
func (d Detector[T]) Compare(direct, interp []T) []Mismatch[T] {
	if len(direct) != len(interp) {
		panic(fmt.Sprintf("checksum: compare length %d vs %d", len(direct), len(interp)))
	}
	var out []Mismatch[T]
	for i := range direct {
		if d.Exceeds(direct[i], interp[i]) {
			out = append(out, Mismatch[T]{
				Index:    i,
				Direct:   direct[i],
				Interp:   interp[i],
				Residual: interp[i] - direct[i],
			})
		}
	}
	return out
}

// Exceeds reports whether the (direct, interp) pair trips the threshold.
// Non-finite values (a bit-flip in the exponent can overflow a checksum to
// +Inf or NaN) always trip it, since relative error is meaningless there.
func (d Detector[T]) Exceeds(direct, interp T) bool {
	if !num.IsFinite(direct) || !num.IsFinite(interp) {
		// Two identical non-finite values still indicate corruption:
		// a healthy checksum is finite by construction.
		return true
	}
	return num.RelErr(interp, direct, d.AbsFloor) > d.Epsilon
}

// AnyMismatch reports whether any entry trips the threshold without
// materialising the mismatch list. Entries the division-free screen clears
// (clears) cost one predictable compare; only borderline or non-finite
// entries pay the exact Exceeds evaluation, so the error-free steady state
// never divides. Interp3D.Verify applies the same test to each entry as it
// interpolates it.
func (d Detector[T]) AnyMismatch(direct, interp []T) bool {
	if len(direct) != len(interp) {
		panic(fmt.Sprintf("checksum: compare length %d vs %d", len(direct), len(interp)))
	}
	interp = interp[:len(direct)]
	half := d.Epsilon / 2
	for i, w := range direct {
		if !d.clears(w, interp[i], half) && d.Exceeds(w, interp[i]) {
			return true
		}
	}
	return false
}

// clears is the screen: it reports whether v sits comfortably within the
// threshold of w — an absolute residual under half (ε/2) the scaled
// threshold — so Exceeds would not flag it. It is ordered so that a clean
// entry costs one predictable compare: the scale's floor almost never
// applies, and the screen almost always clears. The strict < keeps an
// infinite scale (w = ±Inf) from clearing the entry, since Inf < Inf is
// false; diff == 0 needs both values finite (Inf-Inf and NaN residuals are
// NaN, and fail both comparisons).
func (d Detector[T]) clears(w, v, half T) bool {
	scale := num.Abs(w)
	if scale < d.AbsFloor {
		scale = d.AbsFloor
	}
	diff := num.Abs(v - w)
	return diff < half*scale || diff == 0
}

// MaxRelErr returns the largest relative error over the vector pair, a
// diagnostic used to calibrate Epsilon against the floating-point
// interpolation noise of a given domain size (the paper notes the
// approximation error grows with the domain).
func (d Detector[T]) MaxRelErr(direct, interp []T) T {
	var m T
	for i := range direct {
		if !num.IsFinite(direct[i]) || !num.IsFinite(interp[i]) {
			return T(math.Inf(1))
		}
		e := num.RelErr(interp[i], direct[i], d.AbsFloor)
		if e > m {
			m = e
		}
	}
	return m
}
