// Package num provides the numeric foundations shared by the stencil and
// checksum packages: a generic floating-point constraint, tolerant
// comparisons, IEEE-754 bit manipulation for fault injection, and
// compensated (Kahan) summation used to keep checksum round-off low.
package num

import (
	"math"
	"unsafe"
)

// Float is the set of element types the library operates on. The paper's
// experiments use float32 (the bit-flip position experiments are specific to
// IEEE-754 binary32); float64 is supported for library users who need the
// extra precision headroom.
type Float interface {
	~float32 | ~float64
}

// Abs returns the absolute value of v: v with its sign bit cleared, with no
// branch on the sign (a residual's sign is random, so a compare mispredicts
// half the time). The width test is on the instantiated type and folds away,
// and the in-place bit clear keeps the function within the inliner's budget
// in generic callers, where a conversion through math.Abs does not.
func Abs[T Float](v T) T {
	if unsafe.Sizeof(v) == 4 {
		*(*uint32)(unsafe.Pointer(&v)) &^= 1 << 31
	} else {
		*(*uint64)(unsafe.Pointer(&v)) &^= 1 << 63
	}
	return v
}

// Max returns the larger of a and b.
func Max[T Float](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min[T Float](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// RelErr returns |got/want - 1|, the relative error used by the paper's
// detection step (Section 3.4). When |want| is below floor, it falls back to
// the absolute difference |got-want| scaled by 1/floor so that zero-sum rows
// and columns do not divide by zero and do not raise spurious detections.
func RelErr[T Float](got, want, floor T) T {
	if Abs(want) < floor {
		return Abs(got-want) / floor
	}
	return Abs(got/want - 1)
}

// IsFinite reports whether v is neither NaN nor infinite.
func IsFinite[T Float](v T) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// FlipBit returns v with the given bit of its IEEE-754 representation
// inverted. For float32 values bits 0-22 are the fraction, 23-30 the
// exponent and 31 the sign; for float64 values bits 0-51 are the fraction,
// 52-62 the exponent and 63 the sign. Bits outside the representation width
// are reduced modulo the width so campaign plans written for one width
// remain valid for the other.
func FlipBit[T Float](v T, bit int) T {
	switch any(v).(type) {
	case float32:
		b := uint(bit) % 32
		u := math.Float32bits(float32(v))
		return T(math.Float32frombits(u ^ (1 << b)))
	default:
		b := uint(bit) % 64
		u := math.Float64bits(float64(v))
		return T(math.Float64frombits(u ^ (1 << b)))
	}
}

// SameBits reports whether a and b have the same IEEE-754 representation —
// equality that tells +0 from -0 and holds between identical NaNs.
func SameBits[T Float](a, b T) bool {
	if BitWidth[T]() == 32 {
		return math.Float32bits(float32(a)) == math.Float32bits(float32(b))
	}
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// BitWidth returns the number of bits in the IEEE-754 representation of T:
// 32 for float32, 64 for float64.
func BitWidth[T Float]() int {
	var v T
	if _, ok := any(v).(float32); ok {
		return 32
	}
	return 64
}

// BitClass identifies which field of the IEEE-754 representation a bit
// position belongs to. The paper's Figure 10 groups results this way.
type BitClass int

// Bit field classes, ordered from least to most significant.
const (
	FractionBit BitClass = iota
	ExponentBit
	SignBit
)

// String returns the display name of the bit class.
func (c BitClass) String() string {
	switch c {
	case FractionBit:
		return "fraction"
	case ExponentBit:
		return "exponent"
	case SignBit:
		return "sign"
	default:
		return "unknown"
	}
}

// ClassifyBit reports the IEEE-754 field the given bit position falls in for
// element type T.
func ClassifyBit[T Float](bit int) BitClass {
	w := BitWidth[T]()
	b := bit % w
	if b < 0 {
		b += w
	}
	switch {
	case b == w-1:
		return SignBit
	case w == 32 && b >= 23:
		return ExponentBit
	case w == 64 && b >= 52:
		return ExponentBit
	default:
		return FractionBit
	}
}

// Sum accumulates xs with plain left-to-right summation. This matches the
// accumulation order of the paper's fused checksum loop.
func Sum[T Float](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

// KahanSum accumulates xs with compensated summation, reducing the
// round-off growth from O(n·eps) to O(eps). The checksum package exposes it
// as an option (ablation A3 in DESIGN.md): a lower round-off floor permits a
// tighter detection threshold epsilon.
func KahanSum[T Float](xs []T) T {
	var s, c T
	for _, x := range xs {
		y := x - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// Accumulator is a running compensated sum. The zero value is ready to use.
type Accumulator[T Float] struct {
	sum, comp T
}

// Add folds x into the accumulator.
func (a *Accumulator[T]) Add(x T) {
	y := x - a.comp
	t := a.sum + y
	a.comp = (t - a.sum) - y
	a.sum = t
}

// Value returns the current compensated sum.
func (a *Accumulator[T]) Value() T { return a.sum }

// Reset clears the accumulator to zero.
func (a *Accumulator[T]) Reset() { a.sum, a.comp = 0, 0 }

// NextAfterUp returns the smallest representable value strictly greater
// than v, used by tests to probe detection thresholds at the ULP level.
func NextAfterUp[T Float](v T) T {
	switch x := any(v).(type) {
	case float32:
		return T(math.Nextafter32(x, float32(math.Inf(1))))
	default:
		return T(math.Nextafter(float64(v), math.Inf(1)))
	}
}

// EpsilonFor returns the machine epsilon of T: 2^-23 for float32 and 2^-52
// for float64.
func EpsilonFor[T Float]() T {
	if BitWidth[T]() == 32 {
		return T(math.Float32frombits(0x34000000)) // 2^-23
	}
	return T(math.Float64frombits(0x3CB0000000000000)) // 2^-52
}
