package stencil

import "stencilabft/internal/num"

// Hand-unrolled interior row kernels for the 2-D stencil shapes every
// benchmark and CLI actually runs. Each kernel computes dst over the
// interior segment [xlo, xhi) of the row starting at flat index base and
// threads the fused-checksum accumulator through (acc += value per point,
// in x order), so its results — domain values AND checksums — are
// bit-identical to the generic k-point loop for a stencil declared in the
// same canonical point order (see the pin test in kernels_test.go).
//
// Within a point, additions happen weight-by-weight in canonical order,
// exactly the sequence the generic loop performs for the canonical
// constructors; no reassociation, no explicit FMA. The constant field c is
// handled by a hoisted branch: two loop bodies instead of a per-point nil
// check. The box's bodies are the 3-D sweep's (box9Seg, kernels3d.go).

// genericRow is the dynamic k-point interior loop over the plan's
// precomputed offsets and weights — the fallback for arbitrary stencils,
// and the body the specialized kernels must match bit for bit.
func genericRow[T num.Float](dst, src, c []T, offs []int, ws []T, base, xlo, xhi int, acc T) T {
	k := len(offs)
	for x := xlo; x < xhi; x++ {
		idx := base + x
		var v T
		if c != nil {
			v = c[idx]
		}
		for i := 0; i < k; i++ {
			v += ws[i] * src[idx+offs[i]]
		}
		dst[idx] = v
		acc += v
	}
	return acc
}

// star5Row applies the five-point star (centre, west, east, north, south)
// with weights kw[0..4] in that order.
func star5Row[T num.Float](dst, src, c []T, base, xlo, xhi, nx int, kw *[9]T, acc T) T {
	wc, ww, we, wn, ws := kw[0], kw[1], kw[2], kw[3], kw[4]
	if c != nil {
		for x := xlo; x < xhi; x++ {
			idx := base + x
			v := c[idx]
			v += wc * src[idx]
			v += ww * src[idx-1]
			v += we * src[idx+1]
			v += wn * src[idx-nx]
			v += ws * src[idx+nx]
			dst[idx] = v
			acc += v
		}
		return acc
	}
	for x := xlo; x < xhi; x++ {
		idx := base + x
		var v T // start from zero like the generic loop: 0 + (-0.0) is +0.0
		v += wc * src[idx]
		v += ww * src[idx-1]
		v += we * src[idx+1]
		v += wn * src[idx-nx]
		v += ws * src[idx+nx]
		dst[idx] = v
		acc += v
	}
	return acc
}

// box9Row applies the full 3x3 box in NinePoint's row-major order
// (dy = -1..1 outer, dx = -1..1 inner) with weights kw[0..8], through the
// loop body the 3-D sweep runs (box9Seg): dst and c re-sliced to the
// segment, src to the three rows around it from one column left of xlo. An
// empty segment returns before slicing: on a boundary row the rows above or
// below need not exist.
func box9Row[T num.Float](dst, src, c []T, base, xlo, xhi, nx int, kw *[9]T, acc T) T {
	if xlo >= xhi {
		return acc
	}
	lo, n := base+xlo, xhi-xlo
	var cs []T
	if c != nil {
		cs = c[lo:][:n]
	}
	return box9Seg(dst[lo:][:n], cs, src[lo-nx-1:][:n+2], src[lo-1:][:n+2], src[lo+nx-1:][:n+2], kw, acc)
}
