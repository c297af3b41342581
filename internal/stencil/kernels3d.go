package stencil

import "stencilabft/internal/num"

// Row kernels of the 3-D sweep. Unlike the 2-D kernels in kernels2d.go, which
// index one source array at base ± nx, these take one source slice per
// stencil point: rows[i][j] is the value point i reads for dst[j], so the x
// offset is already folded into where rows[i] starts and a y or z neighbour
// is just a different slice. That is what lets SweepLayer hand a boundary
// row its BC-resolved neighbours (or the plan's ghost row) and run the same
// kernel as everywhere else; see fold.go. c is the matching segment of the
// constant field, nil when the operator has none.
//
// The contract is that of the 2-D kernels: acc += value per point in x
// order, additions weight by weight in canonical order, no reassociation,
// the constant field by a hoisted branch — so domain values and checksums
// are bit-identical to the generic loop for a stencil declared in the
// canonical order (pin tests in kernels_test.go). Every row is re-sliced to
// len(dst) up front, which also lets the compiler drop the bounds checks
// from the loop bodies.
//
// star5Slices, box9Slices and genericSlices are the
// slice-form twins of the 2-D kernels. The 2-D drivers stay on the indexed
// form until they move onto the fold themselves: the slice form runs their
// interior 20-25 % faster, which the benchmark's cluster and serve ratios
// (something ÷ a local 2-D run) would book as regressions, so that move
// needs its own baseline.

// genericSlices is the dynamic k-point loop — the fallback for arbitrary
// stencils, and the body the specialized kernels must match bit for bit.
func genericSlices[T num.Float](dst, c []T, rows [][]T, ws []T, acc T) T {
	ws = ws[:len(rows)]
	for j := range dst {
		var v T
		if c != nil {
			v = c[j]
		}
		for i, r := range rows {
			v += ws[i] * r[j]
		}
		dst[j] = v
		acc += v
	}
	return acc
}

// star7Row applies the 3-D seven-point star (centre, west, east, north,
// south, below, above — the SevenPoint3D order) with weights kw[0..6].
func star7Row[T num.Float](dst, c []T, rows [][]T, kw *[9]T, acc T) T {
	n := len(dst)
	rc, rw, re := rows[0][:n], rows[1][:n], rows[2][:n]
	rn, rs, rb, ra := rows[3][:n], rows[4][:n], rows[5][:n], rows[6][:n]
	wc, ww, we, wn, ws, wb, wa := kw[0], kw[1], kw[2], kw[3], kw[4], kw[5], kw[6]
	if c != nil {
		c = c[:n]
		for j := range dst {
			v := c[j]
			v += wc * rc[j]
			v += ww * rw[j]
			v += we * re[j]
			v += wn * rn[j]
			v += ws * rs[j]
			v += wb * rb[j]
			v += wa * ra[j]
			dst[j] = v
			acc += v
		}
		return acc
	}
	for j := range dst {
		var v T // start from zero like the generic loop: 0 + (-0.0) is +0.0
		v += wc * rc[j]
		v += ww * rw[j]
		v += we * re[j]
		v += wn * rn[j]
		v += ws * rs[j]
		v += wb * rb[j]
		v += wa * ra[j]
		dst[j] = v
		acc += v
	}
	return acc
}

// star5Slices applies the five-point star (centre, west, east, north,
// south) with weights kw[0..4] — a 2-D stencil swept layer-wise.
func star5Slices[T num.Float](dst, c []T, rows [][]T, kw *[9]T, acc T) T {
	n := len(dst)
	rc, rw, re, rn, rs := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], rows[4][:n]
	wc, ww, we, wn, ws := kw[0], kw[1], kw[2], kw[3], kw[4]
	if c != nil {
		c = c[:n]
		for j := range dst {
			v := c[j]
			v += wc * rc[j]
			v += ww * rw[j]
			v += we * re[j]
			v += wn * rn[j]
			v += ws * rs[j]
			dst[j] = v
			acc += v
		}
		return acc
	}
	for j := range dst {
		var v T
		v += wc * rc[j]
		v += ww * rw[j]
		v += we * re[j]
		v += wn * rn[j]
		v += ws * rs[j]
		dst[j] = v
		acc += v
	}
	return acc
}

// box9Slices applies the full 3x3 box in NinePoint's row-major order with
// weights kw[0..8] — a 2-D stencil swept layer-wise.
func box9Slices[T num.Float](dst, c []T, rows [][]T, kw *[9]T, acc T) T {
	n := len(dst)
	r0, r1, r2 := rows[0][:n], rows[1][:n], rows[2][:n]
	r3, r4, r5 := rows[3][:n], rows[4][:n], rows[5][:n]
	r6, r7, r8 := rows[6][:n], rows[7][:n], rows[8][:n]
	w0, w1, w2 := kw[0], kw[1], kw[2]
	w3, w4, w5 := kw[3], kw[4], kw[5]
	w6, w7, w8 := kw[6], kw[7], kw[8]
	if c != nil {
		c = c[:n]
		for j := range dst {
			v := c[j]
			v += w0 * r0[j]
			v += w1 * r1[j]
			v += w2 * r2[j]
			v += w3 * r3[j]
			v += w4 * r4[j]
			v += w5 * r5[j]
			v += w6 * r6[j]
			v += w7 * r7[j]
			v += w8 * r8[j]
			dst[j] = v
			acc += v
		}
		return acc
	}
	for j := range dst {
		var v T
		v += w0 * r0[j]
		v += w1 * r1[j]
		v += w2 * r2[j]
		v += w3 * r3[j]
		v += w4 * r4[j]
		v += w5 * r5[j]
		v += w6 * r6[j]
		v += w7 * r7[j]
		v += w8 * r8[j]
		dst[j] = v
		acc += v
	}
	return acc
}
