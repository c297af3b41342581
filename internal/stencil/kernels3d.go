package stencil

import "stencilabft/internal/num"

// Row kernels of the 3-D sweep. Unlike the 2-D kernels in kernels2d.go, which
// index one source array at base ± nx, these take one source row per distinct
// (dy, dz) offset: rows[f.slot[i]] is the whole row (nx values, x = 0 first)
// point i reads, so a y or z neighbour is just a different slice, points
// that differ only in dx share theirs, and a boundary row's BC-resolved
// neighbour or the plan's ghost row is handed over like any other (see
// fold.go). The specialised kernels know their canonical slots: the star's
// centre, west and east read slot 0, then one slot per remaining point; the
// box reads one slot per dy. Each kernel computes cells [x0, x1) of dst, the
// whole row (0 <= x0 < x1 <= nx): the ones inside the interior segment
// [rx, nx-rx) from each point's row shifted by dx, the ones among the 2*rx
// edge columns in the same per-cell form, reading the columns past the row
// ends through the fold. c is the matching row of the constant field, nil
// when the operator has none.
//
// The contract is that of the 2-D kernels: per cell C first, then the points
// weight by weight in canonical order, a ghost as w*K in its slot, no
// reassociation, the constant field by a hoisted branch, and acc += value in
// x order over [x0, x1) — left edges, interior segment, right edges — so
// domain values and checksums are bit-identical to a per-point reference for
// a stencil declared in the canonical order (pin tests in kernels_test.go and
// rect_test.go), and a full-row call runs exactly the operations it ran
// before kernels took a range. Every row is re-sliced to its segment up
// front, which also lets the compiler drop the bounds checks from the loop
// bodies. The specialised kernels have radius 1 in x, and Validate keeps
// nx > rx, so nx >= 2: x = 0 and x = nx-1 are the edge columns and column 1
// and nx-2 are inside the row.
//
// The box has one loop body in both dimensions, box9Seg: box9Slices runs it
// over the interior part of [x0, x1), and the 2-D sweep's box9Row over its
// interior segment of the row. star5Slices and genericSlices are the
// slice-form twins of the 2-D kernels star5Row and genericRow. The 2-D tile
// rank of internal/dist sweeps through these (a one-layer Op3D over its
// extended frame); Op2D's own sweep, which the local 2-D protectors run,
// stays on the indexed form until it moves onto the fold: on a 2-core Xeon
// 2.1 GHz the same move for star5 took a protected 1024² run from 0.140 to
// 0.091 s, and the benchmark's serve ratio (a job ÷ an in-process run of the
// code under test) books such a gain as a regression past its bound, so that
// move needs its own baseline.

// genericSlices is the dynamic k-point row — the fallback for arbitrary
// stencils, and the body the specialized kernels must match bit for bit. It
// runs point by point over cells [x0, x1) of the row, so every cell still adds
// C first and then the points in declaration order; the checksum is summed in
// x order afterwards.
func genericSlices[T num.Float](dst, c []T, rows [][]T, f *rowFold[T], x0, x1 int) T {
	nx, rx := len(dst), f.rx
	hi := max(nx-rx, rx) // right edge columns are [hi, nx)
	lEnd := min(x1, rx)  // left edge cells [x0, lEnd)
	s0, s1 := max(x0, rx), min(x1, hi)
	rBeg := max(x0, hi) // right edge cells [rBeg, x1)
	d := dst[x0:x1]
	if c != nil {
		copy(d, c[x0:x1])
	} else {
		clear(d) // start from zero like the kernels: 0 + (-0.0) is +0.0
	}
	for i, p := range f.pts {
		r, w, dx := rows[f.slot[i]], p.W, p.DX
		for x := x0; x < lEnd; x++ {
			dst[x] += w * f.at(r, x+dx)
		}
		if s0 < s1 {
			seg := dst[s0:s1]
			s := r[s0+dx:][:len(seg)]
			for j := range seg {
				seg[j] += w * s[j]
			}
		}
		for x := rBeg; x < x1; x++ {
			dst[x] += w * f.at(r, x+dx)
		}
	}
	var acc T
	for _, v := range d {
		acc += v
	}
	return acc
}

// star7Cell is one cell of star7Row from its seven source values and
// weights, in the SevenPoint3D order; v enters as the constant field's value,
// or zero.
func star7Cell[T num.Float](v, vc, vw, ve, vn, vs, vb, va, wc, ww, we, wn, ws, wb, wa T) T {
	v += wc * vc
	v += ww * vw
	v += we * ve
	v += wn * vn
	v += ws * vs
	v += wb * vb
	v += wa * va
	return v
}

// star7Row applies the 3-D seven-point star (centre, west, east, north,
// south, below, above — the SevenPoint3D order) with weights kw[0..6] to
// cells [x0, x1). The centre, west and east read slot 0.
func star7Row[T num.Float](dst, c []T, rows [][]T, kw *[9]T, f *rowFold[T], x0, x1 int) T {
	var acc T
	nx := len(dst)
	m := nx - 1
	rc := rows[0][:nx]
	rn, rs, rb, ra := rows[1][:nx], rows[2][:nx], rows[3][:nx], rows[4][:nx]
	wc, ww, we, wn, ws, wb, wa := kw[0], kw[1], kw[2], kw[3], kw[4], kw[5], kw[6]
	var c0, cm T
	if c != nil {
		c = c[:nx]
		c0, cm = c[0], c[m]
	}
	if x0 == 0 {
		v := star7Cell(c0, rc[0], f.at(rc, -1), rc[1], rn[0], rs[0], rb[0], ra[0], wc, ww, we, wn, ws, wb, wa)
		dst[0] = v
		acc += v
	}

	if lo, hi := max(x0, 1), min(x1, m); lo < hi {
		// Three-index slices: a segment's capacity is its length, which the
		// compiler knows is non-zero, so no pointer is masked.
		d := dst[lo:hi:hi]
		n := len(d)
		w3 := rc[lo-1 : hi+1 : hi+1] // west, centre and east
		sw, sc, se := w3[:n:n], w3[1:n+1:n+1], w3[2:n+2:n+2]
		sn, ss, sb, sa := rn[lo:hi:hi], rs[lo:hi:hi], rb[lo:hi:hi], ra[lo:hi:hi]
		if c != nil {
			cs := c[lo:hi:hi]
			for j := range d {
				v := cs[j]
				v += wc * sc[j]
				v += ww * sw[j]
				v += we * se[j]
				v += wn * sn[j]
				v += ws * ss[j]
				v += wb * sb[j]
				v += wa * sa[j]
				d[j] = v
				acc += v
			}
		} else {
			for j := range d {
				var v T // start from zero like the generic loop: 0 + (-0.0) is +0.0
				v += wc * sc[j]
				v += ww * sw[j]
				v += we * se[j]
				v += wn * sn[j]
				v += ws * ss[j]
				v += wb * sb[j]
				v += wa * sa[j]
				d[j] = v
				acc += v
			}
		}
	}

	if x1 == nx {
		v := star7Cell(cm, rc[m], rc[m-1], f.at(rc, nx), rn[m], rs[m], rb[m], ra[m], wc, ww, we, wn, ws, wb, wa)
		dst[m] = v
		acc += v
	}
	return acc
}

// star5Cell is one cell of star5Slices from its five source values.
func star5Cell[T num.Float](v, vc, vw, ve, vn, vs T, kw *[9]T) T {
	v += kw[0] * vc
	v += kw[1] * vw
	v += kw[2] * ve
	v += kw[3] * vn
	v += kw[4] * vs
	return v
}

// star5Slices applies the five-point star (centre, west, east, north,
// south) with weights kw[0..4] to cells [x0, x1) — a 2-D stencil swept
// layer-wise.
func star5Slices[T num.Float](dst, c []T, rows [][]T, kw *[9]T, f *rowFold[T], x0, x1 int) T {
	var acc T
	nx := len(dst)
	m := nx - 1
	rc, rn, rs := rows[0][:nx], rows[1][:nx], rows[2][:nx] // rc: centre, west and east
	var c0, cm T
	if c != nil {
		c = c[:nx]
		c0, cm = c[0], c[m]
	}
	if x0 == 0 {
		v := star5Cell(c0, rc[0], f.at(rc, -1), rc[1], rn[0], rs[0], kw)
		dst[0] = v
		acc += v
	}

	if lo, hi := max(x0, 1), min(x1, m); lo < hi {
		d := dst[lo:hi:hi] // three-index slices, as in star7Row
		n := len(d)
		w3 := rc[lo-1 : hi+1 : hi+1]
		sw, sc, se := w3[:n:n], w3[1:n+1:n+1], w3[2:n+2:n+2]
		sn, ss := rn[lo:hi:hi], rs[lo:hi:hi]
		wc, ww, we, wn, ws := kw[0], kw[1], kw[2], kw[3], kw[4]
		if c != nil {
			cs := c[lo:hi:hi]
			for j := range d {
				v := cs[j]
				v += wc * sc[j]
				v += ww * sw[j]
				v += we * se[j]
				v += wn * sn[j]
				v += ws * ss[j]
				d[j] = v
				acc += v
			}
		} else {
			for j := range d {
				var v T
				v += wc * sc[j]
				v += ww * sw[j]
				v += we * se[j]
				v += wn * sn[j]
				v += ws * ss[j]
				d[j] = v
				acc += v
			}
		}
	}

	if x1 == nx {
		v := star5Cell(cm, rc[m], rc[m-1], f.at(rc, nx), rn[m], rs[m], kw)
		dst[m] = v
		acc += v
	}
	return acc
}

// box9Cell is one cell of box9Slices from its nine source values, in
// NinePoint's row-major order.
func box9Cell[T num.Float](v, v0, v1, v2, v3, v4, v5, v6, v7, v8 T, kw *[9]T) T {
	v += kw[0] * v0
	v += kw[1] * v1
	v += kw[2] * v2
	v += kw[3] * v3
	v += kw[4] * v4
	v += kw[5] * v5
	v += kw[6] * v6
	v += kw[7] * v7
	v += kw[8] * v8
	return v
}

// box9Slices applies the full 3x3 box in NinePoint's row-major order with
// weights kw[0..8] to cells [x0, x1) — a 2-D stencil swept layer-wise.
func box9Slices[T num.Float](dst, c []T, rows [][]T, kw *[9]T, f *rowFold[T], x0, x1 int) T {
	var acc T
	nx := len(dst)
	m := nx - 1
	// One source row per dy; point i reads row i/3 at dx = i%3-1.
	r0 := rows[0][:nx]
	r3 := rows[1][:nx]
	r6 := rows[2][:nx]
	r1, r2, r4, r5, r7, r8 := r0, r0, r3, r3, r6, r6
	var c0, cm T
	if c != nil {
		c = c[:nx]
		c0, cm = c[0], c[m]
	}
	if x0 == 0 {
		v := box9Cell(c0, f.at(r0, -1), r1[0], r2[1], f.at(r3, -1), r4[0], r5[1], f.at(r6, -1), r7[0], r8[1], kw)
		dst[0] = v
		acc += v
	}

	if lo, hi := max(x0, 1), min(x1, m); lo < hi {
		var cs []T
		if c != nil {
			cs = c[lo:hi]
		}
		acc = box9Seg(dst[lo:hi], cs, r0[lo-1:], r3[lo-1:], r6[lo-1:], kw, acc)
	}

	if x1 == nx {
		v := box9Cell(cm, r0[m-1], r1[m], f.at(r2, nx), r3[m-1], r4[m], f.at(r5, nx), r6[m-1], r7[m], f.at(r8, nx), kw)
		dst[m] = v
		acc += v
	}
	return acc
}

// box9Seg is the box's loop body in both dimensions: it computes the len(d)
// cells of d from up, mid and dn, the source rows at dy = -1, 0 and 1, each
// starting one column left of d[0] and holding len(d)+2 values, and threads
// acc through in x order. cs is the constant field's matching segment, nil
// when the operator has none.
func box9Seg[T num.Float](d, cs, up, mid, dn []T, kw *[9]T, acc T) T {
	n := len(d)
	s0, s1, s2 := up[:n], up[1:][:n], up[2:][:n]
	s3, s4, s5 := mid[:n], mid[1:][:n], mid[2:][:n]
	s6, s7, s8 := dn[:n], dn[1:][:n], dn[2:][:n]
	w0, w1, w2 := kw[0], kw[1], kw[2]
	w3, w4, w5 := kw[3], kw[4], kw[5]
	w6, w7, w8 := kw[6], kw[7], kw[8]
	if cs != nil {
		cs = cs[:n]
		for j := range d {
			v := cs[j]
			v += w0 * s0[j]
			v += w1 * s1[j]
			v += w2 * s2[j]
			v += w3 * s3[j]
			v += w4 * s4[j]
			v += w5 * s5[j]
			v += w6 * s6[j]
			v += w7 * s7[j]
			v += w8 * s8[j]
			d[j] = v
			acc += v
		}
		return acc
	}
	for j := range d {
		var v T // start from zero like the generic loop: 0 + (-0.0) is +0.0
		v += w0 * s0[j]
		v += w1 * s1[j]
		v += w2 * s2[j]
		v += w3 * s3[j]
		v += w4 * s4[j]
		v += w5 * s5[j]
		v += w6 * s6[j]
		v += w7 * s7[j]
		v += w8 * s8[j]
		d[j] = v
		acc += v
	}
	return acc
}
