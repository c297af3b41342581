package checksum

import (
	"fmt"
	"math"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Interp3D interpolates the per-layer checksum vectors of a 3-D domain.
// The paper applies the 2-D scheme on every z-layer; a stencil point with
// dz != 0 couples layer z's checksum to layer z+dz's checksum of the
// previous iteration, because the layer sum telescopes exactly like the
// in-layer sums do. Ghost layers (z+dz outside [0,nz)) are resolved with
// the same boundary condition as the in-layer axes.
//
// The boundary is compiled out of the interpolation at construction: each
// axis keeps, per stencil point, where its entries read the previous vector
// directly, the few entries that fold through the boundary condition, and
// the BC-resolved edge lines of its alpha/beta term (interpTerm). A call
// then makes one pass per point over the output vector and reads edge cells
// straight from the layer or snapshot slices. Per entry the operations and
// their order are those of Interp2D's loops — start from the constant-field
// sum, add w*term point by point in declaration order — so results are
// bit-identical to evaluating entry by entry.
type Interp3D[T num.Float] struct {
	op         *stencil.Op3D[T]
	nx, ny, nz int
	bc         grid.Boundary
	a, b       interpAxis[T]
	ghostCell  [1]T // the ghost value: BCValue under Constant, else 0
	// DropBoundaryTerms mirrors Interp2D.DropBoundaryTerms (ablation A1).
	DropBoundaryTerms bool
}

// noSource marks an entry or edge line that lies in the ghost region of a
// Constant or Zero boundary.
const noSource = math.MinInt

// interpAxis is one checksum vector's compiled interpolation: B has an entry
// per y and sums along x, A an entry per x and sums along y.
type interpAxis[T num.Float] struct {
	cols     bool  // true for B: the boundary term's edge lines are columns
	n        int   // entries
	c        [][]T // per layer: line sums of the constant field
	ghostSum T     // a whole ghost line under Constant: (summed extent)*K
	terms    []interpTerm[T]
}

// interpTerm is one stencil point compiled for one axis.
type interpTerm[T num.Float] struct {
	w      T
	dz     int
	shift  int   // offset along the vector: dy for B, dx for A
	lo, hi int   // entries [lo, hi) read prev[e+shift] with no boundary involved
	edge   []int // resolved source entry of e in [0, lo) then [hi, n); noSource = ghost
	// adds and subs are the point's alpha/beta term (DESIGN.md Section 6):
	// when the summation window shifts by the point's offset across the
	// other axis, the BC-resolved lines that enter it and the domain lines
	// that leave it, in the order the sums are taken; noSource = ghost line.
	// Both are empty when that offset is zero or the boundary is periodic.
	adds, subs []int
}

// edgeLine is one resolved line of an edge source: its cell at entry r is
// cells[r*stride].
type edgeLine[T num.Float] struct {
	cells  []T
	stride int
}

// NewInterp3D precomputes an interpolator for op over an nx*ny*nz domain.
func NewInterp3D[T num.Float](op *stencil.Op3D[T], nx, ny, nz int) (*Interp3D[T], error) {
	if err := op.Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	ip := &Interp3D[T]{op: op, nx: nx, ny: ny, nz: nz, bc: op.BC,
		a: interpAxis[T]{n: nx, c: make([][]T, nz)},
		b: interpAxis[T]{n: ny, c: make([][]T, nz), cols: true},
	}
	for z := 0; z < nz; z++ {
		ip.a.c[z] = make([]T, nx)
		ip.b.c[z] = make([]T, ny)
		if op.C != nil {
			stencil.ChecksumA(op.C.Layer(z), ip.a.c[z])
			stencil.ChecksumB(op.C.Layer(z), ip.b.c[z])
		}
	}
	if op.BC == grid.Constant {
		ip.ghostCell[0] = op.BCValue
		ip.a.ghostSum = T(ny) * op.BCValue
		ip.b.ghostSum = T(nx) * op.BCValue
	}
	ip.a.terms = make([]interpTerm[T], 0, len(op.St.Points))
	ip.b.terms = make([]interpTerm[T], 0, len(op.St.Points))
	for _, p := range op.St.Points {
		ip.a.terms = append(ip.a.terms, compileTerm(p.W, p.DZ, p.DX, p.DY, nx, ny, op.BC))
		ip.b.terms = append(ip.b.terms, compileTerm(p.W, p.DZ, p.DY, p.DX, ny, nx, op.BC))
	}
	return ip, nil
}

// compileTerm compiles one stencil point for an axis of n entries summed
// over an extent of m, with offset shift along the entries and cross along
// the summed axis.
func compileTerm[T num.Float](w T, dz, shift, cross, n, m int, bc grid.Boundary) interpTerm[T] {
	t := interpTerm[T]{w: w, dz: dz, shift: shift, lo: max(0, -shift), hi: min(n, n-shift)}
	resolved := func(i, n int) int {
		if r, ok := bc.ResolveIndex(i, n); ok {
			return r
		}
		return noSource
	}
	for e := 0; e < t.lo; e++ {
		t.edge = append(t.edge, resolved(e+shift, n))
	}
	for e := t.hi; e < n; e++ {
		t.edge = append(t.edge, resolved(e+shift, n))
	}
	if bc == grid.Periodic {
		return t // alpha/beta vanish (paper Eqs. 8-9)
	}
	if cross < 0 {
		for i := cross; i < 0; i++ { // ghost lines entering on the low side
			t.adds = append(t.adds, resolved(i, m))
		}
		for i := m + cross; i < m; i++ { // domain lines leaving on the high side
			t.subs = append(t.subs, i)
		}
	} else {
		for i := m; i < m+cross; i++ { // ghost lines entering on the high side
			t.adds = append(t.adds, resolved(i, m))
		}
		for i := 0; i < cross; i++ { // domain lines leaving on the low side
			t.subs = append(t.subs, i)
		}
	}
	return t
}

// EdgeRadius returns the in-layer snapshot radius needed by the
// alpha/beta terms: max(RadiusX, RadiusY).
func (ip *Interp3D[T]) EdgeRadius() int {
	return max(ip.op.St.RadiusX(), ip.op.St.RadiusY())
}

// InterpolateB computes layer z's next column checksums from the previous
// iteration's per-layer column checksums bPrev (bPrev[z] of length ny) and
// per-layer edge sources. bNext must have length ny. Every edge source must
// be a LiveEdges view or an *EdgeSnapshot of its layer under the operator's
// boundary condition; their cells are read directly, not through At.
func (ip *Interp3D[T]) InterpolateB(z int, bPrev [][]T, edges []EdgeSource[T], bNext []T) {
	ip.InterpolateBSlab(z, bPrev, 0, edges, bNext)
}

// InterpolateA computes layer z's next row checksums, the x-axis analogue
// of InterpolateB.
func (ip *Interp3D[T]) InterpolateA(z int, aPrev [][]T, edges []EdgeSource[T], aNext []T) {
	ip.InterpolateASlab(z, aPrev, 0, edges, aNext)
}

// InterpolateBSlab interpolates layer z's column checksums for a z-slab of
// a larger 3-D domain — the unit of the layer-decomposed cluster, where
// each rank owns a slab of full nx-by-ny layers and exchanges halo layers
// with its z-neighbours instead of applying a boundary condition in z. It
// is structurally InterpolateBBand lifted one dimension: z is slab-local in
// [0, nz) where nz is the slab thickness the interpolator was built for,
// bPrevExt carries nz+2h per-layer checksum vectors ([0, h) the halo layers
// below in z, [h, h+nz) the slab's own, [h+nz, nz+2h) above; h >= RadiusZ),
// and edges must hold one per-extended-layer EdgeSource. Halo-layer
// checksums are plain sums of the received halo layers, so ranks need no
// extra communication beyond the halo exchange itself. In-layer resolution
// (the y lookups and the x-direction beta terms) uses the global boundary
// condition exactly as in InterpolateB, since every slab spans the full
// in-layer domain. h = 0 is the slab with no z-neighbour, the whole domain:
// layers beyond it resolve through the boundary condition, as InterpolateB's.
func (ip *Interp3D[T]) InterpolateBSlab(z int, bPrevExt [][]T, h int, edges []EdgeSource[T], bNext []T) {
	ip.checkSlab("InterpolateBSlab", len(bPrevExt), len(edges), len(bNext), ip.ny, h)
	ip.interpolate(&ip.b, z, h, bPrevExt, edges, bNext)
}

// InterpolateASlab interpolates layer z's row checksums for a z-slab, the
// x-axis analogue of InterpolateBSlab.
func (ip *Interp3D[T]) InterpolateASlab(z int, aPrevExt [][]T, h int, edges []EdgeSource[T], aNext []T) {
	ip.checkSlab("InterpolateASlab", len(aPrevExt), len(edges), len(aNext), ip.nx, h)
	ip.interpolate(&ip.a, z, h, aPrevExt, edges, aNext)
}

func (ip *Interp3D[T]) checkSlab(name string, nPrev, nEdges, nNext, want, h int) {
	if nPrev != ip.nz+2*h || nEdges != ip.nz+2*h || nNext != want {
		panic(fmt.Sprintf("checksum: %s lengths %d/%d/%d for nz=%d h=%d", name, nPrev, nEdges, nNext, ip.nz, h))
	}
	if rz := ip.op.St.RadiusZ(); h != 0 && h < rz {
		panic(fmt.Sprintf("checksum: halo depth %d below stencil z-radius %d", h, rz))
	}
}

// interpolate is the one routine behind the four entry points. The domain
// and slab forms differ only in how a point's source layer z+dz is found:
// through the boundary condition (h <= 0), or in a vector set extended by h
// halo layers, which z+dz+h indexes directly.
func (ip *Interp3D[T]) interpolate(ax *interpAxis[T], z, h int, prev [][]T, edges []EdgeSource[T], next []T) {
	copy(next, ax.c[z])
	var lineBuf [8]edgeLine[T]
	for i := range ax.terms {
		t := &ax.terms[i]
		zz := z + t.dz + h
		if h <= 0 { // domain form: z+dz goes through the boundary condition
			zz = z + t.dz
			if zz < 0 || zz >= ip.nz {
				var ok bool
				if zz, ok = ip.bc.ResolveIndex(zz, ip.nz); !ok {
					// Ghost layer: every point is the Constant value
					// (or zero), so the shifted window sum is the
					// whole-line ghost sum regardless of dx and dy.
					if ip.bc == grid.Constant {
						g := t.w * ax.ghostSum
						for e := range next {
							next[e] += g
						}
					}
					continue
				}
			}
		}
		vec := prev[zz]
		var adds, subs []edgeLine[T]
		boundary := len(t.adds) > 0 && !ip.DropBoundaryTerms
		if boundary {
			lines := ip.edgeLines(ax, edges[zz], t.adds, lineBuf[:0])
			lines = ip.edgeLines(ax, edges[zz], t.subs, lines)
			adds, subs = lines[:len(t.adds)], lines[len(t.adds):]
		}

		// The few entries whose source folds through the boundary condition.
		for j, r := range t.edge {
			e := j
			if j >= t.lo {
				e += t.hi - t.lo
			}
			term := ax.ghostSum
			if r != noSource {
				term = vec[r]
			}
			if boundary {
				if r != noSource {
					term += boundaryAt(adds, subs, r)
				} else { // a ghost row: every cell of it is the ghost value
					var bnd T
					for range adds {
						bnd += ip.ghostCell[0]
					}
					for range subs {
						bnd -= ip.ghostCell[0]
					}
					term += bnd
				}
			}
			next[e] += t.w * term
		}

		out, w := next[t.lo:t.hi], t.w
		in := vec[t.lo+t.shift:][:len(out)]
		switch {
		case !boundary:
			for e := range out {
				out[e] += w * in[e]
			}
		case len(adds) == 1 && len(subs) == 1: // radius 1: boundaryAt, unrolled
			a, s := adds[0], subs[0]
			ai, si := (t.lo+t.shift)*a.stride, (t.lo+t.shift)*s.stride
			for e := range out {
				var bnd T
				bnd += a.cells[ai]
				bnd -= s.cells[si]
				out[e] += w * (in[e] + bnd)
				ai, si = ai+a.stride, si+s.stride
			}
		default:
			for e := range out {
				out[e] += w * (in[e] + boundaryAt(adds, subs, t.lo+t.shift+e))
			}
		}
	}
}

// boundaryAt evaluates an alpha/beta term at source entry r: the entering
// lines' cells added, then the leaving lines' cells subtracted, from zero.
func boundaryAt[T num.Float](adds, subs []edgeLine[T], r int) T {
	var v T
	for _, l := range adds {
		v += l.cells[r*l.stride]
	}
	for _, l := range subs {
		v -= l.cells[r*l.stride]
	}
	return v
}

// edgeLines appends the resolved lines cols of one layer's edge source.
func (ip *Interp3D[T]) edgeLines(ax *interpAxis[T], src EdgeSource[T], cols []int, out []edgeLine[T]) []edgeLine[T] {
	for _, c := range cols {
		if c == noSource {
			out = append(out, edgeLine[T]{ip.ghostCell[:], 0})
			continue
		}
		switch s := src.(type) {
		case grid.BoundedGrid[T]:
			d := s.G.Data()
			if ax.cols {
				out = append(out, edgeLine[T]{d[c:], ip.nx})
			} else {
				out = append(out, edgeLine[T]{d[c*ip.nx : (c+1)*ip.nx], 1})
			}
		case *EdgeSnapshot[T]:
			out = append(out, edgeLine[T]{s.line(ax.cols, c), 1})
		default:
			panic(fmt.Sprintf("checksum: Interp3D cannot read edge cells of a %T", src))
		}
	}
	return out
}
