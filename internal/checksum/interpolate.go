package checksum

import (
	"fmt"
	"math"
	"slices"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Vec names one of a rectangle's two checksum vectors.
type Vec int

const (
	// VecA is the row checksum vector, A[x] = Σ_y u(x,y): one entry per
	// column, summed along y.
	VecA Vec = iota
	// VecB is the column checksum vector, B[y] = Σ_x u(x,y).
	VecB
)

// noSource marks a frame line or row that lies in the ghost region of a
// Constant or Zero boundary.
const noSource = math.MinInt

// interp is the one interpolation engine (Theorem 1) behind Interp2D and
// Interp3D: a rectangle [x0,x1) x [y0,y1) of a frame of fnx-by-fny cells —
// the whole frame for a domain or a 3-D layer — repeated over nz layers.
//
// The previous vectors it reads are extended: a vector of n entries carries
// h >= radius halo entries each side, and a stack of nz layers carries
// RadiusZ halo layers each side, so every entry a stencil point shifts to is
// data the owner provided — neighbour sums (a chunk, a rank tile, a z-slab)
// or FillHalo's projection of the boundary condition (a domain). The
// boundary condition enters the engine once, at construction, where the
// window-shift terms α/β (DESIGN.md Section 6) are compiled to the frame
// lines entering and leaving the summation window and to the frame row each
// extended entry reads them at. A call makes one pass per stencil point
// over the output — consecutive points may share one — and a point whose
// window moves computes its α/β entries in that pass from the edge source's
// lines; there are no tables.
// Per entry the operations and their order are those of evaluating entry by
// entry: start from the constant-field sum, add w·(prev + α/β) point by
// point in declaration order, each α/β summed from zero over its entering
// lines and then its leaving ones.
type interp[T num.Float] struct {
	nz, rz   int
	fnx, fny int // frame shape; fnx is the row stride of a grid edge source
	bc       grid.Boundary
	ghost    [1]T // the ghost cell: BCValue under Constant, else 0
	a, b     interpAxis[T]
	// cf is the frame-shaped constant field (nil: none) whose layers z0..
	// the box's layers are, read by constant.
	cf *grid.Grid3D[T]
	z0 int
	// DropBoundaryTerms reproduces the paper's simplified listings (Figures
	// 3 and 7), which omit alpha/beta from both vectors. Exact only for
	// Periodic boundaries or weight-symmetric stencils; exposed for
	// ablation A1.
	DropBoundaryTerms bool
}

// interpAxis is one checksum vector's compiled interpolation. B has an
// entry per frame row of the rectangle and sums along x, so its window
// shifts move frame columns; A is the transpose.
type interpAxis[T num.Float] struct {
	cols bool // B: the window-shift lines are frame columns
	n, r int  // entries; stencil radius along them
	m    int  // the summed extent: a ghost line sums to m ghost cells
	// The vector's entries are the frame lines e0 .. e0+n, each summed over
	// s0 .. s0+m; c[z] holds layer z's line sums of the constant field once
	// constant has taken them.
	e0, s0 int
	c      [][]T
	// rows[e+r] is the frame row (a column for A) extended entry e in
	// [-r, n+r) lies on, where the window-shift lines are read; noSource is
	// a ghost row. Over entries [runLo, runHi), which take in the vector's
	// own, the frame rows run consecutively from rows[runLo].
	rows         []int
	runLo, runHi int
	terms        []interpTerm[T]
	shifts       []windowShift
}

// interpTerm is one stencil point compiled for one axis; its pass computes
// its window shift's α/β entry by entry (addShifted). pair marks the first
// of two consecutive terms at one offset whose window shifts mirror each
// other — the two sides of a radius-1 star under Clamp, one shift entering
// the line the other leaves and leaving the one it enters (Mirror enters
// line 1 where the other side leaves line 0, and a box's points at one
// offset are not consecutive) — over rows in the run, the sums spanning the
// frame: one pass adds both and computes both entries from one load of
// each edge cell (addMirrorTerms2).
type interpTerm[T num.Float] struct {
	w     T
	dz    int
	shift int  // offset along the vector: dy for B, dx for A
	win   int  // index into shifts; -1 when the point's window does not move
	pair  bool // this term and the next are a mirror pair
}

// windowShift is the α/β term of the points with one (dz, cross) offset:
// when the summation window shifts by cross, the lines entering it, added,
// and the rectangle's lines leaving it, subtracted, in the order the sums
// are taken; noSource is a ghost line. A shift whose entering lines are its
// leaving ones (a rectangle spanning a periodic frame: paper Eqs. 8-9)
// cancels and is not compiled.
type windowShift struct {
	dz         int
	cross      int
	adds, subs []int
}

// edgeLine is one frame line of an edge source: its cell at frame row r is
// cells[r*stride].
type edgeLine[T num.Float] struct {
	cells  []T
	stride int
}

// compile builds the engine for op's points over rectangle [x0,x1) x
// [y0,y1) of an fnx-by-fny frame, repeated over nz layers.
func (ip *interp[T]) compile(pts []stencil.Point[T], bc grid.Boundary, bcValue T, fnx, fny, x0, y0, x1, y1, nz int) {
	ip.nz, ip.fnx, ip.fny, ip.bc = nz, fnx, fny, bc
	for _, p := range pts {
		ip.rz = max(ip.rz, p.DZ, -p.DZ)
	}
	if bc == grid.Constant {
		ip.ghost[0] = bcValue
	}
	ip.a = compileAxis(pts, false, bc, x0, x1, fnx, y0, y1, fny, nz)
	ip.b = compileAxis(pts, true, bc, y0, y1, fny, x0, x1, fnx, nz)
}

// compileAxis compiles one vector of nz layers: entries [e0, e1) of a frame
// extent fe, each the sum over [s0, s1) of a frame extent fs.
func compileAxis[T num.Float](pts []stencil.Point[T], cols bool, bc grid.Boundary, e0, e1, fe, s0, s1, fs, nz int) interpAxis[T] {
	ax := interpAxis[T]{cols: cols, n: e1 - e0, m: s1 - s0, e0: e0, s0: s0, c: make([][]T, nz),
		terms: make([]interpTerm[T], 0, len(pts))}
	resolve := func(i, n int) int {
		if r, ok := bc.ResolveIndex(i, n); ok {
			return r
		}
		return noSource
	}
	offsets := func(p stencil.Point[T]) (shift, cross int) {
		if cols {
			return p.DY, p.DX
		}
		return p.DX, p.DY
	}
	for _, p := range pts {
		shift, _ := offsets(p)
		ax.r = max(ax.r, shift, -shift)
	}
	ax.rows = make([]int, ax.n+2*ax.r)
	for j := range ax.rows {
		ax.rows[j] = resolve(e0+j-ax.r, fe)
	}
	ax.runLo, ax.runHi = ax.r, ax.r+ax.n
	for ax.runLo > 0 && ax.rows[ax.runLo-1] != noSource && ax.rows[ax.runLo-1] == ax.rows[ax.runLo]-1 {
		ax.runLo--
	}
	for ax.runHi < len(ax.rows) && ax.rows[ax.runHi] != noSource && ax.rows[ax.runHi] == ax.rows[ax.runHi-1]+1 {
		ax.runHi++
	}
	for _, p := range pts {
		shift, cross := offsets(p)
		t := interpTerm[T]{w: p.W, dz: p.DZ, shift: shift, win: -1}
		ws := windowShift{dz: p.DZ, cross: cross}
		if cross < 0 {
			for i := cross; i < 0; i++ {
				ws.adds = append(ws.adds, resolve(s0+i, fs)) // entering on the low side
				ws.subs = append(ws.subs, s1+i)              // leaving on the high side
			}
		} else {
			for i := 0; i < cross; i++ {
				ws.adds = append(ws.adds, resolve(s1+i, fs)) // entering on the high side
				ws.subs = append(ws.subs, s0+i)              // leaving on the low side
			}
		}
		if cross != 0 && !slices.Equal(ws.adds, ws.subs) {
			t.win = slices.IndexFunc(ax.shifts, func(o windowShift) bool { return o.dz == ws.dz && o.cross == ws.cross })
			if t.win < 0 {
				t.win = len(ax.shifts)
				ax.shifts = append(ax.shifts, ws)
			}
		}
		ax.terms = append(ax.terms, t)
	}
	for i := 0; i+1 < len(ax.terms); i++ {
		if ax.mirrors(ax.terms[i], ax.terms[i+1]) {
			ax.terms[i].pair = true
			i++
		}
	}
	return ax
}

// mirrors reports whether terms t and u are a mirror pair (interpTerm).
func (ax *interpAxis[T]) mirrors(t, u interpTerm[T]) bool {
	if t.win < 0 || u.win < 0 || t.shift != u.shift || ax.r+t.shift < ax.runLo || ax.r+t.shift+ax.n > ax.runHi {
		return false
	}
	a, b := ax.shifts[t.win], ax.shifts[u.win]
	return a.dz == b.dz && len(a.adds) == 1 && len(a.subs) == 1 && slices.Equal(a.adds, b.subs) && slices.Equal(a.subs, b.adds)
}

// constant returns layer z's line sums of the constant field along ax,
// taken the first time a call needs them — a clean online run never
// interpolates A, so it never sums the field's columns. Layers are distinct
// slots, so layers take theirs concurrently.
func (ip *interp[T]) constant(ax *interpAxis[T], z int) []T {
	if ax.c[z] == nil {
		c := make([]T, ax.n)
		if ip.cf != nil {
			l := ip.cf.Layer(ip.z0 + z)
			if ax.cols {
				stencil.ChecksumBRect(l, ax.s0, ax.e0, ax.s0+ax.m, ax.e0+ax.n, c)
			} else {
				stencil.ChecksumARect(l, ax.e0, ax.s0, ax.e0+ax.n, ax.s0+ax.m, c)
			}
		}
		ax.c[z] = c
	}
	return ax.c[z]
}

func (ip *interp[T]) axis(v Vec) *interpAxis[T] {
	if v == VecB {
		return &ip.b
	}
	return &ip.a
}

// EdgeRadius returns the snapshot radius the window-shift terms need:
// max(RadiusX, RadiusY) of the stencil.
func (ip *interp[T]) EdgeRadius() int { return max(ip.a.r, ip.b.r) }

// FillHalo fills the halo entries of ext, an extended vector v of the
// interpolator's rectangle, from its own entries by the 1-D projection of
// the boundary condition — the rectangle must span its frame along v's
// entries (a domain, a layer, a full-height column block).
func (ip *interp[T]) FillHalo(v Vec, ext []T) {
	ax := ip.axis(v)
	FillHalo(ext, (len(ext)-ax.n)/2, ip.bc, T(ax.m)*ip.ghost[0])
}

// interpolate is the one routine that computes interpolated entries: next,
// vector ax of layer z, from prev — nz layers between RadiusZ halo layers
// each side, each an extended vector with h halo entries each side (h
// read off the lengths) — and one edge source per layer of prev, nil for a
// ghost layer (whose every cell is the ghost value, so no window shift
// moves anything). next must not alias prev. With fused non-nil the last
// pass screens each entry against fused's as it produces it, and the call
// reports whether any trips d; without, it reports false.
func (ip *interp[T]) interpolate(ax *interpAxis[T], z int, prev [][]T, edges []EdgeSource[T], next, fused []T, d Detector[T]) bool {
	if len(next) != ax.n || len(edges) != len(prev) || len(prev) != ip.nz+2*ip.rz {
		panic(fmt.Sprintf("checksum: interpolate lengths %d/%d/%d for %d entries over %d layers (z-radius %d)",
			len(prev), len(edges), len(next), ax.n, ip.nz, ip.rz))
	}
	h := (len(prev[z+ip.rz]) - ax.n) / 2
	if h < ax.r || len(prev[z+ip.rz]) != ax.n+2*h {
		panic(fmt.Sprintf("checksum: extended vector of %d entries for %d entries and radius %d", len(prev[z+ip.rz]), ax.n, ax.r))
	}
	shifted := len(ax.shifts) > 0 && !ip.DropBoundaryTerms
	// term returns what term i adds to each entry — w·in, plus w·α/β from
	// src's lines when its window moves — and src, nil when it does not: a
	// ghost layer's lines are all ghost cells, so its window moves nothing.
	term := func(i int) (w T, in []T, src EdgeSource[T]) {
		t := ax.terms[i]
		zz := z + t.dz + ip.rz
		if t.win >= 0 && shifted {
			src = edges[zz]
		}
		return t.w, prev[zz][h+t.shift:][:ax.n], src
	}
	out := next[:ax.n]
	copy(out, ip.constant(ax, z))
	// Consecutive terms whose windows do not move go two to a pass, which
	// adds them to each entry in the same order as two passes would; so
	// does a mirror pair, and any other term whose window moves goes in its
	// own. A screened call whose last two terms are plain leaves them to
	// screenTerms2, which screens each entry as it produces it; any other
	// screens the vector once it is done.
	last := len(ax.terms)
	screened := fused != nil && last > 1 && ax.terms[last-2].win < 0 && ax.terms[last-1].win < 0
	if screened {
		last -= 2
	}
	for i := 0; i < last; i++ {
		t := ax.terms[i]
		w, in, src := term(i)
		if src != nil && t.pair {
			w2, in2, _ := term(i + 1)
			ws := &ax.shifts[t.win]
			addMirrorTerms2(out, w, in, w2, in2, ip.edgeLine(ax, src, ws.adds[0]), ip.edgeLine(ax, src, ws.subs[0]), ax.rows[ax.r+t.shift])
			i++
			continue
		}
		if src != nil {
			ip.addShifted(ax, out, w, in, &ax.shifts[t.win], src, ax.r+t.shift)
			continue
		}
		if i+1 < last {
			if w2, in2, src2 := term(i + 1); src2 == nil {
				addTerms2(out, w, in, w2, in2)
				i++
				continue
			}
		}
		for e, s := range in {
			out[e] += w * s
		}
	}
	switch {
	case screened:
		w, in, _ := term(last)
		w2, in2, _ := term(last + 1)
		return screenTerms2(out, w, in, w2, in2, fused, d)
	case fused != nil:
		return d.AnyMismatch(fused, out)
	}
	return false
}

// screenTerms2 is addTerms2 checking each entry against fused's as it
// produces it, the way Detector.AnyMismatch does; it reports whether any
// trips d.
func screenTerms2[T num.Float](out []T, w T, a []T, w2 T, b, fused []T, d Detector[T]) bool {
	a, b, fused = a[:len(out)], b[:len(out)], fused[:len(out)]
	half, hit := d.Epsilon/2, false
	for e, v := range out {
		v += w * a[e]
		v += w2 * b[e]
		out[e] = v
		if !d.clears(fused[e], v, half) && d.Exceeds(fused[e], v) {
			hit = true
		}
	}
	return hit
}

// addMirrorTerms2 adds w·(a + α) and then w2·(b + β) to each entry of out,
// α and β a mirror pair's window-shift entries computed as addShifted
// computes them — line la's cell minus lb's, and lb's minus la's, each
// summed from zero — from one load of each line at consecutive frame rows
// from r0.
func addMirrorTerms2[T num.Float](out []T, w T, a []T, w2 T, b []T, la, lb edgeLine[T], r0 int) {
	a, b = a[:len(out)], b[:len(out)]
	ia, ib := r0*la.stride, r0*lb.stride
	for e := range out {
		x, y := la.cells[ia], lb.cells[ib]
		var al, be T
		al += x
		al -= y
		be += y
		be -= x
		v := out[e]
		v += w * (a[e] + al)
		v += w2 * (b[e] + be)
		out[e] = v
		ia += la.stride
		ib += lb.stride
	}
}

// addTerms2 adds w·a and then w2·b to each entry of out.
func addTerms2[T num.Float](out []T, w T, a []T, w2 T, b []T) {
	a, b = a[:len(out)], b[:len(out)]
	for e := range out {
		v := out[e]
		v += w * a[e]
		v += w2 * b[e]
		out[e] = v
	}
}

// addShifted adds w·(a[e] + α) to each entry e of out, α window shift ws's
// entering lines' cells at frame row ax.rows[j0+e] summed from zero, minus
// its leaving lines', in order. Over the consecutive run each line is read
// as a constant-stride stream (addShiftedRun); the at most r entries at
// each end read the rows they resolve to, or the ghost value at a ghost row
// (addShiftedRows).
func (ip *interp[T]) addShifted(ax *interpAxis[T], out []T, w T, a []T, ws *windowShift, src EdgeSource[T], j0 int) {
	var buf [8]edgeLine[T] // radius 4; a wider shift's lines go to the heap
	lines := buf[:0]
	for _, c := range ws.adds {
		lines = append(lines, ip.edgeLine(ax, src, c))
	}
	for _, c := range ws.subs {
		lines = append(lines, ip.edgeLine(ax, src, c))
	}
	adds, subs := lines[:len(ws.adds)], lines[len(ws.adds):]
	n, rows := len(out), ax.rows[j0:]
	lo := min(max(ax.runLo-j0, 0), n)
	hi := max(min(ax.runHi-j0, n), lo)
	addShiftedRows(out[:lo], w, a, rows, ip.ghost[0], adds, subs)
	if lo < hi {
		addShiftedRun(out[lo:hi], w, a[lo:], rows[lo], adds, subs)
	}
	addShiftedRows(out[hi:], w, a[hi:], rows[hi:], ip.ghost[0], adds, subs)
}

// addShiftedRun is addShifted over consecutive frame rows from r0. The
// first line of each kind is a stream held out of the inner loops, which a
// radius-1 shift leaves empty.
func addShiftedRun[T num.Float](out []T, w T, a []T, r0 int, adds, subs []edgeLine[T]) {
	a = a[:len(out)]
	la, moreAdds, lb, moreSubs := adds[0], adds[1:], subs[0], subs[1:]
	ia, ib := r0*la.stride, r0*lb.stride
	for e := range out {
		var v T
		v += la.cells[ia]
		for _, l := range moreAdds {
			v += l.cells[(r0+e)*l.stride]
		}
		v -= lb.cells[ib]
		for _, l := range moreSubs {
			v -= l.cells[(r0+e)*l.stride]
		}
		out[e] += w * (a[e] + v)
		ia += la.stride
		ib += lb.stride
	}
}

// addShiftedRows is addShifted at frame rows rows[e]; a ghost row's cells
// are the ghost value g.
func addShiftedRows[T num.Float](out []T, w T, a []T, rows []int, g T, adds, subs []edgeLine[T]) {
	a, rows = a[:len(out)], rows[:len(out)]
	for e, r := range rows {
		var v T
		if r == noSource {
			for range adds {
				v += g
			}
			for range subs {
				v -= g
			}
		} else {
			for _, l := range adds {
				v += l.cells[r*l.stride]
			}
			for _, l := range subs {
				v -= l.cells[r*l.stride]
			}
		}
		out[e] += w * (a[e] + v)
	}
}

// edgeLine returns frame line c of one layer's edge source; a ghost line,
// and every line of a ghost layer (nil), is the ghost cell repeated.
func (ip *interp[T]) edgeLine(ax *interpAxis[T], src EdgeSource[T], c int) edgeLine[T] {
	if c == noSource || src == nil {
		return edgeLine[T]{ip.ghost[:], 0}
	}
	switch s := src.(type) {
	case grid.BoundedGrid[T]:
		ip.checkEdges(s.G.Nx(), s.G.Ny(), s.Cond, s.ConstVal)
		d := s.G.Data()
		if ax.cols {
			return edgeLine[T]{d[c:], ip.fnx}
		}
		return edgeLine[T]{d[c*ip.fnx : (c+1)*ip.fnx], 1}
	case *EdgeSnapshot[T]:
		ip.checkEdges(s.nx, s.ny, s.bc, s.constVal)
		return edgeLine[T]{s.line(ax.cols, c), 1}
	default:
		panic(fmt.Sprintf("checksum: cannot read edge cells of a %T", src))
	}
}

// checkEdges panics unless an nx-by-ny edge source under bc and constVal is
// a layer of the frame under the interpolator's own boundary: the engine
// reads its cells in place and resolves what lies outside by the lines and
// rows it compiled, never by the source's condition.
func (ip *interp[T]) checkEdges(nx, ny int, bc grid.Boundary, constVal T) {
	if nx != ip.fnx || ny != ip.fny || bc != ip.bc || bc == grid.Constant && constVal != ip.ghost[0] {
		panic(fmt.Sprintf("checksum: a %dx%d edge source under %s (value %v) for a %dx%d frame under %s (value %v)",
			nx, ny, bc, constVal, ip.fnx, ip.fny, ip.bc, ip.ghost[0]))
	}
}

// Interp2D interpolates the checksum vectors of iteration t+1 from those of
// iteration t for a fixed 2-D stencil operator over a rectangle of a frame:
// the engine with one layer. The constant-field line sums are computed once
// (the paper notes c_x "is constant and can be pre-computed"), when first
// needed.
type Interp2D[T num.Float] struct {
	interp[T]
	zero []T // InterpolateB's halo scratch
}

// NewInterp2D precomputes an interpolator for op over an nx-by-ny domain.
func NewInterp2D[T num.Float](op *stencil.Op2D[T], nx, ny int) (*Interp2D[T], error) {
	if err := op.Validate(nx, ny); err != nil {
		return nil, err
	}
	return NewInterp2DRect(op, nx, ny, 0, 0, nx, ny)
}

// NewInterp2DRect precomputes an interpolator for the rectangle [x0,x1) x
// [y0,y1) of an fnx-by-fny frame — a chunk of a domain or a rank's tile in
// its extended frame. The window-shift terms read the frame's cells as they
// stand and resolve only what lies outside the frame through op's boundary
// condition. The constant-field line sums are the rectangle's, read from
// op's frame-shaped field in place: the engine is Interp3DRect's over the
// frame's one-layer stack.
func NewInterp2DRect[T num.Float](op *stencil.Op2D[T], fnx, fny, x0, y0, x1, y1 int) (*Interp2D[T], error) {
	if err := (&stencil.Op2D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}).Validate(x1-x0, y1-y0); err != nil {
		return nil, err
	}
	ip, err := NewInterp3DRect(op.Stack(), fnx, fny, 1, x0, y0, 0, x1, y1, 1)
	if err != nil {
		return nil, err
	}
	return &Interp2D[T]{interp: ip.interp}, nil
}

// Interpolate computes next, vector v of iteration t+1, from prev — the
// vector of iteration t extended by at least the stencil radius along it
// each side — and the frame of iteration t.
//
// Cost: O(n·k·r), k = |S| and r the radius across the vector: each term
// whose window moves reads its r entering and r leaving lines per entry in
// its own pass — the paper's O(k²·n) with the alpha/beta inner loop explicit.
func (ip *Interp2D[T]) Interpolate(v Vec, prev []T, edges EdgeSource[T], next []T) {
	p, e := [1][]T{prev}, [1]EdgeSource[T]{edges}
	ip.interpolate(ip.axis(v), 0, p[:], e[:], next, nil, Detector[T]{})
}

// InterpolateB computes bNext from bPrev for a domain interpolator with no
// halo: both have length ny. It extends bPrev into scratch the interpolator
// owns, so it is not safe for concurrent use — the benchmark's entry point;
// protectors keep extended vectors and call Interpolate.
func (ip *Interp2D[T]) InterpolateB(bPrev []T, edges EdgeSource[T], bNext []T) {
	r := ip.b.r
	if ip.zero == nil {
		ip.zero = make([]T, ip.b.n+2*r)
	}
	copy(ip.zero[r:r+ip.b.n], bPrev)
	ip.FillHalo(VecB, ip.zero)
	ip.Interpolate(VecB, ip.zero, edges, bNext)
}

// Interp3D interpolates the per-layer checksum vectors of a box [x0,x1) x
// [y0,y1) x [z0,z1) of a frame of layers: the engine over the box's nz
// layers, each the rectangle of a 2-D frame — a 3-D domain, a z-slab between
// its ghost layers, or a 2-D domain or tile as the one-layer stack. The paper
// applies the 2-D scheme on every z-layer; a stencil point with dz != 0
// couples layer z's checksum to layer z+dz's of the previous iteration,
// because the layer sum telescopes exactly like the in-layer sums do. Calls
// for distinct layers touch disjoint state, so layers interpolate
// concurrently against one interpolator.
type Interp3D[T num.Float] struct {
	interp[T]
	// layers[v] is the frame layer entry v of a stack holds (LayerOf).
	layers []int
	// InterpolateB's halo scratch: a stack and its edge sources.
	zeroPrev  [][]T
	zeroEdges []EdgeSource[T]
}

// NewInterp3D precomputes an interpolator for op over an nx*ny*nz domain,
// the box that is its whole frame.
func NewInterp3D[T num.Float](op *stencil.Op3D[T], nx, ny, nz int) (*Interp3D[T], error) {
	if err := op.Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	return NewInterp3DRect(op, nx, ny, nz, 0, 0, 0, nx, ny, nz)
}

// NewInterp3DRect precomputes an interpolator for the box [x0,x1) x [y0,y1) x
// [z0,z1) of an fnx-by-fny-by-fnz frame — Interp2DRect's rectangle on each of
// the box's layers. The window-shift terms read the frame's cells as they
// stand and resolve only what lies outside the frame through op's boundary
// condition. The constant-field line sums are the box's, read from op's
// frame-shaped field in place the first time an interpolation needs them, so
// the field must not change once the interpolator is built.
func NewInterp3DRect[T num.Float](op *stencil.Op3D[T], fnx, fny, fnz, x0, y0, z0, x1, y1, z1 int) (*Interp3D[T], error) {
	nx, ny, nz := x1-x0, y1-y0, z1-z0
	if err := (&stencil.Op3D[T]{St: op.St, BC: op.BC, BCValue: op.BCValue}).Validate(nx, ny, nz); err != nil {
		return nil, err
	}
	ip := &Interp3D[T]{}
	ip.cf, ip.z0 = op.C, z0
	ip.compile(op.St.Points, op.BC, op.BCValue, fnx, fny, x0, y0, x1, y1, nz)
	ip.layers = make([]int, nz+2*ip.rz)
	for v := range ip.layers {
		ip.layers[v] = -1
		if f, ok := op.BC.ResolveIndex(z0-ip.rz+v, fnz); ok {
			ip.layers[v] = f
		}
	}
	return ip, nil
}

// Interpolate computes next, vector v of box layer z in [0, nz) at iteration
// t+1, from prev — the stack of iteration t's vectors (NewStack) — and one
// edge source per stack entry (EdgeStack). Every edge source must be a
// LiveEdges view or an *EdgeSnapshot of its frame layer under the
// interpolator's boundary; their cells are read directly, not through At.
func (ip *Interp3D[T]) Interpolate(v Vec, z int, prev [][]T, edges []EdgeSource[T], next []T) {
	ip.interpolate(ip.axis(v), z, prev, edges, next, nil, Detector[T]{})
}

// Verify is Interpolate(VecB, z, prev, edges, next) screening each entry
// against fused, layer z's fused column checksums, as the last pass produces
// it: it reports d.AnyMismatch(fused, next) without a second pass over the
// vectors. next still receives the interpolated entries, which a repair
// reads.
func (ip *Interp3D[T]) Verify(z int, prev [][]T, edges []EdgeSource[T], fused, next []T, d Detector[T]) bool {
	return ip.interpolate(&ip.b, z, prev, edges, next, fused, d)
}

// LayerOf returns the frame layer entry v of a stack holds. A stack is the
// box's nz layers between RadiusZ halo layers each side, entry v frame layer
// z0-RadiusZ+v: a halo layer inside the frame is the frame's (a slab's ghost
// layer), one beyond it the layer the boundary condition projects it onto,
// and -1 a ghost layer of a Constant or Zero boundary.
func (ip *Interp3D[T]) LayerOf(v int) int { return ip.layers[v] }

// NewStack allocates a stack of vector v (LayerOf): one vector per frame
// layer, extended by h >= radius halo entries each side, shared by the
// entries that hold that layer, and one ghost vector shared by the ghost
// entries — so only one vector per frame layer needs writing.
func (ip *Interp3D[T]) NewStack(v Vec, h int) [][]T {
	ax := ip.axis(v)
	stack := make([][]T, len(ip.layers))
	for e, f := range ip.layers {
		if i := slices.Index(ip.layers, f); i < e {
			stack[e] = stack[i] // the layer's, or the ghost, vector
			continue
		}
		stack[e] = make([]T, ax.n+2*h)
		if f < 0 {
			for i := range stack[e] {
				stack[e][i] = T(ax.m) * ip.ghost[0]
			}
		}
	}
	return stack
}

// EdgeStack returns the edge sources an interpolation over a NewStack stack
// reads, reusing stack's storage: layers holds one per frame layer, and entry
// v is layers[LayerOf(v)], nil for a ghost layer.
func (ip *Interp3D[T]) EdgeStack(stack, layers []EdgeSource[T]) []EdgeSource[T] {
	n := len(ip.layers)
	stack = slices.Grow(stack[:0], n)[:n]
	for e := range stack {
		stack[e] = nil
		if f := ip.LayerOf(e); f >= 0 {
			stack[e] = layers[f]
		}
	}
	return stack
}

// InterpolateB computes layer z's bNext from the domain's per-layer column
// checksums bPrev (nz vectors of length ny, no halo) and per-layer edge
// sources. It extends what the layer reads into scratch the interpolator
// owns, so it is not safe for concurrent use — the benchmark's entry point;
// protectors keep extended stacks and call Interpolate.
func (ip *Interp3D[T]) InterpolateB(z int, bPrev [][]T, edges []EdgeSource[T], bNext []T) {
	if ip.zeroPrev == nil {
		ip.zeroPrev = ip.NewStack(VecB, ip.b.r)
	}
	for e := z; e <= z+2*ip.rz; e++ {
		if l := ip.LayerOf(e); l >= 0 {
			copy(ip.zeroPrev[e][ip.b.r:], bPrev[l])
			ip.FillHalo(VecB, ip.zeroPrev[e])
		}
	}
	ip.zeroEdges = ip.EdgeStack(ip.zeroEdges, edges)
	ip.Interpolate(VecB, z, ip.zeroPrev, ip.zeroEdges, bNext)
}
