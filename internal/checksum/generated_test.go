package checksum

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// refInterp2D is refInterp3D's 2-D twin for a rectangle [x0,x1) x [y0,y1)
// of an fnx-by-fny frame: each entry from the extended previous vector the
// caller provides (h halo entries each side) and, per stencil point, the
// window-shift term read one frame cell at a time through the edge source's
// At. The terms vanish where the rectangle spans a periodic frame (paper
// Eqs. 8-9) and under drop.
type refInterp2D[T num.Float] struct {
	pts            []stencil.Point[T]
	bc             grid.Boundary
	fnx, fny       int
	x0, y0, x1, y1 int
	drop           bool
}

func (ip refInterp2D[T]) interpolate(axisB bool, c, prev []T, edges EdgeSource[T], next []T) {
	e0, s0, s1, fs := ip.x0, ip.y0, ip.y1, ip.fny // A: entries along x, sums along y
	if axisB {
		e0, s0, s1, fs = ip.y0, ip.x0, ip.x1, ip.fnx
	}
	h := (len(prev) - len(next)) / 2
	spans := ip.bc == grid.Periodic && s0 == 0 && s1 == fs
	for e := range next {
		v := c[e]
		for _, p := range ip.pts {
			shift, cross := p.DX, p.DY
			if axisB {
				shift, cross = p.DY, p.DX
			}
			term := prev[h+e+shift]
			if cross != 0 && !spans && !ip.drop {
				line := e0 + e + shift // the frame line the shifted entry lies on
				term += refShift(func(i int) T {
					if axisB {
						return edges.At(i, line)
					}
					return edges.At(line, i)
				}, s0, s1, cross)
			}
			v += p.W * term
		}
		next[e] = v
	}
}

// genStencil draws 1-9 points within radius 1 or 2, the centre always among
// them (z offsets too when is3D), with weights of either sign.
func genStencil[T num.Float](rng *rand.Rand, is3D bool) *stencil.Stencil[T] {
	st := &stencil.Stencil[T]{Name: "generated", Points: []stencil.Point[T]{{W: 0.3}}}
	used := map[[3]int]bool{{}: true}
	r := 1 + rng.Intn(2)
	for k := rng.Intn(9); k > 0; k-- {
		d := [3]int{rng.Intn(2*r+1) - r, rng.Intn(2*r+1) - r, 0}
		if is3D {
			d[2] = rng.Intn(2*r+1) - r
		}
		if !used[d] {
			used[d] = true
			st.Points = append(st.Points, stencil.Point[T]{DX: d[0], DY: d[1], DZ: d[2], W: T(0.05 + 0.2*rng.Float64() - 0.1*float64(rng.Intn(2)))})
		}
	}
	return st
}

// TestInterpolateGenerated is the engine's contract over generated
// configurations. A seed picks 2-D or 3-D, stencil points within radius 2,
// the boundary condition, odd sizes, a geometry — the whole domain, an
// interior block, an edge or corner block, a tile in a materialised frame
// with halos at least the radius, a z-slab with hz in {rz, rz+1} —
// DropBoundaryTerms, the element type and the edge source (live, snapshot,
// frame). Every interpolated entry of both vectors must equal the per-entry
// reference bit for bit (the domains' zero-halo InterpolateB included), and
// on the clean data each case is built from, the swept grid's direct
// checksums to round-off. A failing case is named by its seed.
//
// The mirror cases draw what compiles a mirror pair (interpTerm), which the
// drawn stencils almost never do: FivePoint or NinePoint with random weights
// under Clamp or Mirror, over a rectangle whose sums span the frame along
// one axis or both. FivePoint under Clamp must compile a pair on each axis
// whose sums span the frame; NinePoint, whose points at one offset are not
// consecutive, and Mirror, which enters line 1 where the other side leaves
// line 0, must not. The same stencils over a tile in a frame, where α reads
// halo lines, and over an edge block, whose run ends at resolved rows, hold
// the terms that do not pair to the same reference.
func TestInterpolateGenerated(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			is3D := rng.Intn(3) == 0
			switch {
			case seed%2 == 0 && is3D:
				interpGenerated3D[float32](t, rng, 1e-5)
			case seed%2 == 0:
				interpGenerated2D[float32](t, rng, 1e-5, "")
			case is3D:
				interpGenerated3D[float64](t, rng, 1e-12)
			default:
				interpGenerated2D[float64](t, rng, 1e-12, "")
			}
		})
	}
	for seed := int64(0); seed < 320; seed++ {
		t.Run(fmt.Sprint("mirror/", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			geometry := "spanning block"
			if seed >= 160 {
				geometry = []string{"tile in a frame", "edge block"}[seed%4/2]
			}
			if seed%2 == 0 {
				interpGenerated2D[float32](t, rng, 1e-5, geometry)
			} else {
				interpGenerated2D[float64](t, rng, 1e-12, geometry)
			}
		})
	}
}

// oddIn draws an odd size in [lo, hi], lo odd.
func oddIn(rng *rand.Rand, lo, hi int) int { return lo + 2*rng.Intn((hi-lo)/2+1) }

// sameVec fails unless got and want agree bit for bit.
func sameVec[T num.Float](t *testing.T, what string, got, want []T) {
	t.Helper()
	for i := range want {
		if !num.SameBits(got[i], want[i]) {
			t.Fatalf("%s: entry %d = %v, per-entry %v", what, i, got[i], want[i])
		}
	}
}

// nearVec fails unless got is within tol relative of the direct checksums.
func nearVec[T num.Float](t *testing.T, what string, got, direct []T, tol float64) {
	t.Helper()
	for i := range direct {
		if e := num.RelErr(float64(got[i]), float64(direct[i]), 1); e > tol {
			t.Fatalf("%s: entry %d interpolates to %v, direct %v (relative %g)", what, i, got[i], direct[i], e)
		}
	}
}

// span draws [lo, hi) of an axis of n cells for a rectangle wider than the
// radius r: anywhere (where), clear of both edges by r (interior), or
// touching an edge (edge).
func span(rng *rand.Rand, n, r int, where string) (lo, hi int) {
	w := r + 1 + rng.Intn(n-r)
	switch where {
	case "interior":
		w = r + 1 + rng.Intn(max(n-3*r, 1))
		lo = r + rng.Intn(max(n-2*r-w, 0)+1)
	case "low":
		lo = 0
	case "high":
		lo = n - w
	default:
		lo = rng.Intn(n - w + 1)
	}
	return lo, lo + w
}

// interpGenerated2D runs one 2-D case; mirror, when not empty, is the
// geometry of a mirror case.
func interpGenerated2D[T num.Float](t *testing.T, rng *rand.Rand, tol float64, mirror string) {
	st := genStencil[T](rng, false)
	bc := allBoundaries[rng.Intn(len(allBoundaries))]
	if mirror != "" {
		w := func() T { return T(0.05 + 0.2*rng.Float64() - 0.1*float64(rng.Intn(2))) }
		st = stencil.FivePoint(w(), w(), w(), w(), w())
		if rng.Intn(2) == 0 {
			st = stencil.NinePoint([9]T{w(), w(), w(), w(), w(), w(), w(), w(), w()})
		}
		bc = []grid.Boundary{grid.Clamp, grid.Mirror}[rng.Intn(2)]
	}
	rx, ry := st.RadiusX(), st.RadiusY()
	nx, ny := oddIn(rng, 5, 17), oddIn(rng, 5, 17)
	op := &stencil.Op2D[T]{St: st, BC: bc, BCValue: T(1 + rng.Float64())}
	if rng.Intn(2) == 0 {
		op.C = grid.New[T](nx, ny)
		op.C.FillFunc(func(x, y int) T { return T(0.1 * rng.Float64()) })
	}
	src, dst := grid.New[T](nx, ny), grid.New[T](nx, ny)
	src.FillFunc(func(x, y int) T { return T(1 + rng.Float64()) })
	op.Sweep(dst, src)
	drop := rng.Intn(4) == 0

	// The geometry: a rectangle [x0,x1) x [y0,y1) of frame, whose [gx, gy)
	// origin lies at global cell (gx, gy) of the swept domain.
	geometry := []string{"domain", "interior block", "edge block", "tile in a frame"}[rng.Intn(4)]
	if mirror != "" {
		geometry, drop = mirror, false
	}
	frame, fop := src, op
	x0, y0, x1, y1, gx, gy := 0, 0, nx, ny, 0, 0
	switch geometry {
	case "spanning block":
		// B's sums span the rows, A's the columns, or both.
		switch rng.Intn(3) {
		case 0:
			y0, y1 = span(rng, ny, ry, "")
		case 1:
			x0, x1 = span(rng, nx, rx, "")
		}
	case "interior block":
		if nx <= 3*rx || ny <= 3*ry {
			geometry = "edge block"
			break
		}
		x0, x1 = span(rng, nx, rx, "interior")
		y0, y1 = span(rng, ny, ry, "interior")
	case "tile in a frame":
		// The rank's frame: the tile plus halos of at least the radius,
		// materialised from the domain through the boundary condition.
		var tx0, ty0, tx1, ty1 int
		tx0, tx1 = span(rng, nx, rx, "")
		ty0, ty1 = span(rng, ny, ry, "")
		hx, hy := rx+rng.Intn(2), ry+rng.Intn(2)
		bg := grid.BoundedGrid[T]{G: src, Cond: bc, ConstVal: op.BCValue}
		frame = grid.New[T](tx1-tx0+2*hx, ty1-ty0+2*hy)
		frame.FillFunc(func(x, y int) T { return bg.At(tx0-hx+x, ty0-hy+y) })
		fop = &stencil.Op2D[T]{St: st, BC: bc, BCValue: op.BCValue}
		if op.C != nil {
			fop.C = grid.New[T](frame.Nx(), frame.Ny())
			for y := ty0; y < ty1; y++ {
				copy(fop.C.Row(hy + y - ty0)[hx:], op.C.Row(y)[tx0:tx1])
			}
		}
		x0, y0, x1, y1, gx, gy = hx, hy, hx+tx1-tx0, hy+ty1-ty0, tx0-hx, ty0-hy
	}
	if geometry == "edge block" {
		// At least one axis touches an edge; both, a corner.
		sides := []string{"low", "high", "interior", ""}
		wx, wy := sides[rng.Intn(2)], sides[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			wx, wy = wy, wx
		}
		if wx == "interior" && nx <= 3*rx {
			wx = ""
		}
		if wy == "interior" && ny <= 3*ry {
			wy = ""
		}
		x0, x1 = span(rng, nx, rx, wx)
		y0, y1 = span(rng, ny, ry, wy)
	}
	w, h := x1-x0, y1-y0
	fnx, fny := frame.Nx(), frame.Ny()
	what := fmt.Sprintf("%s %dx%d bc=%s %d points radius %d/%d drop=%v, rect [%d,%d)x[%d,%d) of %dx%d", geometry, nx, ny, bc, len(st.Points), rx, ry, drop, x0, x1, y0, y1, fnx, fny)

	ip, err := NewInterp2DRect(fop, fnx, fny, x0, y0, x1, y1)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ip.DropBoundaryTerms = drop
	if mirror != "" {
		// A's sums run along y, B's along x: a pair needs them to span the frame.
		isPair := func(t interpTerm[T]) bool { return t.pair }
		star := len(st.Points) == 5 && bc == grid.Clamp
		a, b := slices.ContainsFunc(ip.a.terms, isPair), slices.ContainsFunc(ip.b.terms, isPair)
		if a != (star && y0 == 0 && y1 == fny) || b != (star && x0 == 0 && x1 == fnx) {
			t.Fatalf("%s: mirror pair compiled on A %v, on B %v", what, a, b)
		}
	}
	ref := refInterp2D[T]{pts: st.Points, bc: bc, fnx: fnx, fny: fny, x0: x0, y0: y0, x1: x1, y1: y1, drop: drop}

	// The edge source: the frame itself, or for a domain a snapshot of it.
	var edges EdgeSource[T] = LiveEdges(frame, bc, op.BCValue)
	if geometry == "domain" && rng.Intn(2) == 0 {
		snap := NewEdgeSnapshot[T](nx, ny, ip.EdgeRadius(), bc, op.BCValue)
		snap.Capture(src)
		edges, what = snap, what+", snapshot"
	}

	// sum is the line through frame cell (x, y) — a row for B, a column for
	// A — summed over the rectangle's span, one cell at a time through the
	// boundary condition: rectangle entries and neighbour sums alike.
	fg := grid.BoundedGrid[T]{G: frame, Cond: bc, ConstVal: op.BCValue}
	sum := func(g grid.BoundedGrid[T], axisB bool, line int) T {
		var s T
		if axisB {
			for x := x0; x < x1; x++ {
				s += g.At(x, line)
			}
		} else {
			for y := y0; y < y1; y++ {
				s += g.At(line, y)
			}
		}
		return s
	}
	var cfield grid.BoundedGrid[T]
	if fop.C != nil {
		cfield = grid.BoundedGrid[T]{G: fop.C}
	}
	for _, axisB := range []bool{false, true} {
		v, n, e0, r := VecA, w, x0, rx
		if axisB {
			v, n, e0, r = VecB, h, y0, ry
		}
		halo := r + rng.Intn(2)
		prev, c := make([]T, n+2*halo), make([]T, n)
		if geometry == "domain" { // own entries, the halo projected
			for i := range n {
				prev[halo+i] = sum(fg, axisB, e0+i)
			}
			ip.FillHalo(v, prev)
		} else { // neighbour sums
			for i := range prev {
				prev[i] = sum(fg, axisB, e0-halo+i)
			}
		}
		refPrev := prev
		if geometry == "domain" { // the reference projects per entry on its own
			refPrev = make([]T, n+2*halo)
			own := prev[halo : halo+n]
			for i := range refPrev {
				refPrev[i] = refResolve(own, i-halo, bc, refGhost(bc, op.BCValue, map[bool]int{false: h, true: w}[axisB]))
			}
		}
		if fop.C != nil {
			for i := range n {
				c[i] = sum(cfield, axisB, e0+i)
			}
		}
		got, want := make([]T, n), make([]T, n)
		ip.Interpolate(v, prev, edges, got)
		ref.interpolate(axisB, c, refPrev, edges, want)
		name := map[bool]string{false: "A", true: "B"}[axisB]
		sameVec(t, what+": "+name, got, want)
		if axisB && geometry == "domain" {
			zero := make([]T, n)
			ip.InterpolateB(prev[halo:halo+n], edges, zero)
			sameVec(t, what+": zero-halo B", zero, want)
		}
		if !drop {
			direct := make([]T, n)
			dg := grid.BoundedGrid[T]{G: dst}
			for i := range n {
				if axisB {
					for x := x0; x < x1; x++ {
						direct[i] += dg.At(gx+x, gy+e0+i)
					}
				} else {
					for y := y0; y < y1; y++ {
						direct[i] += dg.At(gx+e0+i, gy+y)
					}
				}
			}
			nearVec(t, what+": "+name+" against the swept grid", got, direct, tol)
		}
	}
}

func interpGenerated3D[T num.Float](t *testing.T, rng *rand.Rand, tol float64) {
	st := genStencil[T](rng, true)
	rx, ry, rz := st.RadiusX(), st.RadiusY(), st.RadiusZ()
	bc := allBoundaries[rng.Intn(len(allBoundaries))]
	nx, ny, nz := oddIn(rng, 5, 13), oddIn(rng, 5, 13), oddIn(rng, 3, 7)
	// A slab is the box of nz layers of a frame with hz more each side, whose
	// halo layers it reads as the frame's; the domain is its whole frame.
	slab := rng.Intn(2) == 0
	hz := 0
	if slab {
		hz = rz + rng.Intn(2)
	}
	nzG := nz + 2*hz
	op := &stencil.Op3D[T]{St: st, BC: bc, BCValue: T(1 + rng.Float64())}
	if rng.Intn(2) == 0 {
		op.C = grid.New3D[T](nx, ny, nzG)
		op.C.FillFunc(func(x, y, z int) T { return T(0.1 * rng.Float64()) })
	}
	src, dst := grid.New3D[T](nx, ny, nzG), grid.New3D[T](nx, ny, nzG)
	src.FillFunc(func(x, y, z int) T { return T(1 + rng.Float64()) })
	op.Sweep(dst, src)
	drop := rng.Intn(4) == 0
	snapshots := rng.Intn(2) == 0
	what := fmt.Sprintf("3-D %dx%dx%d slab=%v hz=%d bc=%s %d points radius %d/%d/%d drop=%v snapshots=%v",
		nx, ny, nz, slab, hz, bc, len(st.Points), rx, ry, rz, drop, snapshots)

	ip, err := NewInterp3D(op, nx, ny, nz)
	if slab {
		ip, err = NewInterp3DRect(op, nx, ny, nzG, 0, 0, hz, nx, ny, hz+nz)
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	ip.DropBoundaryTerms = drop
	ref := refInterp3D[T]{op: op, nx: nx, ny: ny, nz: nz, drop: drop}

	// Per domain layer: its checksum pair and edge source.
	plainA, plainB := make([][]T, nzG), make([][]T, nzG)
	edges := make([]EdgeSource[T], nzG)
	for z := range nzG {
		vec := NewVectors[T](nx, ny)
		vec.Compute(src.Layer(z))
		plainA[z], plainB[z] = vec.A, vec.B
		edges[z] = LiveEdges(src.Layer(z), bc, op.BCValue)
		if snapshots {
			s := NewEdgeSnapshot[T](nx, ny, ip.EdgeRadius(), bc, op.BCValue)
			s.Capture(src.Layer(z))
			edges[z] = s
		}
	}
	// What the engine reads (NewStack, EdgeStack): for a domain, halo layers
	// projected along z and nil edge sources for ghost layers; for a slab,
	// the frame's layers.
	stackEdges := ip.EdgeStack(nil, edges)
	for _, axisB := range []bool{false, true} {
		v, plain, n, r := VecA, plainA, nx, rx
		if axisB {
			v, plain, n, r = VecB, plainB, ny, ry
		}
		stack := ip.NewStack(v, r)
		for e := range stack {
			if f := ip.LayerOf(e); f >= 0 {
				copy(stack[e][r:], plain[f])
				ip.FillHalo(v, stack[e])
			}
		}
		h := -1
		if slab {
			h = hz
		}
		for z := range nz {
			cz := make([]T, n)
			if op.C != nil {
				if axisB {
					stencil.ChecksumB(op.C.Layer(hz+z), cz)
				} else {
					stencil.ChecksumA(op.C.Layer(hz+z), cz)
				}
			}
			got, want := make([]T, n), make([]T, n)
			ip.Interpolate(v, z, stack, stackEdges, got)
			ref.interpolate(axisB, z, h, cz, plain, edges, want)
			name := fmt.Sprintf("layer %d %s", z, map[bool]string{false: "A", true: "B"}[axisB])
			sameVec(t, what+": "+name, got, want)
			if axisB && !slab {
				zero := make([]T, n)
				ip.InterpolateB(z, plain, edges, zero)
				sameVec(t, what+": zero-halo "+name, zero, want)
			}
			if !drop {
				direct := NewVectors[T](nx, ny)
				direct.Compute(dst.Layer(hz + z))
				d := direct.A
				if axisB {
					d = direct.B
				}
				nearVec(t, what+": "+name+" against the swept grid", got, d, tol)
			}
		}
	}
}

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestInterpolatePanicsOnShortHalo: an extended vector whose halo is
// narrower than the stencil radius, or a stack short of the z-radius, is a
// caller's bug the engine refuses rather than reads past.
func TestInterpolatePanicsOnShortHalo(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.Laplace5(0.2), BC: grid.Clamp}
	ip, err := NewInterp2D(op, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.New[float64](8, 8)
	mustPanic(t, "a halo below the radius", func() {
		ip.Interpolate(VecB, make([]float64, 8), LiveEdges(g, grid.Clamp, 0), make([]float64, 8))
	})

	op3 := &stencil.Op3D[float64]{St: stencil.SevenPoint3D(0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1), BC: grid.Clamp}
	ip3, err := NewInterp3D(op3, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	g3 := grid.New3D[float64](8, 8, 4)
	short, edges := make([][]float64, 4), make([]EdgeSource[float64], 4)
	for z := range short {
		short[z], edges[z] = make([]float64, 10), LiveEdges(g3.Layer(z), grid.Clamp, 0)
	}
	mustPanic(t, "a stack without its z-radius of halo layers", func() {
		ip3.Interpolate(VecB, 1, short, edges, make([]float64, 8))
	})
}

// TestInterpolatePanicsOnForeignEdges: the engine reads an edge source's
// cells in place and resolves what lies outside through its own boundary,
// so a source of another shape or under another boundary is refused rather
// than silently read as if it were the frame.
func TestInterpolatePanicsOnForeignEdges(t *testing.T) {
	op := &stencil.Op2D[float64]{St: stencil.BoxBlur[float64](), BC: grid.Constant, BCValue: 2}
	ip, err := NewInterp2D(op, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]float64, 10)
	snap := func(nx, ny int, bc grid.Boundary, k float64) EdgeSource[float64] {
		s := NewEdgeSnapshot[float64](nx, ny, 1, bc, k)
		s.Capture(grid.New[float64](nx, ny))
		return s
	}
	for _, c := range []struct {
		what  string
		edges EdgeSource[float64]
	}{
		{"a grid under another boundary", LiveEdges(grid.New[float64](8, 8), grid.Clamp, 2)},
		{"a grid under another constant", LiveEdges(grid.New[float64](8, 8), grid.Constant, 3)},
		{"a grid of another height", LiveEdges(grid.New[float64](8, 9), grid.Constant, 2)},
		{"a snapshot under another boundary", snap(8, 8, grid.Mirror, 2)},
		{"a snapshot of another width", snap(9, 8, grid.Constant, 2)},
		{"a bare grid", grid.New[float64](8, 8)},
	} {
		mustPanic(t, c.what, func() { ip.Interpolate(VecB, prev, c.edges, make([]float64, 8)) })
	}
	// The matching sources interpolate.
	ip.Interpolate(VecB, prev, LiveEdges(grid.New[float64](8, 8), grid.Constant, 2), make([]float64, 8))
	ip.Interpolate(VecB, prev, snap(8, 8, grid.Constant, 2), make([]float64, 8))
}
