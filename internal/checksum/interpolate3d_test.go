package checksum

import (
	"math"
	"math/rand"
	"testing"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// randomStencil3D builds a random 3-D stencil with k points and per-axis
// radius 1 (the common 3-D case; deeper z-reach is covered by the 7-point
// weights test varying dz below).
func randomStencil3D(rng *rand.Rand, k int) *stencil.Stencil[float64] {
	st := &stencil.Stencil[float64]{Name: "random3d"}
	seen := map[[3]int]bool{}
	for len(st.Points) < k {
		dx := rng.Intn(3) - 1
		dy := rng.Intn(3) - 1
		dz := rng.Intn(3) - 1
		if seen[[3]int{dx, dy, dz}] {
			continue
		}
		seen[[3]int{dx, dy, dz}] = true
		w := 2*rng.Float64() - 1
		if w == 0 {
			w = 0.25
		}
		st.Points = append(st.Points, stencil.Point[float64]{DX: dx, DY: dy, DZ: dz, W: w})
	}
	return st
}

// TestTheorem1Invariance3D extends the central property test to 3-D
// domains: each layer's interpolated checksums (with cross-layer coupling)
// must match the direct checksums of the swept domain for every boundary
// condition.
func TestTheorem1Invariance3D(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		nx := 4 + rng.Intn(10)
		ny := 4 + rng.Intn(10)
		nz := 2 + rng.Intn(5)
		st := randomStencil3D(rng, 1+rng.Intn(9))
		bc := allBoundaries[rng.Intn(len(allBoundaries))]
		var cfield *grid.Grid3D[float64]
		if rng.Intn(2) == 0 {
			cfield = grid.New3D[float64](nx, ny, nz)
			cfield.FillFunc(func(x, y, z int) float64 { return rng.Float64() - 0.5 })
		}
		op := &stencil.Op3D[float64]{St: st, BC: bc, BCValue: 2*rng.Float64() - 1, C: cfield}
		if op.Validate(nx, ny, nz) != nil {
			continue
		}

		src := grid.New3D[float64](nx, ny, nz)
		src.FillFunc(func(x, y, z int) float64 { return 2*rng.Float64() - 1 })
		dst := grid.New3D[float64](nx, ny, nz)

		// Previous-iteration state: per-layer checksums and edges.
		prevA := make([][]float64, nz)
		prevB := make([][]float64, nz)
		edges := make([]EdgeSource[float64], nz)
		for z := 0; z < nz; z++ {
			v := NewVectors[float64](nx, ny)
			v.Compute(src.Layer(z))
			prevA[z], prevB[z] = v.A, v.B
			edges[z] = LiveEdges(src.Layer(z), bc, op.BCValue)
		}

		op.Sweep(dst, src)

		ip, err := NewInterp3D(op, nx, ny, nz)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const tol = 1e-9
		for z := 0; z < nz; z++ {
			direct := NewVectors[float64](nx, ny)
			direct.Compute(dst.Layer(z))
			interpA := make([]float64, nx)
			interpB := make([]float64, ny)
			ip.InterpolateA(z, prevA, edges, interpA)
			ip.InterpolateB(z, prevB, edges, interpB)
			for x := 0; x < nx; x++ {
				if num.RelErr(interpA[x], direct.A[x], 1e-6) > tol {
					t.Fatalf("trial %d (%s, bc=%s, %dx%dx%d): layer %d A[%d] direct %.12g interp %.12g",
						trial, st, bc, nx, ny, nz, z, x, direct.A[x], interpA[x])
				}
			}
			for y := 0; y < ny; y++ {
				if num.RelErr(interpB[y], direct.B[y], 1e-6) > tol {
					t.Fatalf("trial %d (%s, bc=%s, %dx%dx%d): layer %d B[%d] direct %.12g interp %.12g",
						trial, st, bc, nx, ny, nz, z, y, direct.B[y], interpB[y])
				}
			}
		}
	}
}

// TestSevenPoint3DInvariance pins the HotSpot-shaped kernel specifically,
// with asymmetric z weights (the thermal model's above/below conductances
// differ) under Clamp boundaries.
func TestSevenPoint3DInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nx, ny, nz := 12, 10, 6
	st := stencil.SevenPoint3D(0.4, 0.1, 0.1, 0.12, 0.12, 0.05, 0.11)
	op := &stencil.Op3D[float64]{St: st, BC: grid.Clamp}
	src := grid.New3D[float64](nx, ny, nz)
	src.FillFunc(func(x, y, z int) float64 { return 300 + 20*rng.Float64() })
	dst := grid.New3D[float64](nx, ny, nz)

	prevB := make([][]float64, nz)
	edges := make([]EdgeSource[float64], nz)
	for z := 0; z < nz; z++ {
		v := NewVectors[float64](nx, ny)
		v.Compute(src.Layer(z))
		prevB[z] = v.B
		edges[z] = LiveEdges(src.Layer(z), grid.Clamp, 0)
	}
	op.Sweep(dst, src)
	ip, err := NewInterp3D(op, nx, ny, nz)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < nz; z++ {
		direct := NewVectors[float64](nx, ny)
		direct.Compute(dst.Layer(z))
		interpB := make([]float64, ny)
		ip.InterpolateB(z, prevB, edges, interpB)
		for y := 0; y < ny; y++ {
			if num.RelErr(interpB[y], direct.B[y], 1e-6) > 1e-10 {
				t.Fatalf("layer %d B[%d]: direct %.12g interp %.12g", z, y, direct.B[y], interpB[y])
			}
		}
	}
}

// refInterp3D is the per-entry form of the 3-D interpolation that Interp3D
// ran before it compiled the boundary out: ResolveIndex per stencil point per
// entry, every edge cell through EdgeSource.At. It is kept as the reference
// the compiled passes must reproduce bit for bit. h < 0 selects the domain
// form (z+dz through the boundary condition), h >= 0 the slab form.
type refInterp3D[T num.Float] struct {
	op         *stencil.Op3D[T]
	nx, ny, nz int
	drop       bool
}

func (ip refInterp3D[T]) ghostSum(n int) T {
	if ip.op.BC == grid.Constant {
		return T(n) * ip.op.BCValue
	}
	return 0
}

// interpolate computes one layer's vector: B (entries over y) or A.
func (ip refInterp3D[T]) interpolate(axisB bool, z, h int, c []T, prev [][]T, edges []EdgeSource[T], next []T) {
	bc := ip.op.BC
	n, m := ip.nx, ip.ny // entries, summed extent
	if axisB {
		n, m = ip.ny, ip.nx
	}
	for e := 0; e < n; e++ {
		v := c[e]
		for _, p := range ip.op.St.Points {
			shift, cross := p.DX, p.DY
			if axisB {
				shift, cross = p.DY, p.DX
			}
			zz := z + p.DZ + h
			if h < 0 {
				var ok bool
				if zz, ok = bc.ResolveIndex(z+p.DZ, ip.nz); !ok {
					if bc == grid.Constant {
						v += p.W * ip.ghostSum(m)
					}
					continue
				}
			}
			term := resolve1D(prev[zz], e+shift, bc, ip.ghostSum(m))
			if cross != 0 && bc != grid.Periodic && !ip.drop {
				at := func(i int) T { // cell i of the line through entry e+shift
					if axisB {
						return edges[zz].At(i, e+shift)
					}
					return edges[zz].At(e+shift, i)
				}
				var bnd T
				if cross < 0 {
					for i := cross; i < 0; i++ {
						bnd += at(i)
					}
					for i := m + cross; i < m; i++ {
						bnd -= at(i)
					}
				} else {
					for i := m; i < m+cross; i++ {
						bnd += at(i)
					}
					for i := 0; i < cross; i++ {
						bnd -= at(i)
					}
				}
				term += bnd
			}
			v += p.W * term
		}
		next[e] = v
	}
}

// pinInterp3D checks all four Interp3D entry points against refInterp3D,
// bit for bit, over the five boundary conditions, DropBoundaryTerms on and
// off, live and snapshot edge sources, and slab halos of 1 and 2 layers.
func pinInterp3D[T num.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	same := func(a, b T) bool { return math.Float64bits(float64(a)) == math.Float64bits(float64(b)) }
	stencils := []*stencil.Stencil[T]{
		stencil.SevenPoint3D[T](0.31, 0.07, -0.05, 0.11, 0.13, 0.17, -0.19),
		{Name: "far3d", Points: []stencil.Point[T]{ // radius 2/2/2, box-like corners, nothing symmetric
			{DX: 0, DY: 0, DZ: 0, W: 0.41}, {DX: -2, DY: 1, DZ: 0, W: 0.07}, {DX: 1, DY: -2, DZ: 0, W: -0.05},
			{DX: 0, DY: 1, DZ: -2, W: 0.11}, {DX: 2, DY: 2, DZ: 1, W: 0.13}, {DX: -1, DY: -1, DZ: 2, W: -0.17},
			{DX: 0, DY: 0, DZ: -1, W: 0.19},
		}},
	}
	for _, st := range stencils {
		rz := st.RadiusZ()
		for _, bc := range allBoundaries {
			for _, sz := range [][3]int{{3, 3, rz + 1}, {7, 5, 3}, {9, 8, 8}} {
				for _, drop := range []bool{false, true} {
					nx, ny, nz := sz[0], sz[1], sz[2]
					c := grid.New3D[T](nx, ny, nz)
					c.FillFunc(func(x, y, z int) T { return T(rng.Float64() - 0.5) })
					op := &stencil.Op3D[T]{St: st, BC: bc, BCValue: 1.75, C: c}
					ip, err := NewInterp3D(op, nx, ny, nz)
					if err != nil {
						t.Fatal(err)
					}
					ip.DropBoundaryTerms = drop
					ref := refInterp3D[T]{op: op, nx: nx, ny: ny, nz: nz, drop: drop}

					// An extended stack of layers: the slab form reads all of
					// it, the domain form its middle nz layers.
					const maxH = 2
					ext := grid.New3D[T](nx, ny, nz+2*maxH)
					ext.FillFunc(func(x, y, z int) T { return T(rng.Float64()*200 - 100) })
					var prevA, prevB [][]T
					var live, snap []EdgeSource[T]
					for z := 0; z < ext.Nz(); z++ {
						v := NewVectors[T](nx, ny)
						v.Compute(ext.Layer(z))
						prevA, prevB = append(prevA, v.A), append(prevB, v.B)
						live = append(live, LiveEdges(ext.Layer(z), bc, op.BCValue))
						s := NewEdgeSnapshot[T](nx, ny, ip.EdgeRadius(), bc, op.BCValue)
						s.Capture(ext.Layer(z))
						snap = append(snap, s)
					}
					for _, edges := range [][]EdgeSource[T]{live, snap} {
						for _, h := range []int{-1, 1, 2} {
							if h >= 0 && h < rz {
								continue
							}
							lo, hi := maxH, maxH+nz // the domain form's layers
							if h >= 0 {
								lo, hi = maxH-h, maxH+nz+h
							}
							for z := 0; z < nz; z++ {
								gotA, wantA := make([]T, nx), make([]T, nx)
								gotB, wantB := make([]T, ny), make([]T, ny)
								if h < 0 {
									ip.InterpolateA(z, prevA[lo:hi], edges[lo:hi], gotA)
									ip.InterpolateB(z, prevB[lo:hi], edges[lo:hi], gotB)
								} else {
									ip.InterpolateASlab(z, prevA[lo:hi], h, edges[lo:hi], gotA)
									ip.InterpolateBSlab(z, prevB[lo:hi], h, edges[lo:hi], gotB)
								}
								ref.interpolate(false, z, h, ip.a.c[z], prevA[lo:hi], edges[lo:hi], wantA)
								ref.interpolate(true, z, h, ip.b.c[z], prevB[lo:hi], edges[lo:hi], wantB)
								for x := range gotA {
									if !same(gotA[x], wantA[x]) {
										t.Fatalf("%s bc=%s %v drop=%v h=%d %T: layer %d A[%d] = %v, per-entry %v",
											st.Name, bc, sz, drop, h, edges[0], z, x, gotA[x], wantA[x])
									}
								}
								for y := range gotB {
									if !same(gotB[y], wantB[y]) {
										t.Fatalf("%s bc=%s %v drop=%v h=%d %T: layer %d B[%d] = %v, per-entry %v",
											st.Name, bc, sz, drop, h, edges[0], z, y, gotB[y], wantB[y])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestInterp3DPinFloat32(t *testing.T) { pinInterp3D[float32](t) }
func TestInterp3DPinFloat64(t *testing.T) { pinInterp3D[float64](t) }
