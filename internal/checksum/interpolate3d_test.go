package checksum

import (
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

		ip, err := NewInterp3D(op, nx, ny, nz)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Previous-iteration state: the layers' checksum stacks, halos
		// projected through the boundary condition, and edges.
		rz, rx, ry := st.RadiusZ(), st.RadiusX(), st.RadiusY()
		prevA, prevB := ip.NewStack(VecA, rx), ip.NewStack(VecB, ry)
		layers := make([]EdgeSource[float64], nz)
		for z := 0; z < nz; z++ {
			stencil.ChecksumA(src.Layer(z), prevA[rz+z][rx:rx+nx])
			stencil.ChecksumB(src.Layer(z), prevB[rz+z][ry:ry+ny])
			ip.FillHalo(VecA, prevA[rz+z])
			ip.FillHalo(VecB, prevB[rz+z])
			layers[z] = LiveEdges(src.Layer(z), bc, op.BCValue)
		}
		edges := ip.EdgeStack(nil, layers)

		op.Sweep(dst, src)
		const tol = 1e-9
		for z := 0; z < nz; z++ {
			direct := NewVectors[float64](nx, ny)
			direct.Compute(dst.Layer(z))
			interpA := make([]float64, nx)
			interpB := make([]float64, ny)
			ip.Interpolate(VecA, z, prevA, edges, interpA)
			ip.Interpolate(VecB, z, prevB, edges, interpB)
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

// refInterp3D is the per-entry form of the 3-D interpolation: the boundary
// condition resolved per stencil point per entry, every edge cell read
// through EdgeSource.At. It is the reference the engine must reproduce bit
// for bit. h < 0 selects the domain form (z+dz through the boundary
// condition), h >= 0 the slab form (prev holds h halo layers each side).
type refInterp3D[T num.Float] struct {
	op         *stencil.Op3D[T]
	nx, ny, nz int
	drop       bool
}

// refGhost is the value a whole ghost line of m cells sums to.
func refGhost[T num.Float](bc grid.Boundary, k T, m int) T {
	if bc == grid.Constant {
		return T(m) * k
	}
	return 0
}

// refResolve looks up vec[i] with the 1-D projection of the boundary
// condition (DESIGN.md Section 6), ghost standing for a whole ghost line.
func refResolve[T num.Float](vec []T, i int, bc grid.Boundary, ghost T) T {
	if r, ok := bc.ResolveIndex(i, len(vec)); ok {
		return vec[r]
	}
	return ghost
}

// refShift is a window-shift term read cell by cell: at(i) is cell i, along
// the summed axis, of the line the shifted entry lies on; the summation
// window is [s0, s1) and shifts by cross.
func refShift[T num.Float](at func(i int) T, s0, s1, cross int) T {
	var bnd T
	if cross < 0 {
		for i := cross; i < 0; i++ {
			bnd += at(s0 + i)
		}
		for i := cross; i < 0; i++ {
			bnd -= at(s1 + i)
		}
	} else {
		for i := 0; i < cross; i++ {
			bnd += at(s1 + i)
		}
		for i := 0; i < cross; i++ {
			bnd -= at(s0 + i)
		}
	}
	return bnd
}

// interpolate computes one layer's vector: B (entries over y) or A.
func (ip refInterp3D[T]) interpolate(axisB bool, z, h int, c []T, prev [][]T, edges []EdgeSource[T], next []T) {
	bc := ip.op.BC
	n, m := ip.nx, ip.ny // entries, summed extent
	if axisB {
		n, m = ip.ny, ip.nx
	}
	ghost := refGhost(bc, ip.op.BCValue, m)
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
					v += p.W * ghost // a ghost layer: every line a ghost line
					continue
				}
			}
			term := refResolve(prev[zz], e+shift, bc, ghost)
			if cross != 0 && bc != grid.Periodic && !ip.drop {
				term += refShift(func(i int) T { // cell i of the line through entry e+shift
					if axisB {
						return edges[zz].At(i, e+shift)
					}
					return edges[zz].At(e+shift, i)
				}, 0, m, cross)
			}
			v += p.W * term
		}
		next[e] = v
	}
}
