package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	abft "stencilabft"
	"stencilabft/internal/hotspot"
)

// problem is the stencil problem a workload solves: a stencil under clamp
// boundaries, an optional constant field, a seeded initial domain (2-D or
// 3-D) and the number of sweeps in one repetition. The program under test
// sees only these generated inputs.
type problem[T abft.Float] struct {
	st    *abft.Stencil[T]
	c3    *abft.Grid3D[T] // constant field of the 3-D operator; nil for 2-D
	init2 *abft.Grid[T]
	init3 *abft.Grid3D[T]
	iters int
	// turn is how many sweeps a runner advances before its siblings take
	// theirs: about 8 ms of work, so that the same sweep runs on every
	// runner of a workload under the same host conditions. It divides 16,
	// the period of every recurring cost.
	turn int
	// paceNs is the reference pace of the pacer at this working-set size;
	// see atReferencePace.
	paceNs float64
}

func (pb *problem[T]) is3D() bool { return pb.init3 != nil }

func (pb *problem[T]) cells() int {
	if pb.is3D() {
		return pb.init3.Len()
	}
	return pb.init2.Len()
}

// op2d and op3d return a fresh operator, so variants never share (and
// thrash) one operator's single-entry plan cache.
func (pb *problem[T]) op2d() *abft.Op2D[T] { return &abft.Op2D[T]{St: pb.st, BC: abft.Clamp} }
func (pb *problem[T]) op3d() *abft.Op3D[T] {
	return &abft.Op3D[T]{St: pb.st, BC: abft.Clamp, C: pb.c3}
}

// spec declares a local run of the problem under the given scheme.
func (pb *problem[T]) spec(scheme abft.Scheme) abft.Spec[T] {
	if pb.is3D() {
		return abft.Spec[T]{Scheme: scheme, Op3D: pb.op3d(), Init3D: pb.init3}
	}
	return abft.Spec[T]{Scheme: scheme, Op2D: pb.op2d(), Init: pb.init2}
}

// uniform2D builds a 2-D problem whose initial grid is uniform in
// [100, 400) — application-scale values, so relative detector thresholds
// behave as they do on the paper's temperature fields.
func uniform2D[T abft.Float](seed int64, nx, ny, iters int, st *abft.Stencil[T]) *problem[T] {
	rng := rand.New(rand.NewSource(seed))
	g := abft.New[T](nx, ny)
	for i, d := 0, g.Data(); i < len(d); i++ {
		d[i] = T(100 + 300*rng.Float64())
	}
	return &problem[T]{st: st, init2: g, iters: iters, turn: 1, paceNs: 1.45}
}

// hotspot3D builds the paper's HotSpot3D application at the given tile
// size: seeded synthetic power and temperature maps, the model's stencil
// and its power constant field. It also returns how long the model took:
// NewModel plus assembling the operator from the power map.
func hotspot3D(seed int64, nx, ny, nz, iters int) (*problem[float32], time.Duration, error) {
	cfg := hotspot.Config{Nx: nx, Ny: ny, Nz: nz}
	power := hotspot.SyntheticPower[float32](cfg, seed)
	t0 := time.Now()
	m, err := hotspot.NewModel[float32](cfg)
	if err != nil {
		return nil, 0, err
	}
	op := m.Op(power)
	modelTime := time.Since(t0)
	return &problem[float32]{
		st: op.St, c3: op.C, iters: iters, turn: 1, paceNs: 1.45,
		init3: hotspot.SyntheticTemperature[float32](cfg, seed+1),
	}, modelTime, nil
}

// gridData returns the flat current state of a protector of either
// dimensionality. A cluster gathers on every call.
func gridData[T abft.Float](p abft.Protector[T]) []T {
	if g := p.Grid3D(); g != nil {
		return g.Data()
	}
	return p.Grid().Data()
}

// sameBits reports whether two domains agree element for element. A NaN
// never equals itself, so a poisoned result fails the check too.
func sameBits[T abft.Float](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// relDiff returns max|a-b| / max|b| (+Inf on a shape mismatch or NaN).
func relDiff[T abft.Float](a, b []T) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d != d {
			return math.Inf(1)
		}
		diff = max(diff, d)
		scale = max(scale, math.Abs(float64(b[i])))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// reference advances the problem steps sweeps with the plainest possible
// loops in float64 — no plans, no specialised kernels, no pool — so a wrong
// kernel in the program cannot also be wrong here. It is the independent
// half of every workload's correctness gate; the other half (protected run
// bit-identical to the unprotected one) is checked on every repetition.
func (pb *problem[T]) reference(steps int) []float64 {
	nx, ny, nz := 0, 0, 1
	var cur []float64
	var c []T
	if pb.is3D() {
		nx, ny, nz = pb.init3.Nx(), pb.init3.Ny(), pb.init3.Nz()
		cur = toFloat64(pb.init3.Data())
		if pb.c3 != nil {
			c = pb.c3.Data()
		}
	} else {
		nx, ny = pb.init2.Nx(), pb.init2.Ny()
		cur = toFloat64(pb.init2.Data())
	}
	next := make([]float64, len(cur))
	clamp := func(i, n int) int { return max(0, min(i, n-1)) }
	for s := 0; s < steps; s++ {
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					i := x + y*nx + z*nx*ny
					var v float64
					if c != nil {
						v = float64(c[i])
					}
					for _, p := range pb.st.Points {
						xx, yy, zz := clamp(x+p.DX, nx), clamp(y+p.DY, ny), clamp(z+p.DZ, nz)
						v += float64(p.W) * cur[xx+yy*nx+zz*nx*ny]
					}
					next[i] = v
				}
			}
		}
		cur, next = next, cur
	}
	return cur
}

func toFloat64[T abft.Float](xs []T) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}

// referenceSteps is how many sweeps the independent reference check runs:
// enough for every stencil arm and boundary to matter, few enough to stay
// out of the time budget.
const referenceSteps = 3

// checkAgainstReference builds the unprotected runner, advances it
// referenceSteps sweeps and compares with the plain-loop reference. The
// tolerance covers rounding-order differences only: float32 accumulates in
// float32, the reference in float64.
func (pb *problem[T]) checkAgainstReference() error {
	p, err := abft.Build(pb.spec(abft.None))
	if err != nil {
		return err
	}
	p.Run(referenceSteps)
	want := pb.reference(referenceSteps)
	got := toFloat64(gridData(p))
	tol := 1e-4
	var zero T
	if any(zero) == any(float64(0)) {
		tol = 1e-10
	}
	if d := relDiff(got, want); d > tol {
		return fmt.Errorf("unprotected run differs from the plain-loop reference by %.3g relative (tolerance %.0e)", d, tol)
	}
	return nil
}
