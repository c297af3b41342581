package core

import (
	"stencilabft/internal/checksum"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
)

// Calibration reports the floating-point noise floor observed between
// directly computed and interpolated checksums on an error-free run — the
// quantity the detection threshold epsilon must clear to avoid false
// positives (paper Section 3.4: the threshold "depends on the domain,
// chunk, or block size"; Section 5.1 chose 1e-5 for float32 tiles up to
// 512x512 by exactly this kind of measurement).
type Calibration[T num.Float] struct {
	// MaxRelErr is the largest relative checksum deviation observed on
	// any iteration.
	MaxRelErr T
	// SuggestedEpsilon is MaxRelErr with a 16x safety margin, clamped
	// below by one machine epsilon.
	SuggestedEpsilon T
	// Iterations actually measured.
	Iterations int
}

// CalibrateEpsilon runs iters error-free sweeps of op from init, measuring
// the relative deviation between interpolated and direct column checksums
// each iteration, and returns the observed floor with a suggested
// threshold. The run is a measurement only; the caller's grid is not
// modified.
func CalibrateEpsilon[T num.Float](op *stencil.Op2D[T], init *grid.Grid[T], iters int) (Calibration[T], error) {
	nx, ny := init.Nx(), init.Ny()
	ip, err := checksum.NewInterp2D(op, nx, ny)
	if err != nil {
		return Calibration[T]{}, err
	}
	buf := grid.BufferFrom(init)
	// The column checksums, extended by RadiusY entries the projection of
	// the boundary condition fills.
	ry := op.St.RadiusY()
	prevB, newB := make([]T, ny+2*ry), make([]T, ny+2*ry)
	interpB := make([]T, ny)
	stencil.ChecksumB(buf.Read, prevB[ry:ry+ny])
	edges, edgesAlt := checksum.LiveEdges(buf.Read, op.BC, op.BCValue), checksum.LiveEdges(buf.Write, op.BC, op.BCValue)

	det := checksum.Detector[T]{AbsFloor: 1}
	var cal Calibration[T]
	for i := 0; i < iters; i++ {
		op.SweepFused(buf.Write, buf.Read, newB[ry:ry+ny])
		ip.FillHalo(checksum.VecB, prevB)
		ip.Interpolate(checksum.VecB, prevB, edges, interpB)
		if e := det.MaxRelErr(newB[ry:ry+ny], interpB); e > cal.MaxRelErr {
			cal.MaxRelErr = e
		}
		prevB, newB = newB, prevB
		edges, edgesAlt = edgesAlt, edges
		buf.Swap()
		cal.Iterations++
	}
	cal.SuggestedEpsilon = num.Max(cal.MaxRelErr*16, num.EpsilonFor[T]())
	return cal, nil
}
