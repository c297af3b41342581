package core

import (
	"math"

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
	// The online protector under a threshold no finite residual trips: its
	// verify interpolates every step, and no repair touches the run.
	p, err := NewOnline2D(op, init, Options[T]{Detector: checksum.Detector[T]{Epsilon: T(math.Inf(1))}})
	if err != nil {
		return Calibration[T]{}, err
	}
	c, det := p.chunks[0], checksum.Detector[T]{AbsFloor: 1}
	var cal Calibration[T]
	for i := 0; i < iters; i++ {
		p.Step() // which swaps the fused checksums into PrevB
		if e := det.MaxRelErr(c.own(c.PrevB, 0), c.interpB[0]); e > cal.MaxRelErr {
			cal.MaxRelErr = e
		}
		cal.Iterations++
	}
	cal.SuggestedEpsilon = num.Max(cal.MaxRelErr*16, num.EpsilonFor[T]())
	return cal, nil
}
