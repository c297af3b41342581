// Package metrics provides the measurement side of the experiment harness:
// the l2-norm arithmetic error of Equation (11), summary statistics for the
// paper's bar charts (mean ± stddev) and box plots (median/quartiles), and
// simple wall-clock timing.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"

	"stencilabft/internal/grid"
	"stencilabft/internal/num"
)

// L2Error computes the paper's arithmetic error (Equation 11): the l2 norm
// of the element-wise difference between the computed result and the
// reference result. Non-finite differences saturate to +Inf, matching how a
// corrupted-beyond-overflow run is reported.
func L2Error[T num.Float](computed, reference *grid.Grid[T]) float64 {
	if !computed.SameShape(reference) {
		panic("metrics: L2Error shape mismatch")
	}
	return l2(computed.Data(), reference.Data())
}

// L2Error3D is L2Error for 3-D domains.
func L2Error3D[T num.Float](computed, reference *grid.Grid3D[T]) float64 {
	if !computed.SameShape(reference) {
		panic("metrics: L2Error3D shape mismatch")
	}
	return l2(computed.Data(), reference.Data())
}

func l2[T num.Float](c, r []T) float64 {
	var sum float64
	for i := range c {
		d := float64(c[i]) - float64(r[i])
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return math.Inf(1)
		}
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Sample accumulates scalar observations (times, errors) across experiment
// repetitions. The zero value is ready to use.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean. Observations of +Inf propagate, which
// is intentional: a campaign whose mean error is +Inf had at least one
// overflowed run, exactly what the paper's "mean arithmetic error" bars
// show off the top of the axis.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	if math.IsInf(m, 0) || math.IsNaN(m) {
		return math.NaN()
	}
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) with linear interpolation
// between order statistics.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[lo]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Quantile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Quantile(1) }

// Box returns the five-number summary the paper's Figure 10 box plots use:
// min, Q1, median, Q3, max.
func (s *Sample) Box() (min, q1, med, q3, max float64) {
	return s.Quantile(0), s.Quantile(0.25), s.Quantile(0.5), s.Quantile(0.75), s.Quantile(1)
}

// Summary is a formatted one-line digest.
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g median=%.4g max=%.4g",
		s.N(), s.Mean(), s.StdDev(), s.Median(), s.Max())
}

// Timer measures wall-clock spans.
type Timer struct {
	start time.Time
}

// StartTimer begins timing.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Seconds returns the elapsed time in seconds.
func (t Timer) Seconds() float64 { return time.Since(t.start).Seconds() }
