package main

import (
	"math"
	"sort"
)

// sample is one reported number: the median of its observations with the
// quartiles and the count behind it. Counts and computed constants have
// N == 1 and Q1 == Q3 == Value.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// exact wraps a count or a computed constant.
func exact(v float64) sample { return sample{Value: v, Q1: v, Q3: v, N: 1} }

// summarize reduces observations to median and quartiles. An empty slice
// yields the zero sample: the layer was not exercised.
func summarize(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	return sample{Value: percentile(xs, 50), Q1: percentile(xs, 25), Q3: percentile(xs, 75), N: len(xs)}
}

// scaled returns s with value and quartiles multiplied by k (unit changes).
func (s sample) scaled(k float64) sample {
	s.Value *= k
	s.Q1 *= k
	s.Q3 *= k
	return s
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// firstQuartile summarizes observations by their first quartile instead of
// their median: the estimate of a time with the host's interference, which
// only ever adds, taken out.
func firstQuartile(xs []float64) sample {
	s := summarize(xs)
	s.Value = s.Q1
	return s
}
